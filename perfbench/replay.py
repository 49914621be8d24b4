"""The library workloads: manycore_s7, paper_8core and cold_start.

Every replay is the call the experiment runner's worker makes
(``RMASimulator(...).run()`` on a context from ``get_context``, results
store off, one process), issued from here so the simulator's global event
count is readable without touching the program.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import common
import inputs
import prepare

#: Database sizes each warm workload loads.
WARM_SIZES = {"manycore_s7": (256,), "paper_8core": (8,)}
#: Passes a warm run makes at least, so per-input medians have three samples.
MIN_PASSES = 3
#: Cold starts a cold_start run makes at least.
MIN_COLD_STARTS = 3


@dataclass
class Outcome:
    """What one measured pass of a workload produced."""

    attempted: int = 0
    failed: int = 0
    settle_s: list = field(default_factory=list)   # per operation; inf = failed
    events: int = 0
    replay_s: float = 0.0                           # host seconds of library replays
    digest: str = ""
    counters: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)       # workload-specific end-to-end numbers
    layers: dict = field(default_factory=dict)      # per-layer metrics (traced only)
    client: dict = field(default_factory=dict)      # client-side HTTP timings (service only)
    peak_rss_mb: float = 0.0
    notes: list = field(default_factory=list)


def span(tracer, layer, name):
    return tracer.span(layer, name) if tracer is not None else nullcontext()


def request(tracer, rid):
    return tracer.request(rid) if tracer is not None else nullcontext()


def setup(workload: str, seed: int, prep: str, cache_dir: str, tracer=None):
    """The workload's set-up: contexts from a fresh cache, then its inputs.

    Returns ``(contexts, items)`` where ``items`` are
    ``(label, scenario, workload, spec)`` replays.
    """
    from repro.experiments.runner import get_context, set_result_cache

    set_result_cache(False)
    if workload == "cold_start":
        apps = sorted(common.APPS)
        with span(tracer, "scenarios", "generate"):
            cold = inputs.cold_scenarios(seed, apps)
        return {}, cold
    prepare.copy_databases(prep, cache_dir, WARM_SIZES[workload])
    (n,) = WARM_SIZES[workload]
    ctx = get_context(n, cache_dir=cache_dir, names=common.APPS)
    apps = ctx.db.benchmarks()
    with span(tracer, "scenarios", "generate"):
        if workload == "manycore_s7":
            spec = inputs.manycore_spec()
            items = [(sc.name, sc, sc.workload, spec)
                     for sc in inputs.manycore_scenarios(seed, apps)]
        else:
            items = [
                (f"{wl.name}/{spec.name}", sc, wl, spec)
                for sc, wl, spec in inputs.paper_items(seed, apps)
            ]
    return {n: ctx}, items


def host_slowdown(probes) -> tuple[float, int]:
    """Median host-speed probe relative to the reference machine's."""
    return common.median(probes) / common.REFERENCE_PROBE_S, len(probes)


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def replay_one(ctx, scenario, workload, spec):
    """One replay: ``(run, events, host seconds)``."""
    from repro.simulation.rma_sim import RMASimulator

    t0 = time.perf_counter()
    sim = RMASimulator(ctx.system, ctx.db, workload, spec.build(),
                       max_slices=ctx.max_slices, scenario=scenario)
    run = sim.run()
    return run, sim.events_simulated, time.perf_counter() - t0


def measure_warm(workload: str, seed: int, seconds: float, prep: str, run_dir: str,
                 tracer=None) -> Outcome:
    """Replay the seed's inputs in whole passes until ``seconds`` elapse.

    At least :data:`MIN_PASSES` passes run (one when ``seconds`` is 0).
    Every pass replays the same inputs and must reproduce the first pass's
    digests exactly.  Each input's host and settle times are its fastest
    pass, the best-of-N the repository's bench tools use: on a shared
    machine host speed drops by up to 2x for seconds at a time, and the
    fastest pass is the one such a drop missed.  ``events_per_s`` divides
    one pass's events by the summed per-input host times.  The run is one
    operation, the whole pass: it settles in the summed settle times of its
    replays, each scaled by a host-speed probe taken just before it
    (:func:`common.calibrated`).  One pass rather than one operation per
    scenario or shape: the slowest of the three S7 scenarios alone moved by
    27% across seeds, and the p50 and p95 of the five paper shapes by
    40-45%.  Peak RSS is read after the first pass, and the digest and work
    counters on record are those of one pass.
    """
    out = Outcome()
    contexts, items = setup(workload, seed, prep, os.path.join(run_dir, "cache"), tracer)
    (ctx,) = contexts.values()
    host = [[] for _ in items]
    settle = [[] for _ in items]
    first: list[str] | None = None
    min_passes = MIN_PASSES if seconds > 0 else 1
    start = time.perf_counter()
    passes = 0
    probes = []
    while passes < min_passes or fits(start, passes, seconds):
        digests, events, invocations = [], 0, 0
        for i, (label, scenario, wl, spec) in enumerate(items):
            out.attempted += 1
            probes.append(common.probe_s())
            with request(tracer, f"{label}#{passes}"):
                t0 = time.perf_counter()
                try:
                    run, n_events, host_s = replay_one(ctx, scenario, wl, spec)
                    digest = common.run_digest(run)
                except Exception as exc:  # a failed replay is a failed operation
                    out.failed += 1
                    settle[i].append(float("inf"))
                    host[i].append(float("inf"))
                    out.notes.append(f"{label}: {type(exc).__name__}: {exc}")
                    digests.append("failed")
                    continue
            settle[i].append(common.calibrated(time.perf_counter() - t0, probes[-1]))
            host[i].append(host_s)
            events += n_events
            invocations += run.rma_invocations
            digests.append(digest)
        if first is None:
            first = digests
            out.counters = {"events": events, "rma_invocations": invocations}
            out.peak_rss_mb = common.peak_rss_mb()
        elif digests != first:
            bad = sum(a != b for a, b in zip(digests, first))
            out.failed += bad
            out.notes.append(f"pass {passes}: {bad} replays differ from the first pass")
        passes += 1
    out.events = out.counters["events"]
    out.replay_s = sum(min(times) for times in host)
    out.settle_s = [sum(min(times) for times in settle)]
    out.digest = common.combine(first)
    out.extra["passes"] = (passes, passes)
    out.extra["host_slowdown"] = host_slowdown(probes)
    return out


def measure_cold(seed: int, seconds: float, run_dir: str, tracer=None) -> Outcome:
    """Cold starts until ``seconds`` elapse, at least :data:`MIN_COLD_STARTS`
    (one when ``seconds`` is 0): each builds the databases of
    :data:`inputs.COLD_SIZES` into an empty cache directory at the
    program's default fan-out and runs the first replay on each.

    ``cold_start_s`` (the builds plus the first replays), the build time
    and the first replays' host time are each the best of the run's cold
    starts, as in :func:`measure_warm`.  The one operation's settle time is
    the best cold start scaled by a host-speed probe taken just before it.
    """
    from repro.experiments.runner import get_context

    out = Outcome()
    _, cold = setup("cold_start", seed, "", "", tracer)
    first: list[str] | None = None
    colds, builds, replays, scaled, probes = [], [], [], [], []
    min_colds = MIN_COLD_STARTS if seconds > 0 else 1
    start = time.perf_counter()
    k = 0
    while k < min_colds or fits(start, k, seconds):
        cache = os.path.join(run_dir, f"cold-{k}")
        digests, elapsed, build_s, replay_s, events = [], 0.0, 0.0, 0.0, 0
        failed = False
        probes.append(common.probe_s(repeats=5))
        for n in inputs.COLD_SIZES:
            out.attempted += 1
            scenario, spec = cold[n]
            try:
                with request(tracer, f"cold-{n}#{k}"):
                    t0 = time.perf_counter()
                    ctx = get_context(n, cache_dir=cache, names=common.APPS)
                    t1 = time.perf_counter()
                    run, n_events, host_s = replay_one(ctx, scenario, scenario.workload, spec)
                    elapsed += time.perf_counter() - t0
                build_s += t1 - t0
                digests += [common.database_digest(ctx.db), common.run_digest(run)]
            except Exception as exc:  # a failed build or replay fails the cold start
                out.failed += 1
                out.notes.append(f"cold start {n}-core: {type(exc).__name__}: {exc}")
                failed = True
                break
            replay_s += host_s
            events += n_events
        common.remove_tree(cache)
        if not failed:
            colds.append(elapsed)
            scaled.append(common.calibrated(elapsed, probes[-1]))
            builds.append(build_s)
            replays.append(replay_s)
            if first is None:
                first = digests
                out.counters = {"events": events}
                out.peak_rss_mb = common.peak_rss_mb()
            elif digests != first:
                out.failed += 1
                out.notes.append(f"cold start {k}: digests differ from the first cold start")
        k += 1
    out.digest = common.combine(first or ["failed"])
    if colds:
        out.events = out.counters["events"]
        out.replay_s = min(replays)
        out.settle_s = [min(scaled)]
        out.extra["cold_start_s"] = (min(colds), len(colds))
        out.extra["database_build_s"] = (min(builds), len(builds))
        out.extra["host_slowdown"] = host_slowdown(probes)
    else:
        out.settle_s = [float("inf")]
    return out
