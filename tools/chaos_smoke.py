#!/usr/bin/env python
"""Seeded chaos smoke: fault storms must heal to bit-identical results.

The CI ``chaos-smoke`` job's driver.  It runs three storms over the same
six jobs as ``tools/service_smoke.py`` (the smoke pair plus the restart
burst), each storm being a cold pass and a warm pass over one results
store:

* a **clean** storm (no fault plan) that produces the reference hashes;
* two **faulty** storms with the *same* deterministic fault plan
  (``--seed``, default 1337): worker crashes, hangs (tripping the
  per-attempt watchdog), slow dispatches, results-store put failures,
  journal torn writes and fsync errors during the cold pass, injected SSE
  client disconnects against a live HTTP server, and a corrupted
  store entry (digest-verified, quarantined, re-simulated) during the
  warm pass.

Gates, per faulty storm:

* every job settles ``done`` with a ``result_hash`` byte-identical to the
  clean storm **and** to the committed service-smoke baseline
  (``benchmarks/_artifacts/baselines/BENCH_service_smoke.json``);
* total attempts stay within ``jobs x (1 + max_retries)`` -- no retry
  storms -- and retry/watchdog counters equal the plan's actual
  crash/hang fires exactly;
* the warm pass quarantines exactly one poisoned entry and re-simulates
  only what the storm kept out of the store;
* both SSE disconnects are swallowed and counted, and a third stream
  completes;
* and the two faulty storms -- same seed, fresh directories -- emit
  **identical journal event sequences**, the determinism contract that
  makes any chaos failure replayable from its seed alone.

The storm's crash+hang fire budget (3) never exceeds the service's retry
budget (``max_retries=3``), which is what guarantees settlement for *any*
seed -- the same invariant the hypothesis property in
``tests/test_service_chaos.py`` checks across random seeds.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py [--seed N] [--cache-dir PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import urllib.request

# Pin bench-smoke fidelity before any repro import reads the knobs.
os.environ.setdefault("REPRO_MAX_SLICES", "12")
os.environ.setdefault("REPRO_ACCESSES_PER_SET", "400")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _bench_common import BENCHMARK_SUBSET, CHAOS_REPORT, write_artifact  # noqa: E402
from service_smoke import BASELINE_PATH, RESTART_JOBS, SMOKE_JOBS  # noqa: E402

from repro.experiments.runner import (  # noqa: E402
    DEFAULT_CACHE_DIR,
    ExperimentContext,
    get_context,
)
from repro.service import ReplayService, faults, make_server  # noqa: E402
from repro.service.faults import FaultPlan, FaultRule  # noqa: E402
from repro.simulation.results_store import ResultsStore  # noqa: E402

#: The chaos population: the service smoke's six distinct S1 jobs.
CHAOS_JOBS = {**SMOKE_JOBS, **RESTART_JOBS}

MAX_RETRIES = 3
JOB_TIMEOUT_S = 4.0
#: Injected hang duration; must exceed the watchdog deadline.
HANG_S = 6.0
JOB_WAIT_S = 300.0


def _storm_plan(seed: int) -> FaultPlan:
    """The cold-pass fault plan: crash+hang budget (3) == ``MAX_RETRIES``."""
    return FaultPlan(
        seed,
        [
            FaultRule(faults.EXECUTOR_CRASH, rate=0.4, max_fires=2),
            FaultRule(faults.EXECUTOR_HANG, rate=0.2, max_fires=1, param=HANG_S),
            FaultRule(faults.EXECUTOR_SLOW, rate=0.3, max_fires=2, param=0.05),
            FaultRule(faults.STORE_PUT_FAIL, rate=0.4, max_fires=2),
            FaultRule(faults.JOURNAL_TORN_WRITE, rate=0.3, max_fires=2),
            FaultRule(faults.JOURNAL_FSYNC, rate=0.3, max_fires=2),
            FaultRule(faults.SSE_DISCONNECT, rate=1.0, max_fires=2),
        ],
    )


def _warm_plan(seed: int) -> FaultPlan:
    """The warm-pass plan: poison exactly one stored entry on load."""
    return FaultPlan(seed + 1, [FaultRule(faults.STORE_LOAD_CORRUPT, rate=1.0, max_fires=1)])


def _make_factory(base_ctx: ExperimentContext, root: str):
    """Per-storm context factory: shared database, private results store."""

    def factory(ncores: int) -> ExperimentContext:
        if ncores != base_ctx.system.ncores:
            raise ValueError(f"chaos jobs are all {base_ctx.system.ncores}-core")
        return ExperimentContext(
            system=base_ctx.system,
            db=base_ctx.db,
            max_slices=base_ctx.max_slices,
            results_store=ResultsStore(os.path.join(root, "results")),
        )

    return factory


def _make_service(factory, journal_dir: str) -> ReplayService:
    # workers=1 + autostart=False: submit everything, then run -- the
    # journal event order becomes a pure function of the fault seed.
    return ReplayService(
        context_factory=factory,
        workers=1,
        journal=journal_dir,
        max_retries=MAX_RETRIES,
        job_timeout_s=JOB_TIMEOUT_S,
        backoff_base_s=0.02,
        backoff_cap_s=0.2,
        autostart=False,
    )


def _post_json(url: str, payload: dict, timeout: float = 30.0) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.load(resp)


def _read_stream(base: str, job_id: str) -> str:
    """One SSE consumption; injected disconnects surface as truncation."""
    try:
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/stream?batch=64", timeout=60.0) as resp:
            return resp.read().decode(errors="replace")
    except OSError as exc:
        return f"<aborted: {exc}>"


def _journal_sequence(journal_dir: str) -> list[tuple]:
    """The journal's ``(event, job_id, attempt)`` sequence, in write order."""
    path = os.path.join(journal_dir, "journal.jsonl")
    seq = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # an injected torn write, healed on the next line
            seq.append((record["event"], record["job_id"], record.get("attempt")))
    return seq


def _run_storm(
    name: str,
    root: str,
    base_ctx: ExperimentContext,
    failures: list[str],
    plan: FaultPlan | None,
    warm_plan: FaultPlan | None,
) -> dict:
    """One cold+warm storm; returns hashes, counters and the journal trace."""
    factory = _make_factory(base_ctx, root)
    out: dict = {"name": name}

    # ---- cold pass: HTTP submissions against an empty store ------------------
    svc = _make_service(factory, os.path.join(root, "journal-cold"))
    server = make_server(svc)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    try:
        with faults.installed(plan) if plan is not None else _noop():
            ids = {
                label: _post_json(base + "/jobs", body)["job_id"]
                for label, body in CHAOS_JOBS.items()
            }
            svc.start()
            hashes = {}
            for label, job_id in ids.items():
                job = svc.get_job(job_id)
                if not job.wait(JOB_WAIT_S) or job.status != "done":
                    failures.append(
                        f"{name}/{label}: never settled done "
                        f"(status={job.status}, error={job.error})"
                    )
                    continue
                hashes[label] = job.result_hash

            # SSE: the plan's two injected disconnects truncate the first two
            # streams; the third (budget spent) must complete.
            first_id = next(iter(ids.values()))
            streams = [_read_stream(base, first_id) for _ in range(3)]
            expected_cuts = 0
            if plan is not None:
                expected_cuts = plan.report()[faults.SSE_DISCONNECT]["fires"]
                if expected_cuts != 2:
                    failures.append(f"{name}: SSE disconnect budget misfired ({expected_cuts})")
                if any("event: done" in s for s in streams[:2]):
                    failures.append(f"{name}: an injected-disconnect stream completed")
            if "event: done" not in streams[-1]:
                failures.append(f"{name}: final SSE stream did not complete")
            deadline = time.monotonic() + 10.0
            while svc.client_disconnects < expected_cuts and time.monotonic() < deadline:
                time.sleep(0.05)
            if svc.client_disconnects != expected_cuts:
                failures.append(
                    f"{name}: client_disconnects={svc.client_disconnects}, "
                    f"expected {expected_cuts}"
                )

            out["hashes"] = hashes
            out["attempts_total"] = svc.attempts_total
            out["jobs_retried"] = svc.jobs_retried
            out["watchdog_timeouts"] = svc.watchdog_timeouts
            out["jobs_failed"] = svc.jobs_failed
            out["store_put_errors"] = svc.store_put_errors
            out["health_cold"] = svc.health()["status"]
            if svc.attempts_total > len(CHAOS_JOBS) * (1 + MAX_RETRIES):
                failures.append(
                    f"{name}: retry storm -- {svc.attempts_total} attempts for "
                    f"{len(CHAOS_JOBS)} jobs (budget {1 + MAX_RETRIES} each)"
                )
            if svc.jobs_failed:
                failures.append(f"{name}: {svc.jobs_failed} jobs settled failed")
            if plan is not None:
                report = plan.report()
                crash = report[faults.EXECUTOR_CRASH]["fires"]
                hang = report[faults.EXECUTOR_HANG]["fires"]
                out["fault_fires"] = {
                    site: stats["fires"] for site, stats in report.items()
                }
                if svc.jobs_retried != crash + hang:
                    failures.append(
                        f"{name}: jobs_retried={svc.jobs_retried} != "
                        f"crash+hang fires {crash + hang}"
                    )
                if svc.watchdog_timeouts != hang:
                    failures.append(
                        f"{name}: watchdog_timeouts={svc.watchdog_timeouts} != "
                        f"hang fires {hang}"
                    )
                if svc.store_put_errors != report[faults.STORE_PUT_FAIL]["fires"]:
                    failures.append(
                        f"{name}: store_put_errors={svc.store_put_errors} != "
                        f"put-fail fires"
                    )
    finally:
        server.shutdown()
        server.server_close()
        svc.close()

    # ---- warm pass: same store, fresh service+journal; poisoned load heals ---
    svc2 = _make_service(factory, os.path.join(root, "journal-warm"))
    try:
        with faults.installed(warm_plan) if warm_plan is not None else _noop():
            jobs2 = {
                label: svc2.submit(dict(body)) for label, body in CHAOS_JOBS.items()
            }
            svc2.start()
            for label, job in jobs2.items():
                if not job.wait(JOB_WAIT_S) or job.status != "done":
                    failures.append(f"{name}/{label}: warm pass did not settle done")
                elif job.result_hash != out["hashes"].get(label):
                    failures.append(
                        f"{name}/{label}: warm hash {job.result_hash} != cold "
                        f"{out['hashes'].get(label)}"
                    )
            quarantined = svc2.health()["store_quarantined"]
            out["warm_quarantined"] = quarantined
            out["warm_simulations"] = svc2.simulations
            if warm_plan is not None:
                # Exactly one poisoned entry heals; the only other replays are
                # the jobs whose cold-pass persist was fault-injected away.
                expected_sims = 1 + out.get("store_put_errors", 0)
                if quarantined != 1:
                    failures.append(f"{name}: warm quarantined={quarantined}, expected 1")
                if svc2.simulations != expected_sims:
                    failures.append(
                        f"{name}: warm simulations={svc2.simulations}, "
                        f"expected {expected_sims} (1 quarantined + "
                        f"{out.get('store_put_errors', 0)} unpersisted)"
                    )
            elif svc2.simulations != 0:
                failures.append(f"{name}: clean warm pass re-simulated {svc2.simulations} jobs")
    finally:
        svc2.close()

    cold_seq = _journal_sequence(os.path.join(root, "journal-cold"))
    warm_seq = _journal_sequence(os.path.join(root, "journal-warm"))
    out["journal_sequence"] = cold_seq + warm_seq

    # An abandoned (watchdog'd) hang attempt may still be sleeping on a
    # disposable thread; let it unwind while no plan is installed so it
    # cannot consume the *next* storm's fault decisions.
    if out.get("watchdog_timeouts"):
        time.sleep(HANG_S - JOB_TIMEOUT_S + 0.5)
    return out


class _noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _gate_against_baseline(hashes: dict, failures: list[str]) -> None:
    """Faulty-storm hashes must equal the committed service-smoke baseline."""
    if not os.path.exists(BASELINE_PATH):
        failures.append(
            f"no committed baseline at {BASELINE_PATH}; "
            "run tools/service_smoke.py --update first"
        )
        return
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    sections = {**baseline.get("jobs", {}), **baseline.get("restart_jobs", {})}
    for label, fresh in hashes.items():
        want = sections.get(label, {}).get("result_hash")
        if fresh != want:
            failures.append(f"{label}: chaos hash {fresh} != baseline {want}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    args = parser.parse_args(argv)

    budget = _storm_plan(args.seed).failure_budget()
    assert budget == MAX_RETRIES, (budget, MAX_RETRIES)

    base_ctx = get_context(4, cache_dir=args.cache_dir, names=list(BENCHMARK_SUBSET))
    work = tempfile.mkdtemp(prefix="chaos-smoke-")
    failures: list[str] = []
    started = time.monotonic()
    try:
        print("=== storm: clean (reference) ===", flush=True)
        clean = _run_storm("clean", os.path.join(work, "clean"), base_ctx, failures, None, None)
        storms = []
        for run in (1, 2):
            print(f"=== storm: faulty-{run} (seed {args.seed}) ===", flush=True)
            storms.append(
                _run_storm(
                    f"faulty-{run}",
                    os.path.join(work, f"faulty-{run}"),
                    base_ctx,
                    failures,
                    _storm_plan(args.seed),
                    _warm_plan(args.seed),
                )
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for storm in storms:
        for label, reference in clean["hashes"].items():
            if storm["hashes"].get(label) != reference:
                failures.append(
                    f"{storm['name']}/{label}: hash {storm['hashes'].get(label)} "
                    f"!= fault-free {reference}"
                )
        _gate_against_baseline(storm["hashes"], failures)
        print(
            f"{storm['name']}: attempts={storm['attempts_total']} "
            f"retried={storm['jobs_retried']} watchdog={storm['watchdog_timeouts']} "
            f"put_errors={storm['store_put_errors']} "
            f"quarantined={storm['warm_quarantined']} "
            f"fires={storm.get('fault_fires')}"
        )
    if storms[0]["journal_sequence"] != storms[1]["journal_sequence"]:
        failures.append(
            "same-seed storms diverged: journal event sequences differ "
            f"({len(storms[0]['journal_sequence'])} vs "
            f"{len(storms[1]['journal_sequence'])} events)"
        )
    else:
        print(
            f"journal determinism: {len(storms[0]['journal_sequence'])} events, "
            "identical across both seeded storms"
        )
    if sum(storms[0].get("fault_fires", {}).values()) < 1:
        failures.append(f"seed {args.seed} injected no faults at all; pick another")

    report = {
        "benchmark": "chaos_smoke",
        "seed": args.seed,
        "max_retries": MAX_RETRIES,
        "duration_s": round(time.monotonic() - started, 3),
        "reference_hashes": clean["hashes"],
        "storms": [
            {k: v for k, v in storm.items() if k != "journal_sequence"}
            for storm in storms
        ],
        "journal_events": len(storms[0]["journal_sequence"]),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_artifact(CHAOS_REPORT, report)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"chaos smoke OK (seed {args.seed}, {report['duration_s']}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
