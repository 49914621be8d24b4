"""Scenario generators: stochastic processes over apps, cores and QoS.

Every generator derives all randomness from :func:`repro.util.rng.rng_for`
with a ``("scenario", kind, name, seed)`` key, so a (name, seed) pair fully
determines the event stream -- across processes, platforms and
``REPRO_PROCESSES`` settings.  Times are expressed in nanoseconds;
``DEFAULT_INTERVAL_NS`` is the nominal duration of one 100 M-instruction
interval at the baseline setting (measured across the benchmark catalogue),
used to convert "every k intervals"-style knobs into wall-clock times.

Generators take the *app pool* explicitly (usually
``db.benchmarks()``) so scenarios never reference benchmarks missing from
the simulation database.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.global_opt import partition_clusters
from repro.scenarios.events import Scenario, ScenarioEvent
from repro.util.rng import rng_for
from repro.util.validation import require
from repro.workloads.mixes import Workload

__all__ = [
    "DEFAULT_INTERVAL_NS",
    "poisson_arrivals",
    "trace_arrivals",
    "churn",
    "qos_ramp",
    "burst_load",
    "cluster_churn",
    "skewed_load",
]

#: Nominal wall-clock length of one execution interval at the baseline
#: allocation (catalogue benchmarks measure 0.3-1.5e8 ns; this is the mean).
DEFAULT_INTERVAL_NS = 8.0e7


def _initial_workload(
    name: str, ncores: int, apps: Sequence[str], rng, slack: float = 0.0
) -> Workload:
    require(len(apps) >= 1, "app pool must not be empty")
    picks = tuple(apps[int(i)] for i in rng.integers(0, len(apps), size=ncores))
    return Workload(name=name, apps=picks, slack=tuple(slack for _ in range(ncores)))


def poisson_arrivals(
    name: str,
    ncores: int,
    apps: Sequence[str],
    rate_per_interval: float = 0.25,
    horizon_intervals: int = 64,
    seed: int = 0,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    slack: float = 0.0,
) -> Scenario:
    """Open system: tenants arrive as a Poisson process and preempt cores.

    Arrivals form a Poisson process with ``rate_per_interval`` expected
    arrivals per nominal interval; each arrival draws an app from the pool
    and lands on the least-recently-retenanted core (FIFO eviction), the
    standard open-system placement policy.
    """
    require(rate_per_interval > 0.0, "arrival rate must be positive")
    rng = rng_for("scenario", "poisson", name, seed)
    workload = _initial_workload(name, ncores, apps, rng, slack)
    # Wall-clock span over which the horizon's intervals roughly spread.
    duration_ns = horizon_intervals * interval_ns / ncores
    tenancy_since = {j: 0.0 for j in range(ncores)}
    events: list[ScenarioEvent] = []
    t = 0.0
    while True:
        t += float(rng.exponential(interval_ns / rate_per_interval))
        if t >= duration_ns:
            break
        core = min(tenancy_since, key=lambda j: (tenancy_since[j], j))
        tenancy_since[core] = t
        app = apps[int(rng.integers(0, len(apps)))]
        events.append(ScenarioEvent(time_ns=t, core=core, kind="swap", app=app))
    return Scenario(
        name=name, workload=workload, events=tuple(events),
        horizon_intervals=horizon_intervals,
    )


def trace_arrivals(
    name: str,
    workload: Workload,
    trace: Iterable[tuple[float, int, str]],
    horizon_intervals: int = 64,
) -> Scenario:
    """Trace-driven arrivals: replay an explicit ``(time_ns, core, app)`` log.

    The hook for production traces: any recorded placement log (e.g. a
    cluster scheduler trace) becomes a scenario by listing who landed where,
    when.  Entries are sorted by time before conversion.
    """
    entries = sorted(trace, key=lambda e: (float(e[0]), int(e[1])))
    events = tuple(
        ScenarioEvent(time_ns=float(t), core=int(core), kind="swap", app=app)
        for t, core, app in entries
    )
    return Scenario(
        name=name, workload=workload, events=events,
        horizon_intervals=horizon_intervals,
    )


def churn(
    name: str,
    ncores: int,
    apps: Sequence[str],
    cycles: int = 6,
    idle_intervals: float = 2.0,
    horizon_intervals: int = 64,
    seed: int = 0,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    slack: float = 0.0,
) -> Scenario:
    """Application churn: tenants leave cores idle, replacements arrive later.

    ``cycles`` sequential depart->idle->arrive cycles, each on an
    rng-chosen core: the tenant departs, the core idles (power-gated) for
    roughly ``idle_intervals`` nominal intervals, then a fresh app from the
    pool moves in.  Cycles are sequential, so at most one core is idle at a
    time and the system never fully drains.
    """
    require(cycles >= 1, "need at least one churn cycle")
    rng = rng_for("scenario", "churn", name, seed)
    workload = _initial_workload(name, ncores, apps, rng, slack)
    duration_ns = horizon_intervals * interval_ns / ncores
    gap_ns = duration_ns / (cycles + 1)
    events: list[ScenarioEvent] = []
    t = 0.0
    for _ in range(cycles):
        t += float(rng.uniform(0.5, 1.0)) * gap_ns
        core = int(rng.integers(0, ncores))
        idle_ns = float(rng.exponential(idle_intervals * interval_ns))
        app = apps[int(rng.integers(0, len(apps)))]
        events.append(ScenarioEvent(time_ns=t, core=core, kind="depart"))
        events.append(
            ScenarioEvent(time_ns=t + idle_ns, core=core, kind="swap", app=app)
        )
        t += idle_ns
    events.sort(key=lambda ev: (ev.time_ns, ev.core))
    return Scenario(
        name=name, workload=workload, events=tuple(events),
        horizon_intervals=horizon_intervals,
    )


def qos_ramp(
    name: str,
    ncores: int,
    apps: Sequence[str],
    start_slack: float = 0.4,
    end_slack: float = 0.0,
    steps: int = 4,
    horizon_intervals: int = 64,
    seed: int = 0,
    interval_ns: float = DEFAULT_INTERVAL_NS,
) -> Scenario:
    """Per-app QoS-target schedule: slack ramps from start to end over time.

    Every core's allowed slowdown moves linearly from ``start_slack`` to
    ``end_slack`` in ``steps`` evenly spaced steps -- tightening targets when
    ``end_slack < start_slack`` (e.g. a latency SLO hardening as traffic
    grows), relaxing them otherwise.  The static workload isolates the QoS
    axis: only targets change, tenancy does not.
    """
    require(steps >= 1, "need at least one ramp step")
    require(start_slack >= 0.0 and end_slack >= 0.0, "slack must be non-negative")
    rng = rng_for("scenario", "qos-ramp", name, seed)
    workload = _initial_workload(name, ncores, apps, rng, start_slack)
    duration_ns = horizon_intervals * interval_ns / ncores
    events: list[ScenarioEvent] = []
    for k in range(1, steps + 1):
        frac = k / steps
        slack = start_slack + (end_slack - start_slack) * frac
        t = frac * duration_ns * 0.9  # last step lands inside the horizon
        for core in range(ncores):
            events.append(
                ScenarioEvent(time_ns=t, core=core, kind="slack", slack=round(slack, 6))
            )
    return Scenario(
        name=name, workload=workload, events=tuple(events),
        horizon_intervals=horizon_intervals,
    )


def burst_load(
    name: str,
    ncores: int,
    apps: Sequence[str],
    burst_start_intervals: float = 4.0,
    burst_length_intervals: float = 16.0,
    horizon_intervals: int = 64,
    seed: int = 0,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    slack: float = 0.0,
) -> Scenario:
    """Load ramp: a single tenant, a burst filling every core, then a drain.

    The system starts with one active core.  At ``burst_start_intervals``
    the remaining cores fill with arrivals in quick succession (the ramp);
    after ``burst_length_intervals`` they drain back off one by one, leaving
    the original tenant alone again -- the canonical diurnal-peak shape.
    """
    require(ncores >= 2, "burst load needs at least two cores")
    rng = rng_for("scenario", "burst", name, seed)
    workload = _initial_workload(name, ncores, apps, rng, slack)
    active = tuple(j == 0 for j in range(ncores))
    t_burst = burst_start_intervals * interval_ns
    t_drain = t_burst + burst_length_intervals * interval_ns
    events: list[ScenarioEvent] = []
    for j in range(1, ncores):
        jitter = float(rng.uniform(0.0, 0.25)) * interval_ns
        app = apps[int(rng.integers(0, len(apps)))]
        events.append(
            ScenarioEvent(time_ns=t_burst + jitter, core=j, kind="swap", app=app)
        )
        drain_jitter = float(rng.uniform(0.0, 2.0)) * interval_ns
        events.append(
            ScenarioEvent(time_ns=t_drain + drain_jitter, core=j, kind="depart")
        )
    events.sort(key=lambda ev: (ev.time_ns, ev.core))
    return Scenario(
        name=name, workload=workload, events=tuple(events),
        horizon_intervals=horizon_intervals, active=active,
    )


def cluster_churn(
    name: str,
    ncores: int,
    apps: Sequence[str],
    cluster_size: int = 8,
    cycles: int = 4,
    idle_intervals: float = 2.0,
    horizon_intervals: int = 256,
    seed: int = 0,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    slack: float = 0.0,
) -> Scenario:
    """Whole clusters drain and refill together (many-core S5 shape).

    Models group scheduling on a many-core part: a cluster scheduler
    places and evicts *groups* of tenants -- a rack slice, a VM pool, a
    batch-job gang -- so entire ``cluster_size``-core blocks of the machine
    empty out (power-gated) and later refill with fresh applications.  Each
    of the ``cycles`` sequential cycles picks one cluster at random, departs
    all its cores at jittered times, idles it for roughly
    ``idle_intervals`` nominal intervals, then re-tenants every core with a
    fresh app from the pool.

    For hierarchical managers this is the worst-case splice pattern: a
    whole cluster's aggregate curve collapses to idle leaves and later
    rebuilds, while the other clusters' subtrees must stay cached.  Per-core
    event times are clamped monotone, so the stream is always a valid
    request sequence regardless of the cycle/idle randomness.
    """
    require(cycles >= 1, "need at least one churn cycle")
    require(1 <= cluster_size <= ncores, "cluster size must be within the system")
    rng = rng_for("scenario", "cluster-churn", name, seed)
    workload = _initial_workload(name, ncores, apps, rng, slack)
    # The manager's own partitioning rule, so drained blocks always align
    # with the coordinated manager's clusters of the same size.
    clusters = partition_clusters(ncores, cluster_size)
    duration_ns = horizon_intervals * interval_ns / ncores
    gap_ns = duration_ns / (cycles + 1)
    events: list[ScenarioEvent] = []
    last: dict[int, float] = {}

    def emit(t: float, core: int, kind: str, app: str | None = None) -> None:
        t = max(t, last.get(core, 0.0))
        last[core] = t
        events.append(ScenarioEvent(time_ns=t, core=core, kind=kind, app=app))

    t = 0.0
    for _ in range(cycles):
        t += float(rng.uniform(0.5, 1.0)) * gap_ns
        members = clusters[int(rng.integers(0, len(clusters)))]
        idle_ns = float(rng.exponential(idle_intervals * interval_ns))
        for core in members:
            jitter = float(rng.uniform(0.0, 0.25)) * interval_ns
            emit(t + jitter, core, "depart")
            app = apps[int(rng.integers(0, len(apps)))]
            refill = float(rng.uniform(0.0, 0.5)) * interval_ns
            emit(t + jitter + idle_ns + refill, core, "swap", app)
        t += idle_ns
    events.sort(key=lambda ev: (ev.time_ns, ev.core))
    return Scenario(
        name=name, workload=workload, events=tuple(events),
        horizon_intervals=horizon_intervals,
    )


def skewed_load(
    name: str,
    ncores: int,
    apps: Sequence[str],
    hot_fraction: float = 0.25,
    swaps_per_hot_core: int = 3,
    hot_slack: float = 0.0,
    cold_slack: float = 0.3,
    horizon_intervals: int = 256,
    seed: int = 0,
    interval_ns: float = DEFAULT_INTERVAL_NS,
) -> Scenario:
    """A hot minority of cores under pressure, a relaxed majority (S6 shape).

    The first ``hot_fraction`` of the cores -- contiguous, so the heat
    concentrates in a few clusters of a hierarchical manager -- run under
    strict QoS (``hot_slack``) and are re-tenanted ``swaps_per_hot_core``
    times at random points of the run, while the cold majority keeps its
    initial tenants with a generous ``cold_slack``.  The shape a skewed
    production fleet shows: a few latency-critical services churning under
    tight SLOs amid a sea of batch work.

    This is the scenario that exercises *inter-cluster* way redistribution:
    cold clusters' curves are nearly flat in ways (their slack admits low
    frequencies at small allocations), so the second-level combine should
    hand their capacity to the hot clusters.
    """
    require(0.0 < hot_fraction <= 1.0, "hot fraction must be in (0, 1]")
    require(swaps_per_hot_core >= 0, "swap count must be non-negative")
    rng = rng_for("scenario", "skewed", name, seed)
    require(len(apps) >= 1, "app pool must not be empty")
    nhot = max(1, int(round(hot_fraction * ncores)))
    picks = tuple(apps[int(i)] for i in rng.integers(0, len(apps), size=ncores))
    slack = tuple(hot_slack if j < nhot else cold_slack for j in range(ncores))
    workload = Workload(name=name, apps=picks, slack=slack)
    duration_ns = horizon_intervals * interval_ns / ncores
    events: list[ScenarioEvent] = []
    for core in range(nhot):
        times = sorted(
            float(rng.uniform(0.1, 0.9)) * duration_ns
            for _ in range(swaps_per_hot_core)
        )
        for t in times:
            app = apps[int(rng.integers(0, len(apps)))]
            events.append(ScenarioEvent(time_ns=t, core=core, kind="swap", app=app))
    events.sort(key=lambda ev: (ev.time_ns, ev.core))
    return Scenario(
        name=name, workload=workload, events=tuple(events),
        horizon_intervals=horizon_intervals,
    )
