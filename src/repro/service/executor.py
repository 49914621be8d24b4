"""Replay executors: where one accepted job's simulation actually runs.

The worker pool in :mod:`repro.service.pool` is N *threads* draining the
admission queue; an executor decides what those threads block on:

* :class:`ThreadExecutor` -- run the replay in the worker thread itself
  (through the runner's serial ``parallel_map`` path).  Zero setup cost,
  but concurrent CPU-bound replays share one GIL.
* :class:`ProcessPoolExecutor` -- dispatch the replay to a persistent
  ``multiprocessing`` pool (one pool per system size, built with the same
  spawn-safe ``_init_worker`` protocol every batch driver uses), so
  concurrent jobs get real CPU parallelism.  The worker process runs
  exactly ``_run_one`` / ``_run_one_scenario`` -- the library's own replay
  entry points -- and returns the :class:`RunResult`, as
  ``ExperimentContext._resolve`` does for a batch fan-out.  Bit-identity
  with the thread path is therefore structural.

No executor touches the results store: the service worker thread that
called :meth:`run` is the one writer, whichever executor served the job.

A third wrapper, :class:`FailoverExecutor`, adds the self-healing tier:
a :class:`CircuitBreaker` counts consecutive primary-executor failures
(worker deaths) and, after ``trip_after`` of them, *opens* -- routing jobs
to a fallback executor (the in-process :class:`ThreadExecutor`) so the
service degrades to single-process operation instead of feeding jobs to a
dying pool.  After ``cooldown_jobs`` fallback runs the breaker goes
*half-open* and probes the primary with one job: success closes the
circuit, failure re-opens it.  The breaker is deterministic in job counts
(no wall clock), so chaos storms reproduce its transitions exactly.
``make_executor("process")`` always wraps the process pool in a failover.

Both base executors are selected per service instance
(``ReplayService(executor=...)``, ``tools/serve.py --executor``) and
produce byte-identical results; ``tests/test_service_concurrency.py``
runs the 16-job S1-S7 storm through both and compares every hash.  Each
executor consults the active fault plan (:mod:`repro.service.faults`)
before dispatching: the ``executor.crash`` / ``executor.hang`` /
``executor.slow`` sites inject worker deaths, watchdog-tripping hangs and
bounded latency on the dispatching side of the process boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

from repro.experiments.runner import (
    ExperimentContext,
    ManagerSpec,
    _init_worker,
    _run_one,
    _run_one_scenario,
)
from repro.scenarios.events import Scenario
from repro.service import faults
from repro.simulation.metrics import RunResult
from repro.workloads.mixes import Workload

__all__ = [
    "ThreadExecutor",
    "ProcessPoolExecutor",
    "FailoverExecutor",
    "CircuitBreaker",
    "make_executor",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("thread", "process")

#: Default hang duration (seconds) for ``executor.hang`` rules without an
#: explicit ``param`` -- comfortably past any sane watchdog timeout.
DEFAULT_HANG_S = 30.0


def _inject_dispatch_faults() -> None:
    """Consult the active fault plan at the executor dispatch sites.

    Order matters for determinism: crash, then hang, then slow -- a fired
    crash never consults the later sites for that dispatch, and the
    per-site invocation counters advance identically on every same-seed
    run.
    """
    rule = faults.fire(faults.EXECUTOR_CRASH)
    if rule is not None:
        raise faults.InjectedWorkerCrash("injected worker crash at dispatch")
    rule = faults.fire(faults.EXECUTOR_HANG)
    if rule is not None:
        time.sleep(rule.param or DEFAULT_HANG_S)
    rule = faults.fire(faults.EXECUTOR_SLOW)
    if rule is not None:
        time.sleep(rule.param or 0.05)


class ThreadExecutor:
    """Run replays inline on the service worker thread (the PR-6 behaviour)."""

    name = "thread"

    def run(
        self,
        ctx: ExperimentContext,
        job_id: str,
        item: Scenario | Workload,
        manager: ManagerSpec,
    ) -> RunResult:
        """Execute one replay in the calling thread.

        Routed through the *pool module's* ``_execute_replay`` global, so
        the crash-containment tests keep a single monkeypatch point no
        matter which executor the service was built with.
        """
        from repro.service import pool

        _inject_dispatch_faults()
        return pool._execute_replay(ctx, item, manager)

    def recycle(self, ctx: ExperimentContext) -> None:
        """Nothing to recycle: the abandoned attempt thread *is* the worker."""

    def close(self) -> None:
        """Nothing to release: the executor owns no processes."""


class ProcessPoolExecutor:
    """Persistent per-system-size process pools for CPU-parallel replays.

    ``processes`` bounds each pool's worker count (defaults to the service
    worker-thread count, so every thread can be running a job at once).
    Pools start with :func:`repro.util.parallel.parallel_map`'s method
    (``fork`` where available, else ``spawn``); the context is shipped to
    workers via pickled ``initargs`` either way, which is what makes the
    protocol spawn-safe.
    """

    name = "process"

    def __init__(self, processes: int = 2) -> None:
        if processes < 1:
            raise ValueError("process executor needs at least one process")
        self.processes = processes
        self._pools: dict[int, mp.pool.Pool] = {}
        self._lock = threading.Lock()
        self._closed = False

    def _pool_for(self, ctx: ExperimentContext) -> mp.pool.Pool:
        key = ctx.system.ncores
        with self._lock:
            if self._closed:
                raise RuntimeError("process executor is closed")
            pool = self._pools.get(key)
            if pool is None:
                method = "fork" if hasattr(os, "fork") else "spawn"
                pool = mp.get_context(method).Pool(
                    processes=self.processes,
                    initializer=_init_worker,
                    initargs=(ctx,),
                )
                self._pools[key] = pool
        return pool

    def run(
        self,
        ctx: ExperimentContext,
        job_id: str,
        item: Scenario | Workload,
        manager: ManagerSpec,
    ) -> RunResult:
        """Dispatch one replay to the pool serving ``ctx``'s system size.

        Fault sites are consulted on the dispatching (parent) side: a
        fired ``executor.crash`` models the pool losing its worker before
        the result crosses back, a fired hang models a wedged worker the
        parent never hears from -- both are what the service's watchdog
        and retry machinery must absorb.
        """
        _inject_dispatch_faults()
        worker = _run_one_scenario if isinstance(item, Scenario) else _run_one
        return self._pool_for(ctx).apply(worker, ((item, manager, ctx.max_slices),))

    def recycle(self, ctx: ExperimentContext) -> None:
        """Tear down the pool serving ``ctx`` (hung worker recovery).

        Called by the service watchdog when an attempt timed out: the
        wedged pool is terminated and dropped, and the next dispatch for
        this system size lazily builds a fresh one -- the process-pool
        equivalent of recycling a hung worker.
        """
        key = ctx.system.ncores
        with self._lock:
            pool = self._pools.pop(key, None)
        if pool is not None:
            pool.terminate()
            pool.join()

    def close(self) -> None:
        """Terminate and join every pool (idempotent)."""
        with self._lock:
            self._closed = True
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.terminate()
            pool.join()


class CircuitBreaker:
    """Consecutive-failure circuit breaker, deterministic in job counts.

    States and transitions (``tests/test_faults.py`` pins them):

    * ``closed`` -- primary serves traffic; ``trip_after`` *consecutive*
      failures open the circuit (any success resets the streak).
    * ``open`` -- primary is bypassed; after ``cooldown_jobs`` bypassed
      runs the breaker moves to ``half_open``.
    * ``half_open`` -- exactly one probe is routed to the primary (other
      concurrent jobs keep bypassing); probe success closes the circuit,
      probe failure re-opens it with a fresh cooldown.

    The cooldown is measured in *jobs routed while open*, not wall-clock
    seconds, so breaker behaviour replays identically under a seeded
    chaos storm.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, trip_after: int = 3, cooldown_jobs: int = 8) -> None:
        if trip_after < 1:
            raise ValueError("trip_after must be at least 1")
        if cooldown_jobs < 1:
            raise ValueError("cooldown_jobs must be at least 1")
        self.trip_after = trip_after
        self.cooldown_jobs = cooldown_jobs
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._bypassed = 0
        self._probe_out = False
        #: Monotonic transition counters (metrics).
        self.trips = 0
        self.probes = 0

    def allow_primary(self) -> bool:
        """Route the next job: True -> primary, False -> fallback."""
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                self._bypassed += 1
                if self._bypassed >= self.cooldown_jobs:
                    self.state = self.HALF_OPEN
                    self._probe_out = True
                    self.probes += 1
                    return True
                return False
            # half_open: one probe at a time.
            if not self._probe_out:
                self._probe_out = True
                self.probes += 1
                return True
            return False

    def record_success(self) -> None:
        """A primary run completed (closes a half-open circuit)."""
        with self._lock:
            self.state = self.CLOSED
            self._consecutive_failures = 0
            self._bypassed = 0
            self._probe_out = False

    def record_failure(self) -> None:
        """A primary run failed (may trip or re-open the circuit)."""
        with self._lock:
            if self.state == self.HALF_OPEN:
                self.state = self.OPEN
                self._bypassed = 0
                self._probe_out = False
                self.trips += 1
                return
            self._consecutive_failures += 1
            if self.state == self.CLOSED and self._consecutive_failures >= self.trip_after:
                self.state = self.OPEN
                self._bypassed = 0
                self.trips += 1


class FailoverExecutor:
    """Primary executor guarded by a circuit breaker, with graceful fallback.

    Wraps a primary (typically the process pool) and a fallback (the
    in-process thread executor): while the breaker is closed every job
    runs on the primary; ``trip_after`` consecutive primary failures open
    it and jobs degrade to the fallback until a half-open probe succeeds.
    Results are byte-identical on either path (the cross-executor storm
    test pins this), so failover changes capacity, never answers.
    """

    name = "failover"

    def __init__(
        self,
        primary,
        fallback=None,
        *,
        trip_after: int = 3,
        cooldown_jobs: int = 8,
    ) -> None:
        self.primary = primary
        self.fallback = fallback if fallback is not None else ThreadExecutor()
        self.breaker = CircuitBreaker(trip_after=trip_after, cooldown_jobs=cooldown_jobs)
        #: Jobs served by the fallback while the circuit was not closed.
        self.fallback_runs = 0

    @property
    def processes(self) -> int:
        """The primary's pool size (metrics surface)."""
        return getattr(self.primary, "processes", 0)

    def run(
        self,
        ctx: ExperimentContext,
        job_id: str,
        item: Scenario | Workload,
        manager: ManagerSpec,
    ) -> RunResult:
        """Route one replay through the breaker."""
        use_primary = self.breaker.allow_primary()
        executor = self.primary if use_primary else self.fallback
        try:
            result = executor.run(ctx, job_id, item, manager)
        except Exception:
            if use_primary:
                self.breaker.record_failure()
            raise
        if use_primary:
            self.breaker.record_success()
        else:
            self.fallback_runs += 1
        return result

    def recycle(self, ctx: ExperimentContext) -> None:
        """Recycle the primary's hung worker (fallback has none)."""
        recycle = getattr(self.primary, "recycle", None)
        if recycle is not None:
            recycle(ctx)

    def close(self) -> None:
        """Release both sides."""
        self.primary.close()
        self.fallback.close()


def make_executor(kind: str, *, processes: int = 2):
    """Build the executor named by ``kind`` (``thread`` or ``process``).

    ``process`` executors are wrapped in a :class:`FailoverExecutor`: three
    consecutive worker deaths trip the breaker and jobs degrade to the
    in-process thread path until a half-open probe succeeds.
    """
    if kind == "thread":
        return ThreadExecutor()
    if kind == "process":
        return FailoverExecutor(ProcessPoolExecutor(processes=processes), ThreadExecutor())
    raise ValueError(f"unknown executor kind {kind!r}; known: {', '.join(EXECUTOR_KINDS)}")
