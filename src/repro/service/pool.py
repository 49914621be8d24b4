"""The replay worker pool: lanes, admission, dedup, execution, durability.

:class:`ReplayService` owns one :class:`~repro.experiments.runner.
ExperimentContext` per requested system size (all sharing one simulation
database cache and one ``.sim_cache`` results store) and N worker threads
draining a two-lane admission queue.  Each job executes through a
pluggable executor (:mod:`repro.service.executor`): the ``thread``
executor replays in the worker thread via the runner's spawn-safe
``parallel_map`` protocol, the ``process`` executor dispatches to a
persistent process pool built on the *same* protocol -- which is why the
service path is bit-identical to the library path under either.

Dedup happens at two tiers, both keyed by the same content hash
(:func:`~repro.service.jobs.job_key` == the results-store
:func:`~repro.simulation.results_store.run_key`):

1. **submit time** -- an identical request while a job is queued/running/
   done returns the *same* job (``submissions`` counts the coalesced
   clients).  ``_jobs`` holds at most one live job per key, so no two
   workers ever run the same key at once;
2. **at rest** -- the persistent results store serves finished runs across
   service restarts.  :meth:`ReplayService.submit_info` is the one place
   that looks the store up: a request whose run is stored is created
   already ``done``, with no queue slot, worker or journal record (a
   recovered job gets one ``published`` record, which settles it in the
   journal).  A miss becomes a queued job, and the worker thread that
   runs it is the one place that puts its result, whichever executor
   replayed it.

Production hardening on top of the PR-6 pool:

* **Admission control** -- the queue is bounded (``max_queue``); an
  overflowing submission raises :class:`QueueFullError`, which the HTTP
  layer maps to ``429`` + ``Retry-After``.  Dedup coalescing and stored
  results are always admitted (they add no work).
* **Priority lanes** -- ``interactive`` jobs dequeue strictly before
  ``bulk`` ones, except that after ``bulk_escape_every`` consecutive
  skips of a waiting bulk job one bulk job is dequeued (starvation
  escape), bounding bulk wait without letting sweeps delay QoS traffic.
* **Durability** -- with a :class:`~repro.service.journal.JobJournal`
  attached, every submitted/claimed/retrying/published/failed transition
  of a job that needs a worker is fsync'd to the write-ahead log before
  it is acknowledged, and
  :meth:`ReplayService.recover` re-submits unsettled journalled jobs on
  boot (resuming their journalled retry budgets), so a SIGKILL'd service
  resumes its queue.  Settled records are auto-compacted away once they
  dominate the live backlog (:meth:`~repro.service.journal.JobJournal.
  maybe_compact`).

Self-healing (PR 9) on top of that:

* **Retries with deterministic backoff** -- a failed attempt is requeued
  up to ``max_retries`` times with capped exponential backoff whose
  jitter is a pure hash of ``(job_id, attempt)``
  (:func:`~repro.util.backoff.backoff_delay`), so a replayed fault storm
  reproduces the exact same schedule.  The attempt count is journalled
  (``retrying`` records), so recovery resumes the budget instead of
  resetting it -- a crash loop cannot retry forever across restarts.
* **Watchdog** -- with ``job_timeout_s`` set, each attempt runs on a
  disposable thread; an attempt that exceeds the deadline is abandoned
  (:class:`WatchdogTimeout` -> normal retry path) and
  ``executor.recycle(ctx)`` tears down the wedged worker/pool so the
  retry gets a fresh one.
* **Circuit breaker** -- the default ``process`` executor is wrapped in a
  :class:`~repro.service.executor.FailoverExecutor`: consecutive worker
  deaths trip a breaker and jobs degrade to the in-process thread path
  (bit-identical results, reduced isolation) until a half-open probe
  succeeds.
* **Health states** -- :meth:`ReplayService.health` folds all of the
  above into ``healthy`` / ``degraded`` / ``draining`` for ``/healthz``;
  :meth:`metrics` exposes the same signals as numeric gauges.

A job that exhausts its retry budget is marked ``failed`` (with the
error) and releases its coalesced clients -- it never hangs them, and a
later identical submission retries cleanly.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from repro.experiments.runner import (
    ExperimentContext,
    ManagerSpec,
    _init_worker,
    _run_one,
    _run_one_scenario,
    get_context,
)
from repro.scenarios.events import Scenario
from repro.service.executor import make_executor
from repro.service.jobs import (
    JobSpec,
    build_item,
    job_spec_from_json,
    split_submission,
)
from repro.service.journal import JobJournal
from repro.simulation.metrics import RunResult, run_result_digest
from repro.util.backoff import backoff_delay
from repro.util.parallel import parallel_map
from repro.workloads.mixes import Workload

__all__ = [
    "Job",
    "ReplayService",
    "QueueFullError",
    "WatchdogTimeout",
    "JOB_STATES",
    "LANES",
    "DEFAULT_LANE",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_BULK_ESCAPE_EVERY",
    "DEFAULT_MAX_RETRIES",
    "LATENCY_WINDOW",
]

JOB_STATES = ("queued", "running", "done", "failed")

#: Admission lanes, in strict dequeue-priority order.
LANES = ("interactive", "bulk")

#: Lane assumed when a request names none: unlabelled clients are latency
#: traffic; sweeps opt into ``bulk`` explicitly.
DEFAULT_LANE = "interactive"

#: Default bound on queued (not yet running) jobs before 429s start.
DEFAULT_MAX_QUEUE = 1024

#: A waiting bulk job is dequeued after this many consecutive interactive
#: dequeues skipped it (the starvation-avoidance escape).
DEFAULT_BULK_ESCAPE_EVERY = 8

#: Default retry budget: a job gets ``1 + max_retries`` attempts total.
DEFAULT_MAX_RETRIES = 2

#: Worker-settled job latencies kept per lane for the ``/metrics``
#: percentiles (results served at admission are counted apart); a
#: long-lived service reports over this sliding window, not all history.
LATENCY_WINDOW = 1024


class WatchdogTimeout(Exception):
    """An attempt exceeded ``job_timeout_s``; the worker was recycled.

    Raised *in the service worker thread* after the attempt thread is
    abandoned, so it flows through the normal retry/fail path like any
    other attempt failure.
    """


class QueueFullError(Exception):
    """Raised at submit time when the admission queue is at capacity.

    ``retry_after_s`` is the service's estimate of when capacity frees up
    (queue depth times observed job latency over the worker count); the
    HTTP layer surfaces it as a ``Retry-After`` header on the 429.
    """

    def __init__(self, depth: int, max_queue: int, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue is full ({depth}/{max_queue} jobs queued); "
            f"retry in ~{retry_after_s:.0f}s"
        )
        self.depth = depth
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s


def _execute_replay(
    ctx: ExperimentContext, item: Scenario | Workload, manager: ManagerSpec
) -> RunResult:
    """Run one replay through the runner's spawn-safe worker machinery.

    Module-level so the crash tests can monkeypatch it (both executors'
    thread paths route through this name); routed through ``parallel_map``
    with the pool initializer, the exact protocol
    ``ExperimentContext._resolve`` uses for batch fan-out.
    """
    worker = _run_one_scenario if isinstance(item, Scenario) else _run_one
    task = (item, manager, ctx.max_slices)
    return parallel_map(worker, [task], processes=1, initializer=_init_worker, initargs=(ctx,))[0]


class _LaneQueue:
    """Two-lane strict-priority FIFO with a bulk starvation escape.

    ``interactive`` dequeues first whenever both lanes hold jobs, but each
    such dequeue that skips a waiting bulk job increments a starvation
    counter; once it reaches ``bulk_escape_every`` the next dequeue takes
    one bulk job and resets the counter.  The invariant (property-tested in
    ``tests/test_service_journal.py``): while an interactive job waits, at
    most ``1 + interactive_dequeues_during_wait // bulk_escape_every`` bulk
    jobs are dequeued -- and symmetrically, a waiting bulk job is never
    skipped more than ``bulk_escape_every`` times in a row.
    """

    def __init__(self, bulk_escape_every: int = DEFAULT_BULK_ESCAPE_EVERY) -> None:
        if bulk_escape_every < 1:
            raise ValueError("bulk_escape_every must be at least 1")
        self.bulk_escape_every = bulk_escape_every
        self._cv = threading.Condition()
        self._lanes: dict[str, deque] = {lane: deque() for lane in LANES}
        self._sentinels = 0
        self._starve = 0

    def put(self, job: "Job") -> None:
        """Enqueue one job on its lane."""
        with self._cv:
            self._lanes[job.lane].append(job)
            self._cv.notify()

    def put_sentinel(self) -> None:
        """Enqueue one shutdown sentinel (dequeued only once jobs drain)."""
        with self._cv:
            self._sentinels += 1
            self._cv.notify()

    def depths(self) -> dict[str, int]:
        """Queued-job count per lane (snapshot)."""
        with self._cv:
            return {lane: len(q) for lane, q in self._lanes.items()}

    def depth(self) -> int:
        """Total queued jobs across lanes (snapshot)."""
        with self._cv:
            return sum(len(q) for q in self._lanes.values())

    def get(self) -> "Job | None":
        """Dequeue the next job by lane policy; ``None`` means shut down."""
        with self._cv:
            while True:
                interactive = self._lanes["interactive"]
                bulk = self._lanes["bulk"]
                if interactive and bulk:
                    if self._starve >= self.bulk_escape_every:
                        self._starve = 0
                        return bulk.popleft()
                    self._starve += 1
                    return interactive.popleft()
                if interactive:
                    # No bulk job is waiting, so nothing is being starved.
                    self._starve = 0
                    return interactive.popleft()
                if bulk:
                    self._starve = 0
                    return bulk.popleft()
                if self._sentinels:
                    self._sentinels -= 1
                    return None
                self._cv.wait()


@dataclass
class Job:
    """One submitted replay job; ``job_id`` is the run's content hash."""

    job_id: str
    spec: JobSpec
    item: Scenario | Workload
    lane: str = DEFAULT_LANE
    status: str = "queued"
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    error: str | None = None
    result: RunResult | None = None
    result_hash: str | None = None
    #: Total client submissions coalesced onto this job (>= 1).
    submissions: int = 1
    #: True when admission served the result from the store (no worker ran).
    cache_hit: bool = False
    #: True when the job was re-submitted from the journal on boot.
    recovered: bool = False
    #: Completed (failed) attempts so far; recovery seeds this from the
    #: journal so the retry budget survives a restart.
    attempts: int = 0
    finished: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles (done or failed); False on timeout."""
        return self.finished.wait(timeout)

    def summary(self) -> dict:
        """Status view returned by the poll endpoint."""
        out = {
            "job_id": self.job_id,
            "status": self.status,
            "shape": self.spec.shape,
            "ncores": self.spec.ncores,
            "name": self.spec.name,
            "manager": self.spec.manager.name or self.spec.manager.kind,
            "lane": self.lane,
            "submissions": self.submissions,
            "cache_hit": self.cache_hit,
            "recovered": self.recovered,
            "attempts": self.attempts,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result_hash is not None:
            out["result_hash"] = self.result_hash
        return out


class ReplayService:
    """Long-lived scenario-replay service: submit, poll, fetch, metrics.

    ``context_factory(ncores)`` builds the per-size experiment context
    (defaults to :func:`~repro.experiments.runner.get_context`, i.e. the
    shared ``.sim_cache`` database + results store); contexts are memoised
    per size for the service's lifetime.

    ``executor`` selects where replays run: ``"thread"`` (in the worker
    thread, the default), ``"process"`` (persistent per-size process
    pools; ``processes`` bounds each pool, defaulting to ``workers``), or
    any pre-built executor object.  ``max_queue`` bounds the admission
    queue (:class:`QueueFullError` on overflow); ``journal`` -- a
    :class:`~repro.service.journal.JobJournal` or a directory path --
    makes queued and in-flight jobs survive a crash (call
    :meth:`recover` on boot).  Use as a context manager or call
    :meth:`close` to drain and join the workers.

    Self-healing knobs: ``max_retries`` bounds the retry budget per job
    (``1 + max_retries`` attempts total, counted *across restarts* via
    the journal); ``job_timeout_s`` arms the per-attempt watchdog (None
    disables it); ``backoff_base_s``/``backoff_cap_s`` shape the
    deterministic retry backoff.  ``autostart=False`` defers the worker
    threads until :meth:`start` -- the chaos harness uses this to get a
    deterministic journal order (submit everything, then run).
    """

    def __init__(
        self,
        context_factory=get_context,
        workers: int = 2,
        *,
        executor: str | object = "thread",
        processes: int | None = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        bulk_escape_every: int = DEFAULT_BULK_ESCAPE_EVERY,
        journal: JobJournal | str | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        job_timeout_s: float | None = None,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        autostart: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("service needs at least one worker")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive (or None)")
        self._context_factory = context_factory
        self._contexts: dict[int, ExperimentContext] = {}
        self._jobs: dict[str, Job] = {}
        self._queue = _LaneQueue(bulk_escape_every=bulk_escape_every)
        self._lock = threading.Lock()
        self.max_queue = max_queue
        self.max_retries = max_retries
        self.job_timeout_s = job_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        if isinstance(executor, str):
            executor = make_executor(
                executor, processes=processes if processes is not None else workers
            )
        self.executor = executor
        self.journal = JobJournal(journal) if isinstance(journal, str) else journal
        self.started_s = time.monotonic()
        # Counters (all under self._lock; read via metrics()).
        self.simulations = 0
        self.jobs_done = 0
        self.jobs_cache_hits = 0
        self.jobs_failed = 0
        self.dedup_hits = 0
        self.jobs_rejected = 0
        self.jobs_recovered = 0
        self.jobs_retried = 0
        self.attempts_total = 0
        self.watchdog_timeouts = 0
        self.store_put_errors = 0
        self.client_disconnects = 0
        self._latencies_s: dict[str, deque[float]] = {
            lane: deque(maxlen=LATENCY_WINDOW) for lane in LANES
        }
        self._draining = False
        self._started = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"replay-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        if autostart:
            self.start()

    # ---- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "ReplayService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Start the worker threads (idempotent; implicit unless
        ``autostart=False``)."""
        if self._started:
            return
        self._started = True
        for t in self._workers:
            t.start()

    def close(self) -> None:
        """Drain queued jobs, join the workers, release executor/journal.

        Sets the draining flag first: jobs that fail during shutdown are
        settled as ``failed`` instead of being requeued, so close cannot
        be held up by a retry loop.
        """
        self._draining = True
        self.start()  # a never-started service still drains its queue
        for _ in self._workers:
            self._queue.put_sentinel()
        for t in self._workers:
            t.join(timeout=60.0)
        self.executor.close()
        if self.journal is not None:
            self.journal.close()

    # ---- contexts -----------------------------------------------------------
    def ctx_for(self, ncores: int) -> ExperimentContext:
        """The (memoised) experiment context serving ``ncores`` jobs."""
        with self._lock:
            ctx = self._contexts.get(ncores)
        if ctx is not None:
            return ctx
        # Build outside the lock: database construction can take seconds
        # and must not stall submits for other (already-built) sizes.
        ctx = self._context_factory(ncores)
        with self._lock:
            return self._contexts.setdefault(ncores, ctx)

    # ---- submission ---------------------------------------------------------
    def submit(self, request: JobSpec | dict, lane: str | None = None) -> Job:
        """Register one replay request; identical requests share one job.

        Accepts a parsed :class:`JobSpec` or a raw JSON mapping (the wire
        form; an optional ``"lane"`` key routes it to the ``interactive``
        or ``bulk`` lane).  Returns the job -- possibly an existing one: a
        request whose content hash matches a queued, running or finished
        job coalesces onto it (``submissions`` increments).  A request
        whose run is already in the results store returns a job that is
        already ``done``.  A previously *failed* job is retried with a
        fresh job record under the same id.  Raises
        :class:`QueueFullError` when the admission queue is at capacity
        and the request needs a worker.
        """
        return self.submit_info(request, lane=lane)[0]

    def submit_info(
        self,
        request: JobSpec | dict,
        lane: str | None = None,
        *,
        _recovered: bool = False,
        _attempts: int = 0,
    ) -> tuple[Job, bool]:
        """Like :meth:`submit`, also reporting whether the request coalesced
        onto an existing job (the HTTP layer surfaces this as ``deduped``).

        This is the service's one results-store lookup.  ``_recovered``
        marks a journalled job re-submitted by :meth:`recover`: it bypasses
        admission control, and if its run is stored its journal gets the
        ``published`` record that settles it."""
        if isinstance(request, JobSpec):
            spec = request
        else:
            attrs, spec_fields = split_submission(request)
            if lane is None:
                lane = attrs.get("lane")
            spec = job_spec_from_json(spec_fields)
        if lane is None:
            lane = DEFAULT_LANE
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; known: {', '.join(LANES)}")
        ctx = self.ctx_for(spec.ncores)
        item = build_item(spec, ctx.db.benchmarks())
        key = ctx.run_key(item, spec.manager)
        # A stored run settles at admission.  The lookup unpickles and
        # digest-checks the entry, so it runs outside the lock.
        store = ctx.results_store
        stored, result_hash = None, None
        if store is not None:
            with self._lock:
                known = self._jobs.get(key)
            if known is None or known.status == "failed":
                hit = store.get(key, with_digest=True)
                if hit is not None:
                    stored, result_hash = hit
        with self._lock:
            job = self._jobs.get(key)
            if job is not None and job.status != "failed":
                job.submissions += 1
                self.dedup_hits += 1
                return job, True
            if stored is None and not _recovered:
                depth = self._queue.depth()
                if depth >= self.max_queue:
                    self.jobs_rejected += 1
                    raise QueueFullError(depth, self.max_queue, self._retry_after_s(depth))
            now = time.monotonic()
            job = Job(
                job_id=key,
                spec=spec,
                item=item,
                lane=lane,
                submitted_s=now,
                recovered=_recovered,
                attempts=_attempts,
            )
            if stored is not None:
                # Already durable in the store: no queue slot, worker or
                # lane latency.
                job.status = "done"
                job.cache_hit = True
                job.result = stored
                job.result_hash = result_hash
                job.started_s = job.finished_s = now
                job.finished.set()
                self.jobs_done += 1
                self.jobs_cache_hits += 1
            self._jobs[key] = job
        if stored is not None:
            if _recovered and self.journal is not None:
                self.journal.append("published", key, result_hash=result_hash)
            return job, False
        # Journal before enqueue: once a client is told "accepted", the job
        # must survive a crash -- the reverse order could lose it.
        if self.journal is not None:
            self.journal.append("submitted", key, lane=lane, spec=spec.to_json())
        self._queue.put(job)
        return job, False

    def _retry_after_s(self, depth: int) -> float:
        """Estimated seconds until the queue frees a slot (>= 1)."""
        latencies = [v for vals in self._latencies_s.values() for v in islice(reversed(vals), 32)]
        per_job = (sum(latencies) / len(latencies)) if latencies else 2.0
        return max(1.0, math.ceil(per_job * (depth + 1) / len(self._workers)))

    def get_job(self, job_id: str) -> Job | None:
        """Look one job up by id (None when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    # ---- recovery -----------------------------------------------------------
    def recover(self) -> list[Job]:
        """Re-submit every unsettled journalled job (call once, on boot,
        before external submissions start).

        Replays the write-ahead log, compacts it down to the pending
        records (atomic rewrite), then re-submits each pending spec
        through the normal path -- bypassing admission control, since
        journalled jobs were already admitted once.  A recovered job whose
        run is stored settles at once and is journalled ``published``.  A
        pending record whose spec no longer validates, or whose content
        hash no longer matches (the database or replay semantics changed
        across the restart), is settled as ``failed`` in the journal so it
        cannot be re-recovered forever.  Returns the recovered jobs.
        """
        if self.journal is None:
            return []
        pending = self.journal.pending()
        self.journal.compact(pending)
        recovered: list[Job] = []
        for old_id, record in pending.items():
            body = dict(record.spec)
            try:
                job, _ = self.submit_info(
                    body,
                    lane=record.lane,
                    _recovered=True,
                    _attempts=record.attempt or 0,
                )
            except ValueError as exc:
                self.journal.append("failed", old_id, error=f"unrecoverable journalled job: {exc}")
                continue
            if job.job_id != old_id:
                # The request re-keyed (code/database change across the
                # restart): settle the stale id so it is never re-recovered.
                self.journal.append("failed", old_id, error=f"re-keyed on recovery to {job.job_id}")
            recovered.append(job)
        with self._lock:
            self.jobs_recovered += len(recovered)
        return recovered

    # ---- execution ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    def _execute_attempt(self, ctx: ExperimentContext, job: Job) -> RunResult:
        """One executor dispatch, under the watchdog when armed.

        With ``job_timeout_s`` set the dispatch runs on a disposable
        daemon thread; if it misses the deadline the thread is abandoned
        (it holds no service state -- the journal, the store put and the
        settlement stay in the worker thread), the executor recycles the
        wedged worker/pool, and :class:`WatchdogTimeout` feeds the normal
        retry path.
        """
        if self.job_timeout_s is None:
            return self.executor.run(ctx, job.job_id, job.item, job.spec.manager)
        box: dict[str, object] = {}
        done = threading.Event()

        def _attempt() -> None:
            try:
                box["result"] = self.executor.run(ctx, job.job_id, job.item, job.spec.manager)
            except BaseException as exc:  # delivered to the worker thread
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(target=_attempt, name=f"attempt-{job.job_id[:8]}", daemon=True)
        thread.start()
        if not done.wait(self.job_timeout_s):
            with self._lock:
                self.watchdog_timeouts += 1
            recycle = getattr(self.executor, "recycle", None)
            if recycle is not None:
                recycle(ctx)
            raise WatchdogTimeout(
                f"attempt exceeded job_timeout_s={self.job_timeout_s}; worker recycled"
            )
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _run_job(self, job: Job) -> None:
        """Run one attempt of ``job``; the service's one results-store writer."""
        job.status = "running"
        if job.started_s is None:
            job.started_s = time.monotonic()
        attempt = job.attempts + 1
        if self.journal is not None:
            self.journal.append("claimed", job.job_id, attempt=attempt)
        ctx = self.ctx_for(job.spec.ncores)
        with self._lock:
            self.attempts_total += 1
        try:
            result = self._execute_attempt(ctx, job)
            with self._lock:
                self.simulations += 1
            if ctx.results_store is not None:
                try:
                    ctx.results_store.put(job.job_id, result)
                except OSError:
                    # The run succeeded; a failed persist degrades the
                    # cache, never the answer.
                    with self._lock:
                        self.store_put_errors += 1
        except Exception as exc:
            job.attempts = attempt
            job.error = f"{type(exc).__name__}: {exc}"
            if attempt <= self.max_retries and not self._draining:
                # Journal the failed attempt *before* requeueing, so a
                # crash between the two cannot reset the retry budget.
                if self.journal is not None:
                    self.journal.append("retrying", job.job_id, attempt=attempt, error=job.error)
                with self._lock:
                    self.jobs_retried += 1
                time.sleep(
                    backoff_delay(
                        attempt,
                        base_s=self.backoff_base_s,
                        cap_s=self.backoff_cap_s,
                        key=(job.job_id,),
                    )
                )
                job.status = "queued"
                self._queue.put(job)  # re-admission is unconditional
                return
            job.status = "failed"
            job.finished_s = time.monotonic()
            with self._lock:
                self.jobs_failed += 1
            if self.journal is not None:
                self.journal.append("failed", job.job_id, error=job.error, attempt=attempt)
                self.journal.maybe_compact(self._queue.depth())
            job.finished.set()
            return
        job.attempts = attempt
        job.error = None
        job.result = result
        job.result_hash = run_result_digest(result)
        job.status = "done"
        job.finished_s = time.monotonic()
        with self._lock:
            self.jobs_done += 1
            self._latencies_s[job.lane].append(job.finished_s - job.submitted_s)
        if self.journal is not None:
            self.journal.append("published", job.job_id, result_hash=job.result_hash)
            self.journal.maybe_compact(self._queue.depth())
        job.finished.set()

    # ---- health / metrics ---------------------------------------------------
    def note_client_disconnect(self) -> None:
        """Record one mid-response client disconnect (HTTP layer hook)."""
        with self._lock:
            self.client_disconnects += 1

    def _breaker_state(self) -> str:
        breaker = getattr(self.executor, "breaker", None)
        return breaker.state if breaker is not None else "none"

    def _store_quarantined(self) -> int:
        with self._lock:
            return sum(
                ctx.results_store.quarantined
                for ctx in self._contexts.values()
                if ctx.results_store is not None
            )

    def health(self) -> dict:
        """The service health state machine, as served by ``/healthz``.

        ``status`` is one of:

        * ``healthy`` -- serving normally;
        * ``degraded`` -- still serving, but a self-healing mechanism is
          engaged: the circuit breaker is open/half-open (jobs run on the
          fallback executor), the journal has absorbed append failures
          (durability is best-effort), or the admission queue is
          saturated (submissions are being 429'd);
        * ``draining`` -- :meth:`close` has begun; failures no longer
          retry.

        The accompanying fields name *why*: breaker state, queue depth,
        journal backlog/error counters, retry/watchdog/quarantine/
        disconnect totals.  :meth:`metrics` exposes the same signals as
        numeric gauges for scraping.
        """
        depth = self._queue.depth()
        breaker_state = self._breaker_state()
        journal = self.journal
        append_failures = journal.append_failures if journal is not None else 0
        if self._draining:
            status = "draining"
        elif (
            breaker_state in ("open", "half_open")
            or append_failures > 0
            or depth >= self.max_queue
        ):
            status = "degraded"
        else:
            status = "healthy"
        with self._lock:
            retried = self.jobs_retried
            watchdog = self.watchdog_timeouts
            disconnects = self.client_disconnects
            put_errors = self.store_put_errors
        return {
            "status": status,
            "workers": len(self._workers),
            "uptime_s": max(time.monotonic() - self.started_s, 1e-9),
            "breaker_state": breaker_state,
            "queue_depth": depth,
            "queue_capacity": self.max_queue,
            "journal_backlog": journal.settled_since_compact if journal is not None else 0,
            "journal_write_errors": journal.write_errors if journal is not None else 0,
            "journal_append_failures": append_failures,
            "jobs_retried": retried,
            "watchdog_timeouts": watchdog,
            "store_put_errors": put_errors,
            "store_quarantined": self._store_quarantined(),
            "client_disconnects": disconnects,
        }

    @staticmethod
    def _percentile(sorted_values: list[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
        return sorted_values[idx]

    #: Health/breaker states as numeric gauge codes (``/metrics`` values
    #: must parse as floats; the strings live in ``/healthz`` JSON).
    _HEALTH_CODES = {"healthy": 0, "degraded": 1, "draining": 2}
    _BREAKER_CODES = {"none": 0, "closed": 0, "half_open": 1, "open": 2}

    def metrics(self) -> dict:
        """One snapshot of the service's operational counters."""
        health = self.health()
        with self._lock:
            per_lane = {lane: sorted(vals) for lane, vals in self._latencies_s.items()}
            stores = [
                ctx.results_store
                for ctx in self._contexts.values()
                if ctx.results_store is not None
            ]
            hits = sum(s.hits for s in stores)
            misses = sum(s.misses for s in stores)
            puts = sum(s.puts for s in stores)
            quarantined = sum(s.quarantined for s in stores)
            done, failed = self.jobs_done, self.jobs_failed
            cache_hits = self.jobs_cache_hits
            dedup = self.dedup_hits
            sims = self.simulations
            rejected = self.jobs_rejected
            recovered = self.jobs_recovered
            retried = self.jobs_retried
            attempts = self.attempts_total
            watchdog = self.watchdog_timeouts
            put_errors = self.store_put_errors
            disconnects = self.client_disconnects
        breaker = getattr(self.executor, "breaker", None)
        latencies = sorted(v for vals in per_lane.values() for v in vals)
        depths = self._queue.depths()
        uptime_s = max(time.monotonic() - self.started_s, 1e-9)
        lookups = hits + misses
        out = {
            "uptime_s": uptime_s,
            "workers": len(self._workers),
            "executor_processes": getattr(self.executor, "processes", 0),
            "queue_depth": sum(depths.values()),
            "queue_capacity": self.max_queue,
            "jobs_done": done,
            "jobs_cache_hits": cache_hits,
            "jobs_failed": failed,
            "jobs_rejected": rejected,
            "jobs_recovered": recovered,
            "jobs_deduped": dedup,
            "jobs_retried": retried,
            "attempts_total": attempts,
            "watchdog_timeouts": watchdog,
            "journal_appends": self.journal.appends if self.journal is not None else 0,
            "journal_write_errors": health["journal_write_errors"],
            "journal_append_failures": health["journal_append_failures"],
            "journal_compactions": self.journal.compactions if self.journal is not None else 0,
            "health_state": self._HEALTH_CODES[health["status"]],
            "breaker_state": self._BREAKER_CODES[health["breaker_state"]],
            "breaker_trips": breaker.trips if breaker is not None else 0,
            "executor_fallback_runs": getattr(self.executor, "fallback_runs", 0),
            "store_put_errors": put_errors,
            "store_quarantined": quarantined,
            "client_disconnects": disconnects,
            "simulations": sims,
            "store_hits": hits,
            "store_misses": misses,
            "store_puts": puts,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "jobs_per_sec": done / uptime_s,
            "job_latency_p50_s": self._percentile(latencies, 0.50),
            "job_latency_p95_s": self._percentile(latencies, 0.95),
        }
        for lane in LANES:
            out[f"queue_depth_{lane}"] = depths[lane]
            out[f"lane_latency_{lane}_p50_s"] = self._percentile(per_lane[lane], 0.50)
            out[f"lane_latency_{lane}_p95_s"] = self._percentile(per_lane[lane], 0.95)
        return out
