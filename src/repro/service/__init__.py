"""Scenario-replay service: the step from "fast library" to "fast service".

Wraps :class:`~repro.experiments.runner.ExperimentContext` in a long-lived
service so many concurrent clients can drive the vectorised replay engine
over HTTP:

* :mod:`repro.service.jobs` -- the request/job model: a replay request
  names a scenario shape (S1-S7, or a fixed workload), its generator
  parameters, the system size and a
  :class:`~repro.experiments.runner.ManagerSpec`; the job id *is* the
  results-store content hash of that request, so identical requests are
  identical jobs by construction.
* :mod:`repro.service.pool` -- :class:`ReplayService`: worker threads
  draining a bounded two-lane (``interactive``/``bulk``) admission queue
  over the runner's spawn-safe ``parallel_map`` machinery, sharing one
  simulation database and one ``.sim_cache`` results store, with
  submit-time dedup (concurrent identical submissions coalesce onto one
  job), one store lookup at admission, one store put by the worker thread
  that ran the job, and service metrics.
* :mod:`repro.service.executor` -- where a job's replay actually runs: in
  the worker thread, or on a persistent per-system-size process pool that
  returns the result to that thread.
* :mod:`repro.service.journal` -- an fsync'd append-only JSONL write-ahead
  log of job transitions, replayed on boot so queued and in-flight jobs
  survive a crash or restart.
* :mod:`repro.service.api` -- a thin stdlib HTTP surface: submit / poll /
  fetch results / stream interval samples as server-sent batches, plus
  ``/healthz`` (the ``healthy``/``degraded``/``draining`` state machine)
  and ``/metrics``; full queues answer ``429`` + ``Retry-After``; client
  disconnects are swallowed, not traceback'd.
* :mod:`repro.service.faults` -- deterministic fault injection: a seeded
  :class:`FaultPlan` decides, as a pure function of
  ``(seed, site, invocation)``, where worker crashes, hangs, store
  corruption, journal write faults and client disconnects strike -- the
  substrate of the chaos harness (``tools/chaos_smoke.py``) and the
  self-healing paths above (retries with deterministic backoff, the
  per-attempt watchdog, the process-executor circuit breaker, store
  quarantine).

Start one from the command line with ``tools/serve.py``.
"""

from repro.service.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    SITES as FAULT_SITES,
    clear as clear_faults,
    install as install_faults,
    installed as faults_installed,
)
from repro.service.jobs import (
    JobSpec,
    SCENARIO_SHAPES,
    WORKLOAD_SHAPE,
    build_item,
    job_spec_from_json,
    split_submission,
)
from repro.service.executor import (
    EXECUTOR_KINDS,
    CircuitBreaker,
    FailoverExecutor,
    make_executor,
)
from repro.service.journal import JobJournal, JournalRecord
from repro.service.pool import (
    LANES,
    Job,
    QueueFullError,
    ReplayService,
    WatchdogTimeout,
)
from repro.service.api import make_server

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "FAULT_SITES",
    "install_faults",
    "clear_faults",
    "faults_installed",
    "JobSpec",
    "SCENARIO_SHAPES",
    "WORKLOAD_SHAPE",
    "build_item",
    "job_spec_from_json",
    "split_submission",
    "EXECUTOR_KINDS",
    "CircuitBreaker",
    "FailoverExecutor",
    "make_executor",
    "JobJournal",
    "JournalRecord",
    "LANES",
    "Job",
    "QueueFullError",
    "ReplayService",
    "WatchdogTimeout",
    "make_server",
]
