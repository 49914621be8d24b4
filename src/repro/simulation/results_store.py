"""Persistent run-results store.

The paper's framework already amortises *detailed simulation* into one
on-disk database; this module does the same for the *replay* step.  A
finished :class:`~repro.simulation.metrics.RunResult` is a pure function of

* the simulation database (itself keyed by system configuration, benchmark
  set, trace density and ``DB_FORMAT_VERSION``),
* the workload or scenario being replayed (including slack vectors, event
  streams, horizon and starting tenancy),
* the manager specification (:class:`~repro.experiments.runner.ManagerSpec`),
* the trace-truncation fidelity knob (``max_slices``),

so :func:`run_key` hashes exactly those inputs and :class:`ResultsStore`
pickles results under ``<cache_dir>/results/`` next to the simulation
database.  Repeated experiment and benchmark invocations then skip replay
entirely and load bit-identical results from disk.

Entries are stored with their canonical content digest
(:func:`~repro.simulation.metrics.run_result_digest`) and **verified on
every load**: a stored result whose recomputed digest disagrees with the
recorded one -- bit rot, a torn write that still unpickles, a tampered
file -- is moved to ``<root>/.quarantine/`` and reported as a store miss,
so the caller falls through to re-simulation and the poisoned bytes can
never be served.  Unpickleable files are quarantined the same way.

Invalidation: bump :data:`RESULTS_FORMAT_VERSION` whenever replay
accounting changes (the database's own ``DB_FORMAT_VERSION`` already covers
model/database changes), or delete ``<cache_dir>/results/``; the
``--no-result-cache`` CLI flag and ``REPRO_NO_RESULT_CACHE=1`` bypass the
store without touching it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile

from repro.scenarios.events import Scenario, ScenarioEvent
from repro.simulation.database import SimulationDatabase, _config_digest
from repro.simulation.metrics import IntervalSamples, RunResult, run_result_digest
from repro.workloads.mixes import Workload

__all__ = [
    "ResultsStore",
    "run_key",
    "run_key_prefix",
    "run_key_from_prefix",
    "database_config_digest",
    "RESULTS_FORMAT_VERSION",
]

#: Bump to invalidate stored run results when replay accounting changes.
#: v2: entries are ``{"v", "digest", "result"}`` dicts, digest-verified on
#: every load (bare-``RunResult`` v1 pickles are never looked up again).
#: v3: interval samples are stored as columns and the digest hashes every
#: number a run holds, samples included.
RESULTS_FORMAT_VERSION = 3

#: Fault-injection seam (see :mod:`repro.service.faults`, which installs
#: its plan's ``fire`` here).  The simulation layer never imports the
#: service layer, so the hook is a plain module attribute: a callable
#: ``(site: str) -> rule-or-None``; ``None`` (the default) disables every
#: injection check.  Site spellings must match ``repro.service.faults``.
FAULT_HOOK = None


def database_config_digest(db: SimulationDatabase) -> str:
    """Configuration digest of the database a run replays against.

    It hashes the inputs the database was built from, not its contents:
    it reuses the database's own cache key (system geometry, benchmark set,
    trace density, ``DB_FORMAT_VERSION``), so anything that would rebuild
    the database also invalidates every run keyed against it.
    """
    accesses_per_set = int(db.build_params.get("accesses_per_set", 0))
    return _config_digest(db.system, tuple(sorted(db.records)), accesses_per_set)


def _workload_token(wl: Workload) -> str:
    return "wl;{};{};{};{}".format(
        wl.name, ",".join(wl.apps), ",".join(repr(s) for s in wl.slack), wl.tag
    )


def _event_token(ev: ScenarioEvent) -> str:
    return f"{ev.kind}@{ev.time_ns!r}>{ev.core}:{ev.app}:{ev.slack!r}"


def _scenario_token(sc: Scenario) -> str:
    return "sc;{};{};h{};a{};[{}]".format(
        sc.name,
        _workload_token(sc.workload),
        sc.horizon_intervals,
        ",".join("1" if a else "0" for a in sc.active),
        "|".join(_event_token(ev) for ev in sc.events),
    )


def run_key_prefix(system, db: SimulationDatabase, max_slices: int | None) -> str:
    """The part of :func:`run_key` that one replay context fixes.

    Deriving it hashes the database configuration and renders the whole
    system, so a context that keys many runs computes it once
    (:meth:`~repro.experiments.runner.ExperimentContext.run_key`) and
    finishes each key with :func:`run_key_from_prefix`.
    """
    return f"rv{RESULTS_FORMAT_VERSION}|{database_config_digest(db)}|{system!r}|ms{max_slices}"


def run_key_from_prefix(prefix: str, item: Workload | Scenario, spec) -> str:
    """:func:`run_key` of ``item`` under ``spec``, given its context's
    :func:`run_key_prefix`."""
    token = _scenario_token(item) if isinstance(item, Scenario) else _workload_token(item)
    return hashlib.sha256(f"{prefix}|{token}|{spec!r}".encode()).hexdigest()[:24]


def run_key(
    system,
    db: SimulationDatabase,
    item: Workload | Scenario,
    spec,
    max_slices: int | None,
) -> str:
    """Content hash identifying one (system, database, workload/scenario,
    manager, fidelity) replay.

    ``system`` is the *replay* platform, hashed in full: it usually equals
    the database's build platform, but replay-only fields -- the QoS anchor
    (``qos_baseline_ghz``), transition-overhead constants, interval length
    -- change results without changing the database (E7 moves the anchor
    against one database), so the database digest alone is not enough.
    ``spec`` is any object with a stable, complete ``repr`` -- in practice
    a frozen ``ManagerSpec`` dataclass."""
    return run_key_from_prefix(run_key_prefix(system, db, max_slices), item, spec)


class ResultsStore:
    """One directory of digest-verified pickled results, one file per run key.

    Reads tolerate missing files (misses) and *verify* present ones: each
    entry records the canonical content digest of its result at put time,
    and a load whose recomputed digest disagrees -- or that does not
    unpickle into the expected shape at all -- is quarantined (moved to
    ``<root>/.quarantine/``) and reported as a miss, so cached rot falls
    through to re-simulation instead of being served.  Writes are atomic
    (tmp + rename), so concurrent experiment processes sharing one cache
    directory can only ever observe complete results.
    """

    #: Quarantine subdirectory for entries that failed load verification.
    QUARANTINE_DIR = ".quarantine"

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Entries moved to quarantine after failing digest/shape checks.
        self.quarantined = 0

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"run_{key}.pkl")

    def _quarantine(self, key: str) -> None:
        """Move a failed entry aside so it is never load-attempted again."""
        path = self.path(key)
        qdir = os.path.join(self.root, self.QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            # Racing quarantiners / read-only store: losing the move is
            # fine, the entry is already being treated as a miss.
            return
        self.quarantined += 1

    def get(self, key: str, *, with_digest: bool = False):
        """The verified result stored under ``key``, or ``None`` on a miss.

        With ``with_digest`` a hit returns ``(result, digest)``: the digest
        the load just verified, so the caller need not recompute it.
        """
        try:
            with open(self.path(key), "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        # Unpickling a truncated/corrupt/version-skewed file can raise far
        # more than UnpicklingError (EOFError, OverflowError, ValueError,
        # ImportError/AttributeError on renamed classes, ...); any failure
        # to load quarantines the entry and counts as a miss, never a crash.
        except Exception:
            self._quarantine(key)
            self.misses += 1
            return None
        result = payload.get("result") if isinstance(payload, dict) else None
        stored_digest = payload.get("digest") if isinstance(payload, dict) else None
        if FAULT_HOOK is not None and FAULT_HOOK("store.load_corrupt"):
            # Injected rot: tamper the recorded digest so the verification
            # and quarantine machinery below runs against a real file.
            stored_digest = f"rotten:{stored_digest}"
        if (
            not isinstance(result, RunResult)
            or not isinstance(result.interval_samples, IntervalSamples)
            or not isinstance(stored_digest, str)
            or run_result_digest(result) != stored_digest
        ):
            self._quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return (result, stored_digest) if with_digest else result

    def put(self, key: str, result: RunResult) -> None:
        """Persist one result atomically.

        The entry is wrapped with its canonical content digest (verified
        on every later load).  The pickle lands in a uniquely named temp
        file in the same directory (``mkstemp``: unique even across
        *threads* sharing a pid, as the service worker pool does), is
        flushed and fsynced, and only then renamed over the final path.  A
        worker killed at any instant can therefore leave at most an
        orphaned ``.tmp`` file -- never a truncated pickle under a real key
        that would poison later reads.
        """
        if FAULT_HOOK is not None and FAULT_HOOK("store.put_fail"):
            raise OSError(f"injected results-store put failure for {key}")
        payload = {
            "v": RESULTS_FORMAT_VERSION,
            "digest": run_result_digest(result),
            "result": result,
        }
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"run_{key}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
