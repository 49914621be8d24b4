"""Deterministic fault injection for the replay service.

A :class:`FaultPlan` decides, at each *injection site* the service passes
through, whether to induce a failure there.  The decision is a pure
function of ``(seed, site, invocation_count)`` -- no wall clock, no
``random`` global, no process state -- so a storm replayed under the same
plan takes byte-identical fault decisions, which is what lets
``tools/chaos_smoke.py`` assert that two runs with one seed produce
identical journal event sequences while still exercising every failure
path.

Injection sites (the constants below) live where production failures
would strike:

* ``executor.crash`` / ``executor.hang`` / ``executor.slow`` -- consulted
  by both executors in :mod:`repro.service.executor` before a replay
  dispatch: a crash raises :class:`InjectedWorkerCrash`, a hang sleeps
  past the pool watchdog, a slow-return adds bounded latency.
* ``store.load_corrupt`` / ``store.put_fail`` -- consulted by
  :class:`~repro.simulation.results_store.ResultsStore` through the
  module-level ``FAULT_HOOK`` seam (the simulation layer never imports the
  service layer; :func:`install` plugs the hook in): a corrupt load
  tampers the stored digest so the verify-and-quarantine path runs for
  real, a failed put raises ``OSError`` before any byte is written.
* ``journal.torn_write`` / ``journal.fsync`` -- consulted by
  :class:`~repro.service.journal.JobJournal.append`: a torn write leaves a
  half-record in the WAL (exactly what a crash mid-``write`` leaves), an
  fsync error fails the durability barrier.
* ``api.sse_disconnect`` -- consulted per server-sent event in
  :mod:`repro.service.api`: raises :class:`InjectedDisconnect` (a
  ``BrokenPipeError`` subclass), driving the same swallow path a real
  client disconnect takes.

Every rule carries a ``rate`` (fire probability per invocation) and a
``max_fires`` budget.  Budgets are what make chaos storms *provably*
settle: keep the total crash+hang budget at or below the service's
``max_retries`` and no job can exhaust its retry allowance no matter how
adversarially the seed lands (the property ``tests/test_service_chaos.py``
checks for arbitrary seeds).

Plans are installed process-globally (:func:`install` / :func:`clear` /
the :func:`installed` context manager) because injection points span
layers with no shared constructor; with no plan installed every site is a
single ``None``-check.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

from repro.simulation import results_store as _results_store
from repro.util.rng import seed_for

__all__ = [
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "InjectedWorkerCrash",
    "InjectedJournalError",
    "InjectedDisconnect",
    "SITES",
    "EXECUTOR_CRASH",
    "EXECUTOR_HANG",
    "EXECUTOR_SLOW",
    "STORE_LOAD_CORRUPT",
    "STORE_PUT_FAIL",
    "JOURNAL_TORN_WRITE",
    "JOURNAL_FSYNC",
    "SSE_DISCONNECT",
    "install",
    "clear",
    "installed",
    "active",
    "fire",
]

# ---- sites -------------------------------------------------------------------

EXECUTOR_CRASH = "executor.crash"
EXECUTOR_HANG = "executor.hang"
EXECUTOR_SLOW = "executor.slow"
#: ``results_store.py`` (simulation layer) names these two sites by string
#: literal rather than importing this module -- keep the spellings in sync.
STORE_LOAD_CORRUPT = "store.load_corrupt"
STORE_PUT_FAIL = "store.put_fail"
JOURNAL_TORN_WRITE = "journal.torn_write"
JOURNAL_FSYNC = "journal.fsync"
SSE_DISCONNECT = "api.sse_disconnect"

#: Every known injection site (plans reject unknown sites at build time).
SITES = (
    EXECUTOR_CRASH,
    EXECUTOR_HANG,
    EXECUTOR_SLOW,
    STORE_LOAD_CORRUPT,
    STORE_PUT_FAIL,
    JOURNAL_TORN_WRITE,
    JOURNAL_FSYNC,
    SSE_DISCONNECT,
)

# ---- injected failures -------------------------------------------------------


class InjectedFault(Exception):
    """Base class for failures raised by fault injection (never in prod)."""


class InjectedWorkerCrash(InjectedFault, RuntimeError):
    """A worker death induced at ``executor.crash``."""


class InjectedJournalError(InjectedFault, OSError):
    """A torn write or fsync failure induced in the job journal."""


class InjectedDisconnect(InjectedFault, BrokenPipeError):
    """A mid-SSE client disconnect; subclasses ``BrokenPipeError`` so the
    production swallow path handles it exactly like the real thing."""


# ---- plan --------------------------------------------------------------------

#: Scale of a 64-bit seed, used to map hashes onto [0, 1).
_U64 = float(2**64)


@dataclass(frozen=True)
class FaultRule:
    """One site's injection policy.

    ``rate`` is the per-invocation fire probability; ``max_fires`` bounds
    the total fires over the plan's lifetime (``None`` = unbounded --
    avoid for failure-inducing sites, see the module docstring on settle
    guarantees); ``param`` carries a site-specific knob (hang/slow
    duration in seconds).
    """

    site: str
    rate: float
    max_fires: int | None = None
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {', '.join(SITES)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be non-negative")


@dataclass
class _SiteState:
    invocations: int = 0
    fires: int = 0


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s with per-site invocation counters.

    :meth:`fire` is thread-safe; the decision for invocation *n* of a site
    is ``seed_for(seed, site, n) / 2**64 < rate`` (subject to the fire
    budget), so it depends only on the seed and how many times that site
    has been consulted -- never on wall clock or interleaving with other
    sites.
    """

    def __init__(self, seed: int, rules: list[FaultRule] | tuple[FaultRule, ...] = ()) -> None:
        self.seed = seed
        self.rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            self.rules[rule.site] = rule
        self._lock = threading.Lock()
        self._state: dict[str, _SiteState] = {site: _SiteState() for site in self.rules}

    def fire(self, site: str) -> FaultRule | None:
        """Consult the plan at ``site``; the rule when a fault fires, else None."""
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            state = self._state[site]
            count = state.invocations
            state.invocations += 1
            if rule.max_fires is not None and state.fires >= rule.max_fires:
                return None
            u = seed_for(self.seed, site, count) / _U64
            if u >= rule.rate:
                return None
            state.fires += 1
        return rule

    def report(self) -> dict[str, dict[str, int]]:
        """Per-site ``{invocations, fires}`` counters (snapshot)."""
        with self._lock:
            return {
                site: {"invocations": s.invocations, "fires": s.fires}
                for site, s in self._state.items()
            }

    #: Convenience used by tests to express "this plan cannot exhaust a
    #: retry budget": the summed budget of attempt-failing sites.
    def failure_budget(self) -> int | None:
        """Total crash+hang fire budget, or None if any is unbounded."""
        budget = 0
        for site in (EXECUTOR_CRASH, EXECUTOR_HANG):
            rule = self.rules.get(site)
            if rule is None:
                continue
            if rule.max_fires is None:
                return None
            budget += rule.max_fires
        return budget


# ---- process-global installation --------------------------------------------

_ACTIVE: FaultPlan | None = None
_INSTALL_LOCK = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process's active plan and plug the store seam."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = plan
        _results_store.FAULT_HOOK = plan.fire


def clear() -> None:
    """Remove any active plan (all sites become no-ops again)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = None
        _results_store.FAULT_HOOK = None


def active() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _ACTIVE


@contextlib.contextmanager
def installed(plan: FaultPlan):
    """Context manager: install ``plan`` for the block, then clear it."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def fire(site: str) -> FaultRule | None:
    """Consult the active plan at ``site`` (no-op without a plan)."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site)
