"""Per-core execution state: struct-of-arrays store plus thin views.

The engine's hot path -- advancing every core by the event span and finding
the next interval completion -- used to walk a Python list of per-core
objects, which is an O(N)-per-event interpreter tax at 64-256 cores.  The
state those two operations touch now lives in :class:`CoreArrays`, one
NumPy vector per field (``instr_done``, ``pending_stall_ns``,
``energy_nj``, ``tpi``, ``epi`` and the ``active`` mask), so the kernel
advances all cores with a handful of vector operations
(:meth:`CoreArrays.advance_all`) and the scheduler finds the earliest
completion with one masked argmin (:meth:`CoreArrays.next_completion`).

:class:`CoreRun` remains the per-core view the slow path works with --
tenancy changes, interval sampling, the manager bridge, result accounting.
Its hot fields are properties over the shared arrays (reads return plain
Python floats, so downstream ``repr``-based digests never see NumPy
scalars); everything touched only at interval boundaries (phase position,
round bookkeeping, last snapshot/record) stays an ordinary attribute.

:func:`advance_core` is kept as the executable *scalar* reference of the
advance arithmetic -- serve pending stall first, then retire ``dt / tpi``
instructions and charge their energy -- exactly the frozen
``tests/oracles/legacy_sim.py`` implementation.  The vectorised path
performs the same IEEE operations lane-by-lane (subtracting a served stall
of ``0.0`` and adding a retired-instruction count of ``0.0`` are bitwise
no-ops on the non-negative state), so results are bit-identical; the
property suite in ``tests/test_engine_vector.py`` enforces ``==`` between
the two over randomised states, and the golden equivalence suite enforces
it end-to-end.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import Allocation
from repro.simulation.database import PhaseRecord

__all__ = ["CoreArrays", "CoreRun", "advance_core"]


class CoreArrays:
    """Struct-of-arrays hot-path state shared by all cores of one run.

    One float64 vector per field, indexed by core id.  ``tpi``/``epi`` are
    the per-instruction rate caches owned by the
    :class:`~repro.simulation.engine.scheduler.CompletionScheduler` (an
    entry is meaningful only while the scheduler's valid flag for that core
    is set); the remaining vectors are authoritative core state.
    """

    __slots__ = (
        "n", "instr_done", "pending_stall_ns", "energy_nj",
        "tpi", "epi", "active",
        "_mask", "_run", "_nmask", "_served", "_rem", "_instr", "_tmp",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.instr_done = np.zeros(n)
        self.pending_stall_ns = np.zeros(n)
        self.energy_nj = np.zeros(n)
        self.tpi = np.zeros(n)
        self.epi = np.zeros(n)
        self.active = np.ones(n, dtype=bool)
        # Per-event scratch (reused across events; the hot path is serial).
        self._mask = np.empty(n, dtype=bool)
        self._run = np.empty(n, dtype=bool)
        self._nmask = np.empty(n, dtype=bool)
        self._served = np.empty(n)
        self._rem = np.empty(n)
        self._instr = np.empty(n)
        self._tmp = np.empty(n)

    def advance_all(self, dt: float, exclude: int | None = None) -> None:
        """Vectorised :func:`advance_core` over every active core but one.

        ``exclude`` is the completing core of the current event (the kernel
        retires its interval exactly instead).  Lane-by-lane this performs
        the scalar reference's operations in the same order -- ``served =
        min(pending, dt)``, ``rem = dt - served``, ``instr = rem / tpi`` --
        with excluded/idle/fully-stalled lanes receiving exact ``+ 0.0`` /
        ``- 0.0`` updates, which are bitwise identity on the non-negative
        state vectors.  Requires the scheduler to have refreshed the
        ``tpi``/``epi`` entries of every active core (the preceding
        ``next_completion`` call does).
        """
        if dt <= 0.0:
            return
        mask = self._mask
        np.copyto(mask, self.active)
        if exclude is not None:
            mask[exclude] = False
        pending = self.pending_stall_ns
        # served = min(pending, dt) on selected lanes, exact 0.0 elsewhere
        # (multiplying the non-negative minimum by the boolean mask is a
        # bitwise-exact select: x * 1.0 == x, x * 0.0 == +0.0 for x >= 0).
        served = np.minimum(pending, dt, out=self._served)
        np.multiply(served, mask, out=served)
        rem = np.subtract(dt, served, out=self._rem)
        run = np.greater(rem, 0.0, out=self._run)
        np.logical_and(run, mask, out=run)
        instr = self._instr
        instr.fill(0.0)
        np.divide(rem, self.tpi, out=instr, where=run)
        pending -= served
        self.instr_done += instr
        self.energy_nj += np.multiply(instr, self.epi, out=self._tmp)

    def next_completion(self, interval_instructions: float) -> tuple[int, float]:
        """(core id, remaining ns) of the earliest interval completion.

        One masked argmin over ``pending_stall_ns + (interval_instructions
        - instr_done) * tpi``; inactive lanes are masked to ``inf``.
        ``np.argmin`` returns the *first* minimum, reproducing the scalar
        loop's lowest-core-id tie-break exactly.  With no active core the
        result is ``(0, inf)``, matching the scalar reference.
        """
        remaining = np.subtract(interval_instructions, self.instr_done,
                                out=self._rem)
        remaining *= self.tpi
        remaining += self.pending_stall_ns
        np.logical_not(self.active, out=self._nmask)
        remaining[self._nmask] = math.inf
        j = int(np.argmin(remaining))
        return j, float(remaining[j])


class CoreRun:
    """Per-core view over :class:`CoreArrays` plus the slow-path state."""

    __slots__ = (
        "arrays", "core_id", "app", "seq", "slack", "alloc", "slice_idx",
        "intervals", "rounds", "interval_start_ns", "first_round_time_ns",
        "first_round_energy_nj", "last_snapshot", "last_record",
        "energy_interval_start_nj",
    )

    def __init__(
        self,
        arrays: CoreArrays,
        core_id: int,
        app: str,
        seq: tuple[int, ...],
        slack: float,
        alloc: Allocation,
        active: bool = True,
    ) -> None:
        self.arrays = arrays
        self.core_id = core_id
        self.app = app
        self.seq = seq
        self.slack = slack
        self.alloc = alloc
        self.slice_idx = 0
        self.intervals = 0
        self.rounds = 0
        self.interval_start_ns = 0.0
        self.first_round_time_ns: float | None = None
        self.first_round_energy_nj: float | None = None
        self.last_snapshot: object = None
        self.last_record: PhaseRecord | None = None
        # Energy accrued up to the start of the in-flight interval; scenario
        # accounting scores completed intervals only (equal work per manager).
        self.energy_interval_start_nj = 0.0
        arrays.active[core_id] = active

    # -- array-backed hot fields (reads return plain Python scalars) ----------
    @property
    def instr_done(self) -> float:
        """Instructions retired in the in-flight interval."""
        return float(self.arrays.instr_done[self.core_id])

    @instr_done.setter
    def instr_done(self, value: float) -> None:
        """Store retirement progress into the shared vector."""
        self.arrays.instr_done[self.core_id] = value

    @property
    def pending_stall_ns(self) -> float:
        """Reconfiguration/warm-up stall still to serve before retiring."""
        return float(self.arrays.pending_stall_ns[self.core_id])

    @pending_stall_ns.setter
    def pending_stall_ns(self, value: float) -> None:
        """Store the pending stall into the shared vector."""
        self.arrays.pending_stall_ns[self.core_id] = value

    @property
    def energy_nj(self) -> float:
        """Total energy accrued by this core so far."""
        return float(self.arrays.energy_nj[self.core_id])

    @energy_nj.setter
    def energy_nj(self, value: float) -> None:
        """Store the accrued energy into the shared vector."""
        self.arrays.energy_nj[self.core_id] = value

    @property
    def active(self) -> bool:
        """False while the core idles (power-gated) between tenants."""
        return bool(self.arrays.active[self.core_id])

    @active.setter
    def active(self, value: bool) -> None:
        """Store the activity flag into the shared mask."""
        self.arrays.active[self.core_id] = value

    @property
    def done_first_round(self) -> bool:
        """Whether the core has completed one full round of its trace."""
        return self.first_round_time_ns is not None


def advance_core(core, dt: float, tpi: float, epi: float) -> None:
    """Advance one core by ``dt`` ns at the cached ``tpi``/``epi`` rates.

    The scalar reference of :meth:`CoreArrays.advance_all`: pending
    reconfiguration stall is served before any instructions retire; a core
    that spends the whole span stalled makes no progress.  ``core`` is
    anything exposing mutable ``instr_done`` / ``pending_stall_ns`` /
    ``energy_nj`` / ``active`` fields (a :class:`CoreRun` view or a plain
    test double).
    """
    if dt <= 0.0 or not core.active:
        return
    if core.pending_stall_ns > 0.0:
        served = min(core.pending_stall_ns, dt)
        core.pending_stall_ns -= served
        dt -= served
        if dt <= 0.0:
            return
    instr = dt / tpi
    core.instr_done += instr
    core.energy_nj += instr * epi
