"""Per-core execution state: struct-of-arrays store plus thin views.

The engine's hot path -- finding the next interval completion, advancing
every core by the event span and retiring the completing core's interval
-- touches a handful of per-core fields.  They live in :class:`CoreArrays`
as the rows of one contiguous float64 lane buffer (``instr_done``,
``pending_stall_ns``, ``energy_nj``, ``tpi``, ``epi`` and ``idle_pad``,
the additive form of the ``active`` mask), so one event is one call at
any core count: :meth:`CoreArrays.step` hands the buffer's address to
``engine_step`` in the compiled library of :mod:`repro.kernels`,
which does the argmin, the advance of every active lane and the retire
in one pass each.  That call is the step's one implementation, so a
working C compiler is required (importing this module raises
:class:`ImportError` without one).

:class:`CoreRun` remains the per-core view the slow path works with --
tenancy changes, interval sampling, the manager bridge, result accounting.
Its hot fields are properties over the shared arrays (reads return plain
Python floats, so downstream ``repr``-based digests never see NumPy
scalars); everything touched only at interval boundaries (phase position,
round bookkeeping, last snapshot/record) stays an ordinary attribute.

The step is lane for lane the scalar reference step kept in
``tests/oracles/engine_step.py``, itself the frozen
``tests/oracles/legacy_sim.py`` implementation: serve pending stall
first, then retire ``dt / tpi`` instructions and charge their energy.
Idle lanes are skipped (the reference's early return) and active lanes
get an exact ``+ 0.0`` pad, a bitwise no-op on the non-negative state;
``tests/test_engine_vector.py`` enforces ``==`` against the reference
over randomised states and whole replays at 1..31 cores.
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.config import Allocation
from repro.simulation.database import PhaseRecord

__all__ = ["CoreArrays", "CoreRun"]

#: The compiled library, loaded once, at import; the packed reduction
#: shares the handle.
_kernel = kernels.shared()

#: The rows of the lane buffer, in the order ``_kernels.c``'s
#: ``engine_step`` reads them; the step's span follows the last row.
_LANES = ("instr_done", "pending_stall_ns", "energy_nj", "tpi", "epi", "idle_pad")


class CoreArrays:
    """Struct-of-arrays hot-path state shared by all cores of one run.

    One float64 row per field, indexed by core id; the rows are views of
    one contiguous lane buffer (see :data:`_LANES`), so never rebind them,
    only write into them.  ``tpi``/``epi`` are the per-instruction rate
    caches owned by the
    :class:`~repro.simulation.engine.scheduler.CompletionScheduler` (an
    entry is meaningful only while the scheduler holds it fresh); the
    remaining rows are authoritative core state.  ``idle_pad`` is ``0.0``
    on active lanes and ``inf`` on idle ones, and ``n_idle`` counts the
    idle lanes; write activity through :meth:`set_active`, which keeps
    the ``active`` mask and both in step.
    """

    __slots__ = ("n", *_LANES, "active", "n_idle", "_lanes", "_addr")

    def __init__(self, n: int) -> None:
        self.n = n
        # Every lane row, then one slot for the compiled step's span.
        self._lanes = np.zeros(len(_LANES) * n + 1)
        self._addr = self._lanes.ctypes.data
        for name, row in zip(_LANES, self._lanes[:-1].reshape(len(_LANES), n)):
            setattr(self, name, row)
        self.active = np.ones(n, dtype=bool)
        self.n_idle = 0

    def set_active(self, core_id: int, value: bool) -> None:
        """Write one lane's activity flag, its additive pad and the count."""
        value = bool(value)
        if self.active[core_id] != value:
            self.n_idle += -1 if value else 1
        self.active[core_id] = value
        self.idle_pad[core_id] = 0.0 if value else math.inf

    def step(self, interval_instructions: float) -> tuple[int, float]:
        """One event: ``(j, dt)`` of the earliest interval completion, with
        every active lane advanced by ``dt`` and lane ``j`` retired.

        Lane ``j`` instead retires its interval's remaining instructions
        exactly: ``energy_nj[j]`` becomes its energy before the advance
        plus ``(interval_instructions - instr_done[j]) * epi[j]``, both
        read before the advance, and its pending stall is cleared.  Its
        ``instr_done`` is left advanced; the caller resets it.  Requires
        the ``tpi``/``epi`` entries of every active lane to be fresh.

        One ``engine_step`` call into the compiled library.  Lane by lane
        this is the scalar reference's arithmetic: the completion is the
        first minimum of ``(interval_instructions - instr_done) * tpi +
        pending_stall_ns`` over the active lanes, so ties break to the
        lowest core id (``(0, inf)`` with no active lane); each active lane
        serves ``min(pending, dt)`` of stall, then retires ``(dt - served)
        / tpi`` instructions and charges them at ``epi``.
        """
        j = _kernel.engine_step(self._addr, self.n, interval_instructions, self.n_idle)
        return j, self._lanes.item(-1)


class CoreRun:
    """Per-core view over :class:`CoreArrays` plus the slow-path state."""

    __slots__ = (
        "arrays",
        "core_id",
        "app",
        "seq",
        "slack",
        "alloc",
        "slice_idx",
        "intervals",
        "rounds",
        "interval_start_ns",
        "first_round_time_ns",
        "first_round_energy_nj",
        "last_snapshot",
        "last_record",
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
        arrays.set_active(core_id, active)

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
        """Store the activity flag into the shared mask (and its pad)."""
        self.arrays.set_active(self.core_id, value)
