"""The manager bridge: the narrow API resource managers are driven through.

:mod:`repro.core.managers` was written against the monolithic simulator's
surface; the bridge pins that surface down as an explicit contract --
``system`` and seven read methods, none of them optional -- so the kernel
behind it can be restructured freely without touching manager code.
``manager.attach`` receives the bridge, and every read a manager performs
goes through it.  It carries no timing hooks: layer timings come from
wrappers installed around the entry points from outside the program.
"""

from __future__ import annotations

import numpy as np

from repro.config import Allocation
from repro.simulation.database import PhaseRecord
from repro.util.validation import require

__all__ = ["ManagerBridge"]


class ManagerBridge:
    """Read-only view of kernel state exposed to resource managers."""

    def __init__(self, kernel) -> None:
        # The kernel's parts, not the kernel: the kernel holds the bridge
        # and the manager (which holds the bridge), so a reference back
        # would put a finished replay's whole object graph -- the
        # manager's curve memo included -- in a cycle that only the cyclic
        # garbage collector frees, whenever it next runs.
        self._cores = kernel.cores
        self._arrays = kernel.arrays
        self._record = kernel.scheduler.record
        #: The platform under management (managers read dimension spaces,
        #: baseline allocation and QoS anchor from it).
        self.system = kernel.system

    def slack(self, core_id: int) -> float:
        """The core's current QoS slack (0.0 = strict baseline QoS)."""
        return self._cores[core_id].slack

    def current_alloc(self, core_id: int) -> Allocation:
        """The core's currently applied (core size, VF, ways) setting."""
        return self._cores[core_id].alloc

    def is_active(self, core_id: int) -> bool:
        """False while the core idles between scenario tenants."""
        return self._cores[core_id].active

    def completed_snapshot(self, core_id: int):
        """Hardware-counter snapshot of the last completed interval."""
        return self._cores[core_id].last_snapshot

    def completed_record(self, core_id: int) -> PhaseRecord:
        """Database record (sampled ATD curves) of the last completed interval."""
        rec = self._cores[core_id].last_record
        require(rec is not None, "no completed interval yet")
        return rec

    # -- batched accessors (the vectorised manager pipeline) -------------------
    def active_core_ids(self) -> list[int]:
        """Cores currently executing a tenant, in core order.

        One vector read of the struct-of-arrays active mask (plain ``int``
        ids, so they key manager dicts exactly like the per-core path's).
        """
        return [int(j) for j in np.nonzero(self._arrays.active)[0]]

    def upcoming_records(self, core_ids: list[int]) -> list[PhaseRecord]:
        """Records of the slices the cores are currently executing (the
        oracle view): one scheduler read per core.

        The batched manager pipeline stacks these records' grids into
        ``(N, C, F, W)`` tensors.
        """
        record = self._record
        return [record(j) for j in core_ids]
