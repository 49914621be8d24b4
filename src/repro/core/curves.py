"""Per-core energy curves: the interface between local and global optimisation.

The local optimisation collapses the per-core configuration space to one
curve ``E*(w)`` -- for every way allocation the minimum predicted energy per
instruction over the (QoS-feasible) frequency/core-size choices, remembering
which ``(c*, f*)`` achieved it.  The global optimiser then only reasons about
way allocations.

A curve is a function of its content alone -- a core's counters, its
sampled ATD curves and its QoS slack -- and carries no core label: the
reduction knows which core a curve belongs to from the leaf slot it is
installed at (slot ``j`` is core ``j``), so one curve object may serve
every core whose content matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.validation import require

__all__ = ["EnergyCurve"]


@dataclass(frozen=True)
class EnergyCurve:
    """``E*(w)`` with the argmin settings; infeasible ``w`` hold ``inf``."""

    epi: np.ndarray        # (W,) nJ/instr; np.inf where no feasible (c, f)
    freq_idx: np.ndarray   # (W,) int
    core_idx: np.ndarray   # (W,) int

    def __post_init__(self) -> None:
        require(self.epi.ndim == 1, "epi must be 1-D over ways")
        require(
            len(self.freq_idx) == len(self.epi) and len(self.core_idx) == len(self.epi),
            "curve arrays must have equal length",
        )

    @property
    def max_ways(self) -> int:
        """The largest way allocation the curve covers (its array length)."""
        return int(len(self.epi))

    @cached_property
    def packed(self) -> tuple[int, np.ndarray]:
        """``(address, buffer)``: the curve as one int64 buffer, the form
        the packed reduction's compiled leaf install reads -- its length
        ``W``, then ``epi`` as float64, then ``freq_idx`` and ``core_idx``
        as int64, ``W`` entries each.  Built on first use and kept with the
        curve (curves are never mutated), so a curve installed many times
        is packed once; the address is valid while the curve lives.
        """
        w = self.max_ways
        buf = np.empty(1 + 3 * w, dtype=np.int64)
        buf[0] = w
        buf[1 : 1 + w].view(np.float64)[:] = self.epi
        buf[1 + w : 1 + 2 * w] = self.freq_idx
        buf[1 + 2 * w :] = self.core_idx
        return buf.ctypes.data, buf

    def __getstate__(self) -> dict:
        # A copy packs its own buffer: the cached address is this object's.
        state = dict(self.__dict__)
        state.pop("packed", None)
        return state

    def setting_at(self, ways: int) -> tuple[int, int, int]:
        """(core_idx, freq_idx, ways) chosen at allocation ``ways``."""
        require(np.isfinite(self.epi[ways - 1]), f"ways={ways} is infeasible")
        return int(self.core_idx[ways - 1]), int(self.freq_idx[ways - 1]), ways

    @staticmethod
    def pinned(
        ways: int, core_idx: int, freq_idx: int, max_ways: int, epi: float = 0.0
    ) -> "EnergyCurve":
        """A curve feasible only at ``ways`` (e.g. a core with no statistics yet).

        The paper's RMA "keeps the baseline resource setting" for cores whose
        last-interval statistics are not yet available; a pinned curve makes
        the global optimiser hand such a core exactly its current allocation.
        ``epi=0`` keeps it neutral in the objective.
        """
        e = np.full(max_ways, np.inf)
        f = np.zeros(max_ways, dtype=int)
        c = np.zeros(max_ways, dtype=int)
        e[ways - 1] = epi
        f[ways - 1] = freq_idx
        c[ways - 1] = core_idx
        return EnergyCurve(epi=e, freq_idx=f, core_idx=c)
