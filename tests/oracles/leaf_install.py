"""The Python leaf install: the reference of the compiled ``leaf_install``.

:meth:`~repro.core.packed_tree.PackedReduction.set_leaf` installs a leaf
curve with one call into the compiled library (``leaf_install`` in
``src/repro/_kernels.c``, the install's only implementation).  This module
is the same install one NumPy step at a time, as the reduction performed
it before the call existed:

* :func:`same_curve` -- whether two curves hold the same values (equal
  length, then ``==`` on every ``epi``, ``freq_idx`` and ``core_idx``
  entry, so ``-0.0`` equals ``0.0``);
* :class:`ReferenceLeaves` -- one reduction's leaf state under installs:
  the stored window of ``epi`` and of the ``(core, freq)`` settings, the
  finite box ``flo`` / ``fhi``, the dirty ``mark``, the ``stamp`` and the
  write count, kept per leaf in plain arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import EnergyCurve
from repro.util.validation import require

__all__ = ["ReferenceLeaves", "same_curve"]


def same_curve(a: EnergyCurve, b: EnergyCurve) -> bool:
    """True when ``b`` holds ``a``'s values (``==`` per entry).

    Curves that compare equal here are fully interchangeable in the global
    optimisation, argmin ties included, so a leaf holding one may keep its
    combined subtrees when handed the other.
    """
    if a is b:
        return True
    return (
        np.array_equal(a.epi, b.epi)
        and np.array_equal(a.freq_idx, b.freq_idx)
        and np.array_equal(a.core_idx, b.core_idx)
    )


class ReferenceLeaves:
    """The leaf state of one reduction, installed by the Python rule.

    ``nlo`` / ``nk`` are the leaves' stored ranges (first way, way count)
    and ``caps`` their groups' way caps, as the reduction's plan holds
    them.  :meth:`solved` records what a solve does to the leaf state (it
    clears every mark and the walk writes stamps), so the reference can
    follow a reduction through installs and solves alike.
    """

    def __init__(self, nlo, nk, caps) -> None:
        self.nlo = [int(v) for v in nlo]
        self.nk = [int(v) for v in nk]
        self.caps = [int(v) for v in caps]
        n = len(self.nlo)
        self.held: list[EnergyCurve | None] = [None] * n
        self.E = [np.full(k, np.inf) for k in self.nk]
        self.settings = [np.zeros((k, 2), np.int64) for k in self.nk]
        self.flo = [0] * n
        self.fhi = [-1] * n
        self.mark = [1] * n  # every leaf starts dirty
        self.stamp = [-1] * n
        self.writes = 0

    def set_leaf(self, slot: int, curve: EnergyCurve) -> bool:
        """Install ``curve`` at ``slot``; True when the leaf was written."""
        prev = self.held[slot]
        if prev is not None and not self.mark[slot]:
            if prev is curve or same_curve(prev, curve):
                self.held[slot] = curve
                return False
        require(curve.max_ways >= self.caps[slot], "leaf curve must span its group's way cap")
        nlo, nk = self.nlo[slot], self.nk[slot]
        window = slice(nlo - 1, nlo - 1 + nk)
        seg = self.E[slot]
        seg[:] = curve.epi[window]
        self.settings[slot][:, 0] = curve.core_idx[window]
        self.settings[slot][:, 1] = curve.freq_idx[window]
        fin = np.flatnonzero(np.isfinite(seg))
        if fin.size:
            self.flo[slot] = nlo + int(fin[0])
            self.fhi[slot] = nlo + int(fin[-1])
        else:
            self.flo[slot] = 0
            self.fhi[slot] = -1
        self.held[slot] = curve
        self.mark[slot] = 1
        self.stamp[slot] = -1
        self.writes += 1
        return True

    def invalidate(self, slot: int) -> None:
        """Force the leaf dirty."""
        self.mark[slot] = 1

    def solved(self, stamps) -> None:
        """A solve ran: every mark is clear and the leaves hold ``stamps``."""
        self.mark = [0] * len(self.mark)
        self.stamp = [int(s) for s in stamps]
