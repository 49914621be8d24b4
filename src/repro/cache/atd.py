"""Auxiliary Tag Directory: stack-distance profiling of an access trace.

The ATD (Qureshi & Patt, MICRO 2006) shadows the tags of the LLC and counts,
for each access, the LRU *stack distance* -- the position the line would
occupy in a fully-provisioned set.  By the LRU inclusion property, the hit
count for a ``w``-way allocation is the number of accesses with distance
``<= w``; a single pass therefore yields the complete miss curve
``misses(w)``, which is the input to the paper's performance model.

Real ATDs sample a few dozen sets to keep hardware cost negligible; the
online reading the RMA sees is produced by :func:`atd_profile` on the
set-restricted sub-trace (see ``AccessTrace.restrict_to_sets``), which is the
paper's (and our) source of cache-curve sampling error.

:func:`stack_distances` walks each set's LRU stack, most recent line
first, truncated at ``max_ways``: an access whose line sits at position
``d`` has distance ``d + 1`` and moves it to the front; any other access
misses at every allocation up to ``max_ways`` (``COLD``) and pushes its
line on, dropping the set's least recent line when the stack is full.  By
LRU inclusion a line deeper than ``max_ways`` misses at every allocation
of interest, so tracking only ``max_ways`` ways, as the hardware does,
loses nothing.  The walk is one call to ``lru_stack_distances`` in the
compiled library (:mod:`repro.kernels`); the same walk in Python is the
test oracle in ``tests/oracles/lru_stack.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.util.validation import require
from repro.workloads.address_gen import AccessTrace

__all__ = ["ATDProfile", "stack_distances", "atd_profile", "miss_curve_mpki"]

#: Stack distance assigned to cold misses / distances beyond the tracked ways.
COLD = np.iinfo(np.int32).max

_kernel = kernels.shared()


def stack_distances(trace: AccessTrace, max_ways: int, nsets: int) -> np.ndarray:
    """Per-access LRU stack distances (1-based; ``COLD`` for misses at any w).

    One compiled per-set MRU walk over ``nsets`` stacks of ``max_ways``
    ways (see the module docstring).  A line is the ``(set, line)`` pair:
    generated traces draw line ids from one pool shared by all sets.
    """
    require(max_ways >= 1, "max_ways must be >= 1")
    n = trace.n_accesses
    sets = np.ascontiguousarray(trace.set_ids, dtype=np.int64)
    require(n == 0 or (sets.min() >= 0 and sets.max() < nsets), "set ids must lie in [0, nsets)")
    lines = np.ascontiguousarray(trace.line_ids, dtype=np.int64)
    dists = np.empty(n, dtype=np.int32)
    stacks = np.empty(nsets * max_ways, dtype=np.int64)
    depth = np.zeros(nsets, dtype=np.int64)
    _kernel.lru_stack_distances(
        sets.ctypes.data,
        lines.ctypes.data,
        n,
        max_ways,
        stacks.ctypes.data,
        depth.ctypes.data,
        dists.ctypes.data,
    )
    return dists


@dataclass(frozen=True)
class ATDProfile:
    """Way-hit counters plus the derived miss curve for one phase's trace.

    Attributes
    ----------
    hits_at_distance:
        ``hits_at_distance[d-1]`` = accesses whose stack distance is exactly
        ``d`` (the hardware's per-way hit counters).
    misses:
        ``misses[w-1]`` = misses with a ``w``-way allocation.
    accesses:
        Total accesses profiled.
    instructions:
        Instructions spanned by the profiled trace (for MPKI conversion).
    """

    hits_at_distance: np.ndarray  # (max_ways,)
    misses: np.ndarray  # (max_ways,)
    accesses: int
    instructions: float

    def __post_init__(self) -> None:
        require(len(self.hits_at_distance) == len(self.misses), "length mismatch")

    @property
    def max_ways(self) -> int:
        return int(len(self.misses))

    def mpki(self) -> np.ndarray:
        """Misses per kilo-instruction as a function of way allocation."""
        return self.misses / self.instructions * 1000.0

    def apki(self) -> float:
        """LLC accesses per kilo-instruction."""
        return self.accesses / self.instructions * 1000.0

    def hit_curve(self) -> np.ndarray:
        """Hits as a function of way allocation (non-decreasing)."""
        return np.cumsum(self.hits_at_distance)


def atd_profile(
    dists: np.ndarray,
    max_ways: int,
    instructions: float,
    scale: float = 1.0,
) -> ATDProfile:
    """Build an :class:`ATDProfile` from per-access stack distances.

    ``scale`` extrapolates sampled-set counts to the full cache (the hardware
    multiplies its counters by ``total_sets / sampled_sets``; rates like MPKI
    are invariant to it because instructions are not scaled -- we scale the
    *instructions* down instead so both counts and rates stay consistent).
    """
    clipped = np.where(dists == COLD, max_ways + 1, dists)
    hist = np.bincount(clipped, minlength=max_ways + 2)
    hits_at_distance = hist[1 : max_ways + 1].astype(np.int64)
    n = int(len(dists))
    misses = n - np.cumsum(hits_at_distance)
    return ATDProfile(
        hits_at_distance=hits_at_distance,
        misses=misses.astype(np.int64),
        accesses=n,
        instructions=instructions * scale,
    )


def miss_curve_mpki(trace: AccessTrace, max_ways: int, nsets: int) -> np.ndarray:
    """Convenience: MPKI(w) for ``trace`` in one call."""
    dists = stack_distances(trace, max_ways, nsets)
    return atd_profile(dists, max_ways, trace.instructions).mpki()
