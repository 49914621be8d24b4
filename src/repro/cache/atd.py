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

:func:`stack_distances` computes the distances without simulating the LRU
stacks.  Number each set's accesses ``0, 1, ...`` in program order and let
``prev[i]`` be the index of the previous access to the same line in the same
set (``-1`` if none).  The stack distance of access ``i`` with
``p = prev[i] >= 0`` is one plus the number of distinct lines the set
touched since ``p`` (Mattson et al., IBM Syst. J. 1970), and the first
touch of each of those lines is exactly an access ``p < j < i`` with
``prev[j] < p`` (Bennett & Kruskal, IBM Syst. J. 1975).  Every ``j <= p``
also has ``prev[j] < p``, so

    distance(i) = #{j < i : prev[j] < p} - p,

a two-dimensional dominance count, computed for all accesses at once.
Distances above ``max_ways`` become ``COLD``: by LRU inclusion a line that
deep misses at every allocation up to ``max_ways``, so truncating the exact
distance there is the same as tracking only ``max_ways`` ways, as the
hardware does.  The per-set MRU walk this replaced is kept as the test
oracle in ``tests/oracles/lru_stack.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require
from repro.workloads.address_gen import AccessTrace

__all__ = ["ATDProfile", "stack_distances", "atd_profile", "miss_curve_mpki"]

#: Stack distance assigned to cold misses / distances beyond the tracked ways.
COLD = np.iinfo(np.int32).max


def _sort_index(keys: np.ndarray, bits: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` with one value sort.

    The position rides in the low ``bits`` bits (``len(keys) < 2**bits``),
    so equal keys keep their order.
    """
    return np.sort((keys << bits) | np.arange(len(keys))) & ((1 << bits) - 1)


def _count_earlier_below(set_at: np.ndarray, local: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``#{j : same set, local[j] < local[t], values[j] < values[t]}`` per ``t``.

    ``set_at``/``local`` give each position's set and index within it (the
    sets contiguous, in order); ``values >= -1`` are distinct apart from
    ``-1``, and the count of a ``-1`` is not used.  A bottom-up merge sort
    over each set's aligned blocks: level ``b`` sorts blocks of ``2**b``
    positions by value with one sort of ``(block, value, offset)`` keys, in
    which the two sorted halves of a block form two runs.  A position that
    came from the right half landed after exactly the left-half values
    below it -- its new offset minus its offset within the right half --
    which is its count over that half.  Every earlier position of the set
    is in the left sibling block of exactly one level, so the level counts
    sum to the total in ``ceil(log2(largest set))`` passes.
    """
    n = len(local)
    pos = np.arange(n)
    span = int(local.max()) + 2  # values + 1 lie in [0, span)
    levels = max(span - 2, 1).bit_length()  # 2**levels >= largest set
    aligned = (set_at << levels) | local  # blocks never straddle two sets
    val = values + 1
    perm = pos
    count = np.zeros(n, dtype=np.int64)
    for b in range(1, levels + 1):
        mask = (1 << b) - 1
        off = local & mask
        keys = (((aligned >> b) * span + val) << b) | off
        keys.sort()
        src = keys & mask  # offset the position held before the merge
        old = pos - off + src
        val = val[old]
        count = count[old] + (src >> (b - 1)) * (off - src + (1 << (b - 1)))
        perm = perm[old]
    out = np.empty(n, dtype=np.int64)
    out[perm] = count
    return out


def stack_distances(trace: AccessTrace, max_ways: int, nsets: int) -> np.ndarray:
    """Per-access LRU stack distances (1-based; ``COLD`` for misses at any w).

    ``distance(i) = #{j < i : prev[j] < prev[i]} - prev[i]`` within each set
    (see the module docstring), truncated at ``max_ways``: deeper distances
    miss at every allocation of interest, as in the hardware ATD, which has
    exactly ``max_ways`` ways.  The key of ``prev`` is the ``(set, line)``
    pair -- generated traces draw line ids from one pool shared by all sets.
    No step depends on ``max_ways``.
    """
    require(max_ways >= 1, "max_ways must be >= 1")
    n = trace.n_accesses
    dists = np.full(n, COLD, dtype=np.int32)
    if n == 0:
        return dists
    bits = n.bit_length()
    # Set-major layout: each set's accesses contiguous, in program order.
    sets = trace.set_ids.astype(np.int64)
    by_set = _sort_index(sets, bits)
    set_at = sets[by_set]
    counts = np.bincount(set_at, minlength=nsets)
    local = np.arange(n) - (np.cumsum(counts) - counts)[set_at]
    # Sorted by line, each line's accesses run set by set in program order,
    # so neighbours with equal (set, line) are consecutive uses.
    line_at = np.unique(trace.line_ids, return_inverse=True)[1].reshape(-1)[by_set]
    order = _sort_index(line_at, bits)
    a, b = order[:-1], order[1:]
    again = (line_at[a] == line_at[b]) & (set_at[a] == set_at[b])
    prev = np.full(n, -1, dtype=np.int64)
    prev[b[again]] = local[a[again]]
    dist = _count_earlier_below(set_at, local, prev) - prev
    dists[by_set] = np.where((prev >= 0) & (dist <= max_ways), dist, COLD)
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
