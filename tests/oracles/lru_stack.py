"""Per-set LRU stacks: the golden reference for the dominance-count ATD.

Two executable specifications of true-LRU behaviour, kept verbatim from the
production code they used to be:

* :func:`stack_distances` -- the per-access walk over MRU-first lists, one
  per set, truncated at ``max_ways`` (``list.index`` finds the line's depth,
  ``insert`` moves it to the front).  :func:`repro.cache.atd.stack_distances`
  computes the same array without the walk;
* :class:`LRUSetCache` -- a set-associative cache of a fixed way count,
  simulated access by access.  By the LRU inclusion property its miss count
  at ``w`` ways equals the ATD's miss curve at ``w``, which the tests check
  one allocation at a time.

``tests/test_cache.py`` asserts the production distances are byte-identical
to :func:`stack_distances` on arbitrary streams.  Do not "fix" or optimise
this module: its value is that it never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.atd import COLD
from repro.util.validation import require
from repro.workloads.address_gen import AccessTrace

__all__ = ["stack_distances", "LRUSetCache"]


def stack_distances(trace: AccessTrace, max_ways: int, nsets: int) -> np.ndarray:
    """Per-access LRU stack distances (1-based; ``COLD`` for misses at any w).

    Implemented with per-set MRU-first lists truncated at ``max_ways``:
    distances beyond the largest allocation of interest are misses for every
    allocation, so deeper tracking would be wasted work (this mirrors the
    hardware, whose ATD has exactly ``max_ways`` ways).
    """
    require(max_ways >= 1, "max_ways must be >= 1")
    dists = np.full(trace.n_accesses, COLD, dtype=np.int32)
    stacks: list[list[int]] = [[] for _ in range(nsets)]
    set_list = trace.set_ids.tolist()
    line_list = trace.line_ids.tolist()
    for i, (s, line) in enumerate(zip(set_list, line_list)):
        stack = stacks[s]
        try:
            idx = stack.index(line)
        except ValueError:
            stack.insert(0, line)
            if len(stack) > max_ways:
                stack.pop()
            continue
        dists[i] = idx + 1
        stack.pop(idx)
        stack.insert(0, line)
    return dists


@dataclass
class LRUSetCache:
    """A cache with ``nsets`` sets of ``ways`` ways, true-LRU replacement.

    Lines are identified by ``(set_id, line_id)``; each set keeps an MRU-first
    list.  ``access`` returns True on hit.
    """

    nsets: int
    ways: int
    _sets: list[list[int]] = field(init=False, repr=False)
    hits: int = field(init=False, default=0)
    misses: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        require(self.nsets >= 1, "nsets must be >= 1")
        require(self.ways >= 1, "ways must be >= 1")
        self._sets = [[] for _ in range(self.nsets)]

    def access(self, set_id: int, line_id: int) -> bool:
        """Access a line, updating LRU state; returns True on a hit."""
        stack = self._sets[set_id]
        try:
            idx = stack.index(line_id)
        except ValueError:
            self.misses += 1
            stack.insert(0, line_id)
            if len(stack) > self.ways:
                stack.pop()
            return False
        self.hits += 1
        stack.pop(idx)
        stack.insert(0, line_id)
        return True

    def resident_lines(self, set_id: int) -> tuple[int, ...]:
        """Lines currently resident in ``set_id`` (MRU first)."""
        return tuple(self._sets[set_id])

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
