"""Greedy leading-miss grouping: the golden reference for the vectorised one.

This is the per-miss Python loop that :func:`repro.mem.mlp.leading_miss_groups`
replaced, kept verbatim as the executable specification of the grouping.
Walking the stream in order, the current group's leader ``i`` admits the
next miss while it lies inside the leader's instruction window, a miss
register is free, and its dependence chain is not already in the group; the
first miss refused leads the next group.

``tests/test_mlp.py`` asserts that the production count equals this one on
arbitrary streams (non-monotone chain ids, position ties, windows that land
exactly on a position) and that ``mlp_grid`` built on top of it is
byte-identical.  Do not "fix" or optimise this module: its value is that it
never changes.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require

__all__ = ["leading_miss_groups"]


def leading_miss_groups(
    instr_pos: np.ndarray,
    chain_ids: np.ndarray,
    window: float,
    mshrs: int,
) -> int:
    """Number of leading-miss groups in a miss stream (greedy grouping)."""
    require(mshrs >= 1, "mshrs must be >= 1")
    n = len(instr_pos)
    if n == 0:
        return 0
    pos = instr_pos.tolist()
    chains = chain_ids.tolist()
    groups = 0
    i = 0
    while i < n:
        groups += 1
        window_end = pos[i] + window
        group_chains = {chains[i]}
        count = 1
        j = i + 1
        while j < n and pos[j] < window_end and count < mshrs:
            if chains[j] in group_chains:
                break  # dependent miss: must wait for its parent to return
            group_chains.add(chains[j])
            count += 1
            j += 1
        i = j
    return groups
