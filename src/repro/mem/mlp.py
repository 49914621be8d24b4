"""Memory-level parallelism from miss streams: the leading-miss model.

The execution time impact of a cache miss depends on whether it overlaps
earlier outstanding misses.  Following the leading-loads literature the paper
builds on (Su et al., USENIX ATC'14; Miftakhutdinov et al., MICRO'12), only
the *leading* miss of each overlap group contributes a full memory latency;
misses that issue while a group is outstanding are hidden.

A miss can join the current group only if

* it falls inside the leader's instruction window (ROB of the core size),
* a miss register (MSHR) is free, and
* it does not *depend* on a miss already in the group (same dependence
  chain) -- a dependent load cannot issue before its parent returns.

``MLP = misses / groups`` is then the overlap factor the timing model divides
the miss latency by.  Paper II's parallelism-sensitivity arises here: the
effective window/MSHR resources interpolate between the baseline core and the
actual core size with weight ``mlp_sensitivity``.

Grouping is greedy: walking the stream in order, the leader ``i`` admits
misses until the first one it must refuse, which leads the next group.  So a
group led by ``i`` ends at the first ``k > i`` that breaks one of the rules:

* window: ``pos[k] >= pos[i] + window`` -- one ``searchsorted`` over the
  non-decreasing positions for every ``i`` at once;
* MSHRs: ``k = i + mshrs``;
* dependence: ``chains[k]`` already occurs in ``chains[i:k]`` -- the reverse
  running minimum of each miss's next same-chain index, exact for any chain
  ids.

and ``end[i]`` is the smallest of the three (at least ``i + 1``).  Every rule
depends only on ``i`` and the misses after it, not on how the stream was
grouped before ``i``, so the greedy loop visits exactly the leaders
``0, end[0], end[end[0]], ...`` and the group count is the number of hops
from 0 to ``n``.  Pointer doubling counts them in ``ceil(log2(groups))``
array passes instead of one Python step per miss; the integer it returns is
the loop's (the loop itself is kept as the test oracle in
``tests/oracles/leading_miss.py``).  :func:`mlp_grid` shares each
allocation's miss selection and dependence ends across the core sizes, whose
streams differ only in window and MSHRs.
"""

from __future__ import annotations

import numpy as np

from repro.config import CoreSize, SystemConfig
from repro.util.validation import require

__all__ = ["leading_miss_groups", "mlp_of_misses", "mlp_grid", "effective_window"]

#: Cap on misses examined per (c, w) point; beyond this the estimate has
#: converged and extra work is wasted (the hardware, likewise, samples).
MAX_MISSES_SAMPLED = 6000


def _require_sorted(instr_pos: np.ndarray) -> None:
    require(
        bool(np.all(instr_pos[1:] >= instr_pos[:-1])),
        "miss positions must be non-decreasing",
    )


def _dependence_ends(chain_ids: np.ndarray) -> np.ndarray:
    """``dep[i]``: first ``k > i`` whose chain already occurs in ``chains[i:k]``.

    Each miss's next same-chain index comes from a stable argsort on chain
    id (``n`` when its chain does not recur); the first repeat after ``i`` is
    the smallest of those over ``m >= i`` -- a reverse running minimum.
    """
    n = len(chain_ids)
    order = np.argsort(chain_ids, kind="stable")
    same = chain_ids[order[1:]] == chain_ids[order[:-1]]
    next_same = np.full(n, n, dtype=np.intp)
    next_same[order[:-1][same]] = order[1:][same]
    return np.minimum.accumulate(next_same[::-1])[::-1]


def _count_groups(pos: np.ndarray, dep: np.ndarray, window: float, mshrs: int) -> int:
    """Greedy group count of a non-empty stream with dependence ends ``dep``."""
    n = len(pos)
    leaders = np.arange(n)
    # end[i]: where a group led by i stops -- the first miss outside the
    # window, past the MSHRs, or dependent on a group member; >= i + 1.
    end = np.searchsorted(pos, pos + window, side="left")
    np.minimum(end, leaders + min(mshrs, n), out=end)
    np.minimum(end, dep, out=end)
    np.maximum(end, leaders + 1, out=end)
    # Hop 0 -> end[0] -> ... -> n by pointer doubling: after each round
    # hop[i] is 2**r greedy steps ahead of i and steps[i] counts them, with
    # n absorbing (it takes no steps).
    hop = np.append(end, n)
    steps = np.ones(n + 1, dtype=np.intp)
    steps[n] = 0
    while hop[0] < n:
        steps += steps[hop]
        hop = hop[hop]
    return int(steps[0])


def leading_miss_groups(
    instr_pos: np.ndarray,
    chain_ids: np.ndarray,
    window: float,
    mshrs: int,
) -> int:
    """Number of leading-miss groups in a miss stream (greedy grouping).

    ``instr_pos`` must be non-decreasing, as the cumulative instruction
    positions of a trace are; the window rule is a binary search on it.
    """
    require(mshrs >= 1, "mshrs must be >= 1")
    n = len(instr_pos)
    if n == 0:
        return 0
    # float64 positions make ``pos + window`` round as Python floats do.
    pos = np.asarray(instr_pos, dtype=np.float64)
    _require_sorted(pos)
    return _count_groups(pos, _dependence_ends(np.asarray(chain_ids)), window, mshrs)


def mlp_of_misses(instr_pos: np.ndarray, chain_ids: np.ndarray, window: float, mshrs: int) -> float:
    """Average MLP of a miss stream; 1.0 for an empty stream."""
    n = len(instr_pos)
    if n == 0:
        return 1.0
    if n > MAX_MISSES_SAMPLED:
        instr_pos = instr_pos[:MAX_MISSES_SAMPLED]
        chain_ids = chain_ids[:MAX_MISSES_SAMPLED]
        n = MAX_MISSES_SAMPLED
    groups = leading_miss_groups(instr_pos, chain_ids, window, mshrs)
    return float(n) / float(max(groups, 1))


def effective_window(core: CoreSize, baseline: CoreSize, mlp_sensitivity: float) -> tuple[float, int]:
    """(window, mshrs) a phase actually exploits on ``core``.

    A parallelism-insensitive phase (sensitivity 0) saturates the baseline
    core's resources -- its realised MLP does not change with core size; a
    fully sensitive phase (1) tracks the core's ROB/MSHRs linearly.
    """
    s = mlp_sensitivity
    window = (1.0 - s) * baseline.rob + s * core.rob
    mshrs = max(1, round((1.0 - s) * baseline.mshrs + s * core.mshrs))
    return float(window), int(mshrs)


def mlp_grid(
    system: SystemConfig,
    dists: np.ndarray,
    instr_pos: np.ndarray,
    chain_ids: np.ndarray,
    mlp_sensitivity: float,
) -> np.ndarray:
    """Ground-truth ``MLP[c, w]`` for one phase trace.

    ``dists`` are the per-access stack distances (:mod:`repro.cache.atd`);
    the miss stream at allocation ``w`` is the subsequence with distance
    ``> w``, evaluated under each core size's effective window/MSHRs.
    """
    ways = system.llc.ways
    baseline = system.core_sizes[system.baseline_core_index]
    resources = [effective_window(core, baseline, mlp_sensitivity) for core in system.core_sizes]
    pos = np.asarray(instr_pos, dtype=np.float64)
    _require_sorted(pos)
    out = np.ones((system.ncore_sizes, ways), dtype=float)
    for w in range(1, ways + 1):
        # The miss stream, its sample cap and its dependence ends depend on
        # the allocation only; the core sizes share them.
        sel = np.flatnonzero(dists > w)[:MAX_MISSES_SAMPLED]
        n = len(sel)
        if n == 0:
            continue
        pos_w = pos[sel]
        dep = _dependence_ends(chain_ids[sel])
        for ci, (window, mshrs) in enumerate(resources):
            out[ci, w - 1] = float(n) / float(_count_groups(pos_w, dep, window, mshrs))
    return out
