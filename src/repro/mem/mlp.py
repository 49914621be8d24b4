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
from 0 to ``n``.  :func:`_walk_counts` takes those hops for many streams at
once -- one array gather per hop moves every stream to its next leader --
and the integer it returns is the loop's (the loop itself is kept as the
test oracle in ``tests/oracles/leading_miss.py``).

:func:`mlp_grid` evaluates one stream per allocation ``w`` (the misses with
stack distance ``> w``, capped at :data:`MAX_MISSES_SAMPLED`) under every
core size, and shares the work three ways:

* window ends: each core size's window end is searched once on the full
  trace, with the same ``pos + window`` float operation.  Positions are
  non-decreasing, so the misses of a stream inside the window of miss ``i``
  are the selected accesses before that end: a running count of the
  selection turns it into the stream's ``end[i]``;
* core sizes: the streams differ only in window and MSHRs, so they share the
  selection and the dependence ends;
* allocations: a column whose capped stream equals the previous one
  (no miss at exactly that distance within the cap) is a copy of it, and
  every distinct stream is walked in the same lock-step pass.
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
    chains = chain_ids[order]
    next_same = np.empty(n, dtype=np.intp)
    next_same[order[:-1]] = np.where(chains[1:] == chains[:-1], order[1:], n)
    next_same[order[-1]] = n
    return np.minimum.accumulate(next_same[::-1])[::-1]


def _group_ends(window_end: np.ndarray, mshrs, dep: np.ndarray) -> np.ndarray:
    """``end[i]``: where a group led by miss ``i`` stops; ``i < end[i] <= n``.

    The first miss outside the window (``window_end``, one row per core
    size), past the MSHRs (``mshrs``, broadcast against the rows) or
    dependent on a group member (``dep``).  ``dep <= n`` keeps every end
    inside the stream, whatever the other two bounds say.
    """
    leaders = np.arange(window_end.shape[-1])
    end = np.minimum(window_end, leaders + mshrs)
    np.minimum(end, dep, out=end)
    np.maximum(end, leaders + 1, out=end)
    return end


#: Hops taken between two checks of whether every walk has finished.
_WALK_CHUNK = 64


def _walk_counts(ends: list[np.ndarray]) -> np.ndarray:
    """Greedy group count of every stream, walked in lock-step.

    ``ends[r]`` holds the group ends of stream ``r`` (non-empty).  The
    streams share one successor array: stream ``r`` occupies slots
    ``off_r .. off_r + n_r``, and its finish slot ``off_r + n_r`` links to a
    shared counter chain ``tail, tail + 1, ...``.  Each hop moves every
    walker one leader ahead with a single gather.  A stream of ``g`` groups
    finishes after ``g`` hops and enters the chain on the next, so after
    ``s`` hops its walker sits at ``tail + s - g - 1``.  The chain is long
    enough that no walker reaches its absorbing end before the last one
    finishes.
    """
    sizes = np.array([len(e) for e in ends])
    offsets = np.cumsum(sizes + 1) - (sizes + 1)
    tail = int(offsets[-1] + sizes[-1] + 1)
    chain = int(sizes.max()) + _WALK_CHUNK + 1
    succ = np.empty(tail + chain, dtype=np.intp)
    for off, end in zip(offsets.tolist(), ends):
        succ[off : off + len(end)] = end + off
    succ[offsets + sizes] = tail
    succ[tail:-1] = np.arange(tail + 1, tail + chain)
    succ[-1] = tail + chain - 1
    cur = offsets
    hops = 0
    while cur.min() < tail:
        for _ in range(_WALK_CHUNK):
            cur = succ[cur]
        hops += _WALK_CHUNK
    return hops - 1 - (cur - tail)


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
    window_end = np.searchsorted(pos, pos + window, side="left")
    end = _group_ends(window_end, mshrs, _dependence_ends(np.asarray(chain_ids)))
    return int(_walk_counts([end])[0])


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


def effective_window(
    core: CoreSize, baseline: CoreSize, mlp_sensitivity: float
) -> tuple[float, int]:
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
    ``> w``, evaluated under each core size's effective window/MSHRs.  See
    the module docstring for the work the allocations and core sizes share.
    """
    ways = system.llc.ways
    baseline = system.core_sizes[system.baseline_core_index]
    resources = [effective_window(core, baseline, mlp_sensitivity) for core in system.core_sizes]
    pos = np.asarray(instr_pos, dtype=np.float64)
    _require_sorted(pos)
    out = np.ones((system.ncore_sizes, ways), dtype=float)
    # reach[c, r]: first trace access outside the window of a group led by r.
    reach = np.stack([np.searchsorted(pos, pos + window, side="left") for window, _ in resources])
    mshrs = np.array([m for _, m in resources])[:, None]
    ends: list[np.ndarray] = []  # group ends, one row per (distinct stream, core size)
    lengths: list[int] = []  # misses in each distinct stream
    stream_of: list[int] = []  # distinct stream of each allocation
    sel = None
    for w in range(1, ways + 1):
        miss = dists > w
        sel_w = np.flatnonzero(miss)[:MAX_MISSES_SAMPLED]
        n = len(sel_w)
        if n == 0:
            break  # streams only shrink with w: the rest of the grid stays 1.0
        if sel is None or not np.array_equal(sel_w, sel):
            sel = sel_w
            reach_sel = reach.take(sel, axis=1)
            # before[k]: misses among the first k accesses.  At a window end
            # it counts the stream's misses inside that window; where the
            # window reaches past the sample cap, the dependence ends (<= n)
            # clip it.
            hi = int(reach_sel[:, -1].max())
            before = np.zeros(hi + 1, dtype=np.intp)
            np.cumsum(miss[:hi], out=before[1:])
            dep = _dependence_ends(chain_ids[sel])
            ends.extend(_group_ends(before[reach_sel], mshrs, dep))
            lengths.append(n)
        stream_of.append(len(lengths) - 1)
    if lengths:
        groups = _walk_counts(ends).reshape(len(lengths), -1).T
        out[:, : len(stream_of)] = (np.array(lengths) / groups)[:, stream_of]
    return out
