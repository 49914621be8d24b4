"""Per-allocation MLP grid: the golden reference for the shared-work one.

This is :func:`repro.mem.mlp.mlp_grid` as it was before the allocations and
core sizes shared their work, kept verbatim with its helpers: for every
allocation ``w`` it selects the capped miss stream, computes the stream's
dependence ends, and then, for every core size on its own, searches the
window ends over the stream and counts the greedy groups by pointer
doubling.  That count was itself verified against the greedy loop in
:mod:`tests.oracles.leading_miss`.

``tests/test_mlp.py`` asserts the production grid is byte-identical to
:func:`mlp_grid` on generated traces and on arbitrary distance arrays.  Do
not "fix" or optimise this module: its value is that it never changes.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.mem.mlp import MAX_MISSES_SAMPLED, effective_window
from repro.util.validation import require

__all__ = ["mlp_grid"]


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
