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
the next miss while it lies inside its window (``pos < pos[i] + window``,
one float64 addition, as Python floats round it), a miss register is free
and its chain is not in the group yet; the first miss refused leads the
next group.  The loop runs in the compiled library (``mlp_groups`` in
:mod:`repro.kernels`); the same loop in Python is the test oracle in
``tests/oracles/leading_miss.py``.

:func:`mlp_grid` evaluates one stream per allocation ``w`` (the misses with
stack distance ``> w``, capped at :data:`MAX_MISSES_SAMPLED`) under every
core size, in one kernel call that groups each *distinct* stream once.
The stream at ``w`` is the one at ``w - 1`` unless one of that stream's
misses has distance exactly ``w``, so a stream serves every allocation
below the smallest distance among its misses; the next stream drops the
misses that became hits and refills to the cap.  The walk stops at the
first empty stream (streams only shrink with ``w``), and the rest of the
grid stays 1.0.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.cache.atd import COLD
from repro.config import CoreSize, SystemConfig
from repro.util.validation import require

__all__ = ["leading_miss_groups", "mlp_of_misses", "mlp_grid", "effective_window"]

#: Cap on misses examined per (c, w) point; beyond this the estimate has
#: converged and extra work is wasted (the hardware, likewise, samples).
MAX_MISSES_SAMPLED = 6000

_kernel = kernels.shared()


def _mlp_groups(
    dists: np.ndarray,
    instr_pos: np.ndarray,
    chain_ids: np.ndarray,
    ways: int,
    cap: int,
    resources: list[tuple[float, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(groups[c, w], lengths[w])`` of the streams ``mlp_groups`` writes.

    One compiled call over the miss stream of every allocation ``w`` in
    ``[1, ways]`` (the first ``cap`` accesses with ``dists > w``) under each
    ``(window, mshrs)`` of ``resources``; the columns stop at the first
    empty stream.
    """
    pos = np.ascontiguousarray(instr_pos, dtype=np.float64)
    require(bool(np.all(pos[1:] >= pos[:-1])), "miss positions must be non-decreasing")
    dists = np.ascontiguousarray(dists, dtype=np.int64)
    chains = np.ascontiguousarray(chain_ids, dtype=np.int64)
    n = len(pos)
    require(len(dists) == n and len(chains) == n, "one distance and one chain per miss")
    windows = np.array([window for window, _ in resources], dtype=np.float64)
    mshrs = np.array([m for _, m in resources], dtype=np.int64)
    require(bool(np.all(mshrs >= 1)), "mshrs must be >= 1")
    sel = np.empty(min(cap, n), dtype=np.int64)
    groups = np.empty((len(resources), ways), dtype=np.int64)
    lengths = np.empty(ways, dtype=np.int64)
    filled = _kernel.mlp_groups(
        dists.ctypes.data,
        pos.ctypes.data,
        chains.ctypes.data,
        n,
        ways,
        cap,
        windows.ctypes.data,
        mshrs.ctypes.data,
        len(resources),
        sel.ctypes.data,
        groups.ctypes.data,
        lengths.ctypes.data,
    )
    return groups[:, :filled], lengths[:filled]


def leading_miss_groups(
    instr_pos: np.ndarray,
    chain_ids: np.ndarray,
    window: float,
    mshrs: int,
) -> int:
    """Number of leading-miss groups in a miss stream (greedy grouping).

    ``instr_pos`` must be non-decreasing, as the cumulative instruction
    positions of a trace are.  The stream is every miss: one allocation
    at which every access misses, with no cap.
    """
    require(mshrs >= 1, "mshrs must be >= 1")
    n = len(instr_pos)
    if n == 0:
        return 0
    every_miss = np.full(n, COLD, dtype=np.int64)
    groups, _ = _mlp_groups(every_miss, instr_pos, chain_ids, 1, n, [(float(window), mshrs)])
    return int(groups[0, 0])


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
    the module docstring for the streams the allocations share.
    """
    ways = system.llc.ways
    baseline = system.core_sizes[system.baseline_core_index]
    resources = [effective_window(core, baseline, mlp_sensitivity) for core in system.core_sizes]
    groups, lengths = _mlp_groups(dists, instr_pos, chain_ids, ways, MAX_MISSES_SAMPLED, resources)
    out = np.ones((system.ncore_sizes, ways), dtype=float)
    out[:, : len(lengths)] = lengths / groups
    return out
