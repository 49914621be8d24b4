"""Cluster planning and the metered DP work of the min-plus reduction.

:func:`partition_clusters` and :func:`cluster_way_caps` plan the clustered
manager's hierarchy; :func:`_dp_cell_count` (the metered DP work of one
combine) serves :class:`~repro.core.packed_tree.PackedReduction`, the
reduction itself.  Its node-graph reference lives in
``tests/oracles/node_graph.py``.
"""

from __future__ import annotations

import math

from repro.util.validation import require

__all__ = [
    "partition_clusters",
    "cluster_way_caps",
]


#: Memoised in-range DP cell counts per (left width, right width, sums):
#: the count is a pure function of the three shapes and recurs for every
#: combine at the same tree position, so the per-combine NumPy reduction
#: collapses to a dict lookup.
_DP_CELLS_MEMO: dict[tuple[int, int, int], int] = {}


def _dp_cell_count(na: int, nb: int, nk: int) -> int:
    """DP work of one combine: the in-range (sl, s - sl) pairs per sum."""
    key = (na, nb, nk)
    cells = _DP_CELLS_MEMO.get(key)
    if cells is None:
        cells = sum(min(k + 1, na, nb, na + nb - 1 - k) for k in range(nk))
        _DP_CELLS_MEMO[key] = cells
    return cells


def partition_clusters(ncores: int, cluster_size: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``range(ncores)`` into contiguous clusters of ``cluster_size``.

    The last cluster absorbs the remainder when ``ncores`` is not an exact
    multiple.  Contiguous blocks in core order keep the hierarchical
    reduction's pairing deterministic and make the single-cluster case
    (``cluster_size >= ncores``) structurally identical to the flat tree.
    """
    require(cluster_size >= 1, "cluster size must be at least one core")
    return tuple(
        tuple(range(lo, min(lo + cluster_size, ncores))) for lo in range(0, ncores, cluster_size)
    )


def cluster_way_caps(
    total_ways: int,
    ncores: int,
    clusters: tuple[tuple[int, ...], ...],
    min_ways: int,
    overprovision: float = 2.0,
) -> tuple[int, ...]:
    """Per-cluster LLC way budgets for the hierarchical reduction.

    Each cluster's intra-cluster combines are capped at ``overprovision``
    times its proportional share of the associativity (rounded up), clamped
    to ``total_ways``: the cap is what makes the cluster tier cheaper than
    the flat reduction (intra-cluster curve arrays stay narrow), while the
    overprovision headroom lets a cache-hungry cluster draw ways from its
    neighbours.  Every cap is at least the cluster's feasibility floor
    (``members * min_ways``), the caps sum to at least ``total_ways`` for
    any ``overprovision >= 1``, and a cluster covering every core is capped
    at exactly ``total_ways`` -- the single-cluster equivalence case.
    """
    require(overprovision >= 1.0, "overprovision must be at least 1.0")
    caps = []
    for members in clusters:
        share = len(members) * total_ways / ncores
        cap = min(total_ways, max(len(members) * min_ways, math.ceil(overprovision * share)))
        caps.append(int(cap))
    return tuple(caps)

