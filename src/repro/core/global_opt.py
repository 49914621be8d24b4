"""Cluster planning for the clustered coordinated manager.

:func:`partition_clusters` and :func:`cluster_way_caps` plan the
hierarchy that :class:`~repro.core.packed_tree.PackedReduction` reduces
(the reduction and its metered DP work live there).
"""

from __future__ import annotations

import math

from repro.util.validation import require

__all__ = [
    "partition_clusters",
    "cluster_way_caps",
]


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

