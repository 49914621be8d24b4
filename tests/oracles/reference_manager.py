"""Reference manager pipelines: what the production managers must equal.

* :class:`ReferencePipeline` -- the recompute-everything decision path of
  the coordinated manager: fresh per-core curves (no memo, no batching) and
  a from-scratch :func:`~tests.oracles.node_graph.global_optimize` on every
  invocation.  :func:`reference` turns any flat manager built by the
  production factories (``rm2_combined()``, ``rm2_history()``, ...) into
  its reference twin, so the reference runs with exactly the factory's
  configuration.
* :class:`NodeGraphClusteredManager` -- the hierarchical manager reduced
  through per-cluster node-graph :class:`~tests.oracles.node_graph.ReductionTree`s
  plus a second-level tree over the cluster roots, the golden reference of
  the packed hierarchy in :class:`~repro.core.managers.ClusteredManager`.
"""

from __future__ import annotations

from functools import cache

from repro.config import Allocation, SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.global_opt import cluster_way_caps
from repro.core.local_opt import local_optimize
from repro.core.managers import ClusteredManager, CoordinatedManager
from repro.core.qos import qos_target_tpi
from tests.oracles.node_graph import ReductionTree, global_optimize

__all__ = ["ReferencePipeline", "reference", "NodeGraphClusteredManager"]


class ReferencePipeline:
    """Mixin: the pre-batching decision path, verbatim (executable reference)."""

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        return self._on_interval_reference(core_id)

    def _oracle_curve(self, core_id: int) -> EnergyCurve:
        sim, system = self.sim, self.sim.system
        rec = sim.upcoming_record(core_id)
        target = qos_target_tpi(system, rec.tpi, sim.slack(core_id))
        return local_optimize(
            system, core_id, rec.tpi, rec.epi, target, self._dims(system), self.meter
        )

    def _curve_for(self, core_id: int) -> EnergyCurve:
        if not self.sim.is_active(core_id):
            return self._idle_curve(core_id)
        if self.oracle:
            return self._oracle_curve(core_id)
        if core_id in self.curves:
            return self.curves[core_id]
        return self._pinned_curve(core_id)

    def _on_interval_reference(self, core_id: int) -> dict[int, Allocation] | None:
        """The pre-batching decision path, verbatim (executable reference)."""
        sim, system = self.sim, self.sim.system
        self.meter.begin_invocation()

        if not self.oracle:
            self.curves[core_id] = self._analytical_curve(core_id)
        curves = [self._curve_for(j) for j in range(system.ncores)]

        assignment = global_optimize(
            curves,
            total_ways=system.llc.ways,
            min_ways=system.min_ways_per_core,
            meter=self.meter,
        )
        if assignment is None:
            return None
        return {
            j: Allocation(core=c, freq=f, ways=w)
            for j, (c, f, w) in assignment.items()
        }


@cache
def _reference_class(cls: type) -> type:
    return type(f"Reference{cls.__name__}", (ReferencePipeline, cls), {})


def reference(manager: CoordinatedManager) -> CoordinatedManager:
    """The reference-pipeline twin of a flat coordinated manager.

    The twin carries ``manager``'s configuration (its instance state is
    copied), so it works for every flat factory product, including the
    history-aware manager (whose ``_analytical_curve`` override the
    reference calls).
    """
    assert not isinstance(manager, ClusteredManager), "the hierarchy has its own oracle"
    cls = _reference_class(type(manager))
    twin = cls.__new__(cls)
    twin.__dict__.update(manager.__dict__)
    return twin


class NodeGraphClusteredManager(ClusteredManager):
    """The clustered manager reduced through node-graph trees.

    Per-cluster capped :class:`ReductionTree`\\ s plus a second-level tree
    whose leaves are the cluster roots (spliced in via ``set_leaf_node``);
    same stale-cluster bookkeeping and leaf selection as the production
    manager, so the two must agree bit for bit.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cluster_trees: list[ReductionTree] = []
        self._level2: ReductionTree | None = None
        # Per-cluster (root node, replay DP cells) of the last real refresh,
        # so clean clusters skip their tree walk wholesale.
        self._cluster_roots: list = []

    def _init_trees(self, system: SystemConfig) -> None:
        """Per-cluster capped trees plus the second-level combine tree.

        The production planner supplies the clusters, the core-to-cluster
        map and the stale set; its packed plan is dropped.
        """
        super()._init_trees(system)
        self._tree = None
        caps = cluster_way_caps(
            system.llc.ways, system.ncores, self._clusters,
            system.min_ways_per_core, self.overprovision,
        )
        self._cluster_trees = [
            ReductionTree(len(members), cap, system.min_ways_per_core)
            for members, cap in zip(self._clusters, caps)
        ]
        self._level2 = ReductionTree(
            len(self._clusters), system.llc.ways, system.min_ways_per_core
        )
        self._cluster_roots = [None] * len(self._clusters)

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Splice the affected cluster leaf on a tenancy change."""
        self.curves.pop(core_id, None)
        ci = self._cluster_of[core_id]
        self._cluster_trees[ci].invalidate(core_id - self._clusters[ci][0])
        self._stale_clusters.add(ci)

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """Two-level decision: refresh cluster trees, combine their roots.

        Leaf refreshes are grouped: each cluster receives its member curves
        in one ``set_leaves`` call and one ``refresh``, so a system-wide
        reallocation costs one grouped refresh per cluster (a fully clean
        cluster short-circuits to a single replay charge) instead of
        per-core tree walks.
        """
        oracle_leaves = self._begin_decision(core_id)
        level2 = self._level2
        meter = self.meter
        # A cluster's leaves are a pure function of the held/oracle curves
        # and the active set; both change only at the invoking core
        # (_begin_decision) or via on_scenario_event, so clusters outside
        # the stale set can skip leaf installation outright.  Oracle curves
        # additionally move with every phase boundary, so oracle mode
        # refreshes every cluster's leaves.
        stale = self._stale_clusters
        stale.add(self._cluster_of[core_id])
        if self.oracle:
            stale = set(range(len(self._clusters)))
        inactive = (frozenset(self.sim.inactive_core_ids()) if oracle_leaves is None
                    else frozenset())
        roots = self._cluster_roots
        replay_cells = 0
        for ci, members in enumerate(self._clusters):
            cached = roots[ci]
            if ci not in stale and cached is not None:
                # Clean cluster: its root already sits in the second-level
                # tree; batch the replay charge its refresh would make
                # (exact integer DP-cell counts, so one summed charge is
                # bit-identical to the per-tree charges it replaces).
                replay_cells += cached[1]
                continue
            tree = self._cluster_trees[ci]
            tree.set_leaves(self._live_leaves(members, oracle_leaves, inactive))
            root, changed = tree.refresh(meter)
            level2.set_leaf_node(ci, root, changed)
            roots[ci] = (root, tree.replay_cells)
        if replay_cells:
            meter.charge_replay(dp_cells=replay_cells)
        self._stale_clusters = set()
        assignment = level2.solve(meter)
        # Every core counts as touched: the node graph tracks no delta.
        touched = None if assignment is None else list(assignment)
        return self._to_allocations(assignment, touched)
