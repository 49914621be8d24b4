"""Reference manager pipelines: what the production managers must equal.

* :class:`ReferencePipeline` -- the recompute-everything decision path of
  the coordinated manager: fresh per-core curves (no memo, no batching:
  :mod:`tests.oracles.model_chain`) and a from-scratch
  :func:`~tests.oracles.node_graph.global_optimize` on every invocation.
  :func:`reference` turns any flat manager built by the production
  factories (``rm2_combined()``, ``rm2_history()``, ...) into its
  reference twin, so the reference runs with exactly the factory's
  configuration.
* :class:`NodeGraphClusteredManager` -- the hierarchical manager reduced
  through per-cluster node-graph :class:`~tests.oracles.node_graph.ReductionTree`s
  plus a second-level tree over the cluster roots, re-installing every
  leaf on every decision; the golden reference of the packed hierarchy and
  the per-leaf installs of :class:`~repro.core.managers.CoordinatedManager`
  with a ``cluster_size``.
"""

from __future__ import annotations

from functools import cache

from repro.config import Allocation, SystemConfig
from repro.core.curves import EnergyCurve
from repro.core.global_opt import cluster_way_caps
from repro.core.managers import CoordinatedManager
from tests.oracles.model_chain import analytical_curve, local_optimize, qos_target_tpi
from tests.oracles.node_graph import ReductionTree, global_optimize

__all__ = ["ReferencePipeline", "reference", "NodeGraphClusteredManager"]


class ReferencePipeline:
    """Mixin: the pre-batching decision path, verbatim (executable reference)."""

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        return self._on_interval_reference(core_id)

    def _oracle_curve(self, core_id: int) -> EnergyCurve:
        sim, system = self.sim, self.sim.system
        (rec,) = sim.upcoming_records([core_id])
        target = qos_target_tpi(system, rec.tpi, sim.slack(core_id))
        return local_optimize(system, rec.tpi, rec.epi, target, self._dims(system), self.meter)

    def _curve_for(self, core_id: int) -> EnergyCurve:
        system = self.sim.system
        if not self.sim.is_active(core_id):
            # Idle (power-gated): release all but the minimum ways.
            return EnergyCurve.pinned(
                ways=system.min_ways_per_core, core_idx=system.baseline_core_index,
                freq_idx=system.baseline_freq_index, max_ways=system.llc.ways,
            )
        if self.oracle:
            return self._oracle_curve(core_id)
        if core_id in self.curves:
            return self.curves[core_id]
        # No statistics yet: keep the baseline setting.
        base = system.baseline_allocation()
        return EnergyCurve.pinned(
            ways=base.ways, core_idx=base.core, freq_idx=base.freq, max_ways=system.llc.ways,
        )

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


def _per_core_analytical_curve(self, core_id: int) -> EnergyCurve:
    """The coordinated manager's curve through the per-core model chain."""
    sim, system = self.sim, self.sim.system
    snap = sim.completed_snapshot(core_id)
    rec = sim.completed_record(core_id)
    return analytical_curve(
        system, self.model, snap, rec.mpki_sampled, rec.mlp_sampled,
        sim.slack(core_id), self._dims(system), self.meter,
    )


@cache
def _reference_class(cls: type) -> type:
    # A subclass's own curve builder (the history-aware manager's) is kept;
    # the base manager's batch of one is replaced by the per-core chain.
    body = {}
    if cls._analytical_curve is CoordinatedManager._analytical_curve:
        body["_analytical_curve"] = _per_core_analytical_curve
    return type(f"Reference{cls.__name__}", (ReferencePipeline, cls), body)


def reference(manager: CoordinatedManager) -> CoordinatedManager:
    """The reference-pipeline twin of a flat coordinated manager.

    The twin carries ``manager``'s configuration (its instance state is
    copied), so it works for every flat factory product, including the
    history-aware manager (whose ``_analytical_curve`` override the
    reference calls).
    """
    assert manager.cluster_size is None, "the hierarchy has its own oracle"
    cls = _reference_class(type(manager))
    twin = cls.__new__(cls)
    twin.__dict__.update(manager.__dict__)
    return twin


class NodeGraphClusteredManager(CoordinatedManager):
    """The clustered coordinated manager reduced through node-graph trees.

    Per-cluster capped :class:`ReductionTree`\\ s plus a second-level tree
    whose leaves are the cluster roots (spliced in via ``set_leaf_node``).
    Every decision re-installs every cluster's leaves (the trees' identity
    and value checks keep unchanged leaves clean), with the production
    manager's leaf selection rule, so the two must agree bit for bit.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cluster_trees: list[ReductionTree] = []
        self._level2: ReductionTree | None = None

    def _init_trees(self, system: SystemConfig) -> None:
        """Per-cluster capped trees plus the second-level combine tree.

        The production planner supplies the clusters; its packed plan is
        dropped.
        """
        super()._init_trees(system)
        self._tree = None
        caps = cluster_way_caps(
            system.llc.ways, system.ncores, self._clusters,
            system.min_ways_per_core, self.overprovision,
        )
        self._cluster_trees = [
            ReductionTree(len(members), cap, system.min_ways_per_core, first_id=members[0])
            for members, cap in zip(self._clusters, caps)
        ]
        self._level2 = ReductionTree(
            len(self._clusters), system.llc.ways, system.min_ways_per_core
        )

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Splice the affected cluster leaf on a tenancy change."""
        self.curves.pop(core_id, None)
        for members, tree in zip(self._clusters, self._cluster_trees):
            if core_id in members:
                tree.invalidate(core_id - members[0])

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """Two-level decision: refresh every cluster tree, combine their roots.

        A clean cluster tree's refresh is one replay charge; its unchanged
        root re-enters the second level clean.
        """
        oracle_leaves = self._begin_decision(core_id)
        level2 = self._level2
        meter = self.meter
        for ci, (members, tree) in enumerate(zip(self._clusters, self._cluster_trees)):
            tree.set_leaves([self._leaf(j, oracle_leaves) for j in members])
            root, changed = tree.refresh(meter)
            level2.set_leaf_node(ci, root, changed)
        assignment = level2.solve(meter)
        # The node graph tracks no change set: every core is listed.
        return self._to_allocations(None if assignment is None else list(assignment.items()))
