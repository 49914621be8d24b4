"""Bit-identity of the packed level-synchronous reduction.

:class:`~repro.core.packed_tree.PackedReduction` plans an entire clustered
hierarchy -- per-cluster capped combine levels plus the second-level
stage -- into struct-of-arrays level matrices and solves it with batched
sliding-window min-plus sweeps.  The node-graph
:class:`~tests.oracles.node_graph.ReductionTree` hierarchy is the golden
reference: on every input the packed tree must reproduce its assignment
(including tie-breaks), its ``None``-ness on infeasible inputs, and its
metered RMA overhead (instructions and DP cells) *exactly* -- the packed
path is an execution-layout change, never a semantics change.

The property tests drive persistent instances through randomized splice /
update sequences over inf-heavy curves (sporadic infeasible entries plus
pinned single-way curves, the shapes idle cores and capped clusters
produce), covering flat trees, odd leaf counts, uneven final clusters and
over-provisioned way caps, from the one-leaf plan up.  An 8-core
cluster-churn replay through the production clustered manager and through
the node-graph clustered manager oracle pins the manager wiring end to
end.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.curves import EnergyCurve
from repro.core.global_opt import cluster_way_caps, partition_clusters
from repro.core.managers import rm2_combined
from repro.core.overhead_meter import OverheadMeter
from repro.core.packed_tree import PackedReduction
from repro.scenarios import cluster_churn
from repro.simulation.rma_sim import RMASimulator
from tests.conftest import TEST_BENCHMARKS
from tests.oracles.node_graph import ReductionTree
from tests.oracles.reference_manager import NodeGraphClusteredManager
from tests.test_clustered import assert_same_numbers


def _random_curves(rng, ncores, ways, inf_p=0.25):
    """Inf-heavy random curves; ~15% are pinned to a single way count."""
    curves = []
    for j in range(ncores):
        epi = np.where(rng.random(ways) < inf_p, np.inf,
                       rng.uniform(0.1, 5.0, size=ways))
        if rng.random() < 0.15:
            epi = np.full(ways, np.inf)
            epi[rng.integers(0, ways)] = rng.uniform(0.1, 5.0)
        curves.append(EnergyCurve(
            core_id=j, epi=epi,
            freq_idx=rng.integers(0, 4, size=ways),
            core_idx=rng.integers(0, 3, size=ways),
        ))
    return curves


def _random_hierarchy(rng, ncores, ways):
    """A random clustered shape: clusters, caps (manager invariants hold)."""
    if rng.random() < 0.35:
        clusters = (tuple(range(ncores)),)
    else:
        csize = int(rng.integers(1, max(2, ncores // 2) + 1))
        clusters = partition_clusters(ncores, csize)
    if len(clusters) == 1:
        # Manager invariant: a single cluster's cap is the full
        # associativity (the second level is a pass-through).
        return clusters, (ways,)
    caps = cluster_way_caps(ways, ncores, clusters, 1,
                            overprovision=float(rng.uniform(1.0, 2.0)))
    return clusters, caps


class _Reference:
    """Persistent node-graph hierarchy mirroring one PackedReduction."""

    def __init__(self, clusters, caps, ways):
        self.clusters = clusters
        self.trees = [ReductionTree(len(m), cap, 1)
                      for m, cap in zip(clusters, caps)]
        self.level2 = ReductionTree(len(clusters), ways, 1)

    def solve(self, curves, meter):
        for ci, members in enumerate(self.clusters):
            tree = self.trees[ci]
            for local, j in enumerate(members):
                tree.set_leaf(local, curves[j])
            root, changed = tree.refresh(meter)
            self.level2.set_leaf_node(ci, root, changed)
        return self.level2.solve(meter)

    def invalidate(self, slot):
        for ci, members in enumerate(self.clusters):
            if slot in members:
                self.trees[ci].invalidate(members.index(slot))


def _check_step(tag, ref, got, m_ref, m_pk):
    assert (ref is None) == (got is None), f"{tag}: feasibility mismatch"
    if ref is not None:
        assert got == ref, f"{tag}: assignment mismatch"
    assert m_pk.instructions == m_ref.instructions, f"{tag}: meter drift"
    assert m_pk.dp_cells == m_ref.dp_cells, f"{tag}: DP-cell drift"


class TestPackedBitIdentity:
    """Packed vs node-graph reference over randomized splice sequences."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_splice_sequences_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        ncores = int(rng.integers(2, 20))
        ways = int(rng.integers(ncores, 3 * ncores + 4))
        clusters, caps = _random_hierarchy(rng, ncores, ways)
        packed = PackedReduction(
            tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        reference = _Reference(clusters, caps, ways)
        m_ref, m_pk = OverheadMeter(), OverheadMeter()

        curves = _random_curves(rng, ncores, ways,
                                inf_p=float(rng.uniform(0.05, 0.6)))
        for step in range(int(rng.integers(3, 8))):
            tag = f"seed={seed} step={step} clusters={clusters} caps={caps}"
            ref = reference.solve(curves, m_ref)
            for ci, members in enumerate(clusters):
                packed.set_group_leaves(ci, [curves[j] for j in members])
            got = packed.solve(m_pk)
            _check_step(tag, ref, got, m_ref, m_pk)
            if ref is not None:
                # Identity contract: nothing changed, so the manager's
                # delta diffing must see the very same dict object again.
                again = packed.solve(m_pk)
                assert again is got, f"{tag}: cached-dict identity broken"
                _check_step(f"{tag} (cached)", reference.solve(curves, m_ref),
                            again, m_ref, m_pk)
            mode = rng.random()
            if mode < 0.55:  # steady state: one core's curve moves
                j = int(rng.integers(0, ncores))
                curves[j] = _random_curves(rng, j + 1, ways, 0.3)[j]
            elif mode < 0.8:  # a few cores move at once
                for j in rng.choice(ncores, size=min(ncores, 3), replace=False):
                    curves[int(j)] = _random_curves(rng, int(j) + 1, ways, 0.4)[int(j)]
            else:  # tenancy splice: forced re-ingest of an unchanged slot
                j = int(rng.integers(0, ncores))
                packed.invalidate(j)
                reference.invalidate(j)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), ncores=st.integers(1, 31))
    @example(seed=0, ncores=1)  # the one-leaf plan
    @example(seed=0, ncores=31)
    def test_flat_tree_matches(self, seed, ncores):
        """A one-cluster packed plan is the flat ReductionTree, bit for bit."""
        rng = np.random.default_rng(seed)
        ways = 3 * ncores + int(rng.integers(0, 4))
        curves = _random_curves(rng, ncores, ways)
        flat = ReductionTree(ncores, ways, 1)
        for j, c in enumerate(curves):
            flat.set_leaf(j, c)
        packed = PackedReduction((ncores,), (ways,), ways, 1)
        packed.set_group_leaves(0, curves)
        m_ref, m_pk = OverheadMeter(), OverheadMeter()
        want = flat.solve(m_ref)
        got = packed.solve(m_pk)
        assert got == want
        assert m_pk.instructions == m_ref.instructions
        assert m_pk.dp_cells == m_ref.dp_cells

    def test_all_idle_is_infeasible_then_recovers(self):
        """Every leaf pinned over-budget -> None; a feasible splice heals."""
        ncores, ways = 8, 16
        clusters = partition_clusters(ncores, 4)
        caps = cluster_way_caps(ways, ncores, clusters, 1)
        packed = PackedReduction(
            tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        reference = _Reference(clusters, caps, ways)
        pinned = []
        for j in range(ncores):
            epi = np.full(ways, np.inf)
            epi[ways - 1] = 1.0  # all demand the full cache: infeasible
            pinned.append(EnergyCurve(core_id=j, epi=epi,
                                      freq_idx=np.zeros(ways, dtype=int),
                                      core_idx=np.ones(ways, dtype=int)))
        m_ref, m_pk = OverheadMeter(), OverheadMeter()
        for ci, members in enumerate(clusters):
            packed.set_group_leaves(ci, [pinned[j] for j in members])
        assert reference.solve(pinned, m_ref) is None
        assert packed.solve(m_pk) is None
        assert m_pk.instructions == m_ref.instructions

        rng = np.random.default_rng(7)
        healed = [
            EnergyCurve(core_id=j, epi=rng.uniform(0.1, 5.0, size=ways),
                        freq_idx=rng.integers(0, 4, size=ways),
                        core_idx=rng.integers(0, 3, size=ways))
            for j in range(ncores)
        ]
        for ci, members in enumerate(clusters):
            packed.set_group_leaves(ci, [healed[j] for j in members])
        ref = reference.solve(healed, m_ref)
        got = packed.solve(m_pk)
        assert got == ref
        assert ref is not None
        assert m_pk.instructions == m_ref.instructions


class TestPackedClusteredManager:
    """The production clustered manager equals its node-graph oracle."""

    def test_cluster_churn_replay_matches_node_graph_oracle(self, system8, db8):
        """8-core cluster-churn replay: packed hierarchy vs node-graph trees."""
        sc = cluster_churn("packed-eq", 8, TEST_BENCHMARKS, cluster_size=2,
                           cycles=3, idle_intervals=1.0,
                           horizon_intervals=48, seed=5)
        mgr = rm2_combined(cluster_size=2)
        packed = RMASimulator(system8, db8, sc.workload, mgr,
                              max_slices=6, scenario=sc).run()
        assert isinstance(mgr._tree, PackedReduction)

        oracle = NodeGraphClusteredManager(name="rm2-node-graph", cluster_size=2)
        node_graph = RMASimulator(system8, db8, sc.workload, oracle,
                                  max_slices=6, scenario=sc).run()
        assert oracle._tree is None and oracle._level2 is not None  # node graph ran

        assert_same_numbers(packed, node_graph)
