"""The hierarchical clustered manager's contracts.

Two guarantees anchor the cluster tier:

* **single-cluster identity** -- a ``CoordinatedManager`` with
  ``cluster_size >= ncores`` must equal the flat one (``cluster_size=None``)
  bit for bit (decisions, energies, interval samples and metered RMA
  overhead) across fixed workloads and every dynamic scenario shape,
  because one uncapped cluster plus a pass-through second level *is* the
  flat reduction;
* **bounded gap** -- with several clusters the per-cluster way caps
  restrict the optimiser, but the end-to-end energy must stay within a
  small bound of the flat manager's (10% here; measured gaps are far
  smaller).

Property-based tests pin the two-level reduction itself, on the node-graph
reference (:mod:`tests.oracles.node_graph`): over random curves and splice
orders a single-cluster hierarchy matches the flat tree exactly, an
uncapped multi-cluster hierarchy reaches the flat optimum's total energy,
and a capped hierarchy always yields a valid allocation respecting its
caps.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.curves import EnergyCurve
from repro.core.global_opt import cluster_way_caps, partition_clusters
from repro.core.managers import (
    dvfs_only,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
)
from repro.core.overhead_meter import OverheadMeter
from repro.core.packed_tree import PackedReduction
from repro.experiments.runner import (
    DVFS_ONLY,
    RM1,
    RM2,
    RM3,
    ManagerSpec,
    rm2_clustered,
    rm2_oracle,
    rm3_with_model,
)
from repro.scenarios import (
    burst_load,
    churn,
    cluster_churn,
    poisson_arrivals,
    qos_ramp,
    skewed_load,
)
from repro.simulation.rma_sim import RMASimulator
from repro.workloads.mixes import Workload
from tests.conftest import TEST_BENCHMARKS
from tests.oracles.node_graph import ReductionTree, global_optimize

MANAGERS = [
    ("rm1", rm1_partitioning_only),
    ("rm2", rm2_combined),
    ("rm3", rm3_core_adaptive),
    ("dvfs-only", dvfs_only),
]

SCENARIO_SHAPES = [
    ("s1-poisson", poisson_arrivals, {"rate_per_interval": 0.35}),
    ("s2-qos-ramp", qos_ramp, {}),
    ("s3-churn", churn, {"cycles": 4}),
    ("s4-burst", burst_load, {}),
]


def assert_same_numbers(a, b) -> None:
    """RunResult equality with ``==`` on every number (names aside)."""
    assert a.rma_invocations == b.rma_invocations
    assert a.rma_instructions == b.rma_instructions
    assert len(a.apps) == len(b.apps)
    for x, y in zip(a.apps, b.apps):
        assert (x.app, x.core, x.intervals, x.slack) == (y.app, y.core, y.intervals, y.slack)
        assert x.time_ns == y.time_ns
        assert x.energy_nj == y.energy_nj
    assert len(a.interval_samples) == len(b.interval_samples)
    for x, y in zip(a.interval_samples, b.interval_samples):
        assert x == y


def _flat_and_one_cluster(factory, ncores: int, oracle: bool = False):
    flat = factory(oracle=oracle)
    one = factory(cluster_size=ncores, oracle=oracle)
    assert flat.cluster_size is None and one.cluster_size == ncores
    return flat, one


class TestSingleClusterIdentity:
    """cluster_size >= ncores must be the flat manager, bit for bit."""

    @pytest.mark.parametrize("label,factory", MANAGERS, ids=[m[0] for m in MANAGERS])
    def test_fixed_workload(self, system4, db4, label, factory):
        wl = Workload(
            name="clus4",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )
        flat, one = _flat_and_one_cluster(factory, 4)
        a = RMASimulator(system4, db4, wl, flat, max_slices=6).run()
        b = RMASimulator(system4, db4, wl, one, max_slices=6).run()
        assert_same_numbers(a, b)

    def test_fixed_workload_oracle(self, system4, db4):
        wl = Workload(
            name="clus4-oracle",
            apps=("mcf_like", "astar_like", "lbm_like", "namd_like"),
        )
        flat, one = _flat_and_one_cluster(rm2_combined, 4, oracle=True)
        a = RMASimulator(system4, db4, wl, flat, max_slices=6).run()
        b = RMASimulator(system4, db4, wl, one, max_slices=6).run()
        assert_same_numbers(a, b)

    @pytest.mark.parametrize(
        "label,gen,kwargs", SCENARIO_SHAPES, ids=[s[0] for s in SCENARIO_SHAPES]
    )
    @pytest.mark.parametrize(
        "mlabel,factory", [("rm2", rm2_combined), ("rm3", rm3_core_adaptive)],
        ids=["rm2", "rm3"],
    )
    def test_scenario_shapes(self, system4, db4, label, gen, kwargs, mlabel, factory):
        sc = gen(label, 4, TEST_BENCHMARKS, horizon_intervals=24, seed=3, **kwargs)
        flat, one = _flat_and_one_cluster(factory, 4)
        a = RMASimulator(system4, db4, sc.workload, flat,
                         max_slices=6, scenario=sc).run()
        b = RMASimulator(system4, db4, sc.workload, one,
                         max_slices=6, scenario=sc).run()
        assert_same_numbers(a, b)

    @pytest.mark.parametrize(
        "label,gen,kwargs",
        [
            ("s5-cluster-churn", cluster_churn, {"cluster_size": 4, "cycles": 3}),
            ("s6-skewed", skewed_load, {}),
        ],
        ids=["s5", "s6"],
    )
    def test_manycore_shapes_8core(self, system8, db8, label, gen, kwargs):
        sc = gen(label, 8, TEST_BENCHMARKS, horizon_intervals=32, seed=1, **kwargs)
        flat, one = _flat_and_one_cluster(rm2_combined, 8)
        a = RMASimulator(system8, db8, sc.workload, flat,
                         max_slices=4, scenario=sc).run()
        b = RMASimulator(system8, db8, sc.workload, one,
                         max_slices=4, scenario=sc).run()
        assert_same_numbers(a, b)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), shape=st.integers(0, 3))
    def test_splice_orders(self, system4, db4, seed, shape):
        """Random (seed, shape) event streams: every splice order matches."""
        label, gen, kwargs = SCENARIO_SHAPES[shape]
        sc = gen(f"{label}-{seed}", 4, TEST_BENCHMARKS,
                 horizon_intervals=16, seed=seed, **kwargs)
        flat, one = _flat_and_one_cluster(rm2_combined, 4)
        a = RMASimulator(system4, db4, sc.workload, flat,
                         max_slices=4, scenario=sc).run()
        b = RMASimulator(system4, db4, sc.workload, one,
                         max_slices=4, scenario=sc).run()
        assert_same_numbers(a, b)


# ---- property-based tests of the two-level reduction itself ----------------

def _random_curves(rng: np.random.Generator, ncores: int, ways: int) -> list[EnergyCurve]:
    """Random per-core curves with sporadic infeasible (inf) entries."""
    curves = []
    for _ in range(ncores):
        epi = rng.uniform(0.1, 5.0, size=ways)
        mask = rng.random(ways) < 0.2
        epi = np.where(mask, np.inf, epi)
        curves.append(
            EnergyCurve(
                epi=epi,
                freq_idx=rng.integers(0, 4, size=ways),
                core_idx=rng.integers(0, 3, size=ways),
            )
        )
    return curves


def _two_level_solve(curves, clusters, caps, total_ways, meter=None):
    """One clustered solve over prebuilt curves (the manager's inner loop)."""
    level2 = ReductionTree(len(clusters), total_ways, 1)
    for ci, members in enumerate(clusters):
        tree = ReductionTree(len(members), caps[ci], 1, first_id=members[0])
        for local, j in enumerate(members):
            tree.set_leaf(local, curves[j])
        root, changed = tree.refresh(meter)
        level2.set_leaf_node(ci, root, changed)
    return level2.solve(meter)


def _energy(curves, assignment) -> float:
    return sum(float(curves[j].epi[w - 1]) for j, (_, _, w) in assignment.items())


class TestTwoLevelReduction:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), ncores=st.integers(1, 9))
    def test_single_cluster_equals_flat_tree(self, seed, ncores):
        """One uncapped cluster is the flat tree: assignment and meter."""
        rng = np.random.default_rng(seed)
        ways = 3 * ncores + int(rng.integers(0, 4))
        curves = _random_curves(rng, ncores, ways)

        flat_tree = ReductionTree(ncores, ways, 1)
        for j, c in enumerate(curves):
            flat_tree.set_leaf(j, c)
        m_flat, m_clus = OverheadMeter(), OverheadMeter()
        want = flat_tree.solve(m_flat)
        got = _two_level_solve(
            curves, partition_clusters(ncores, ncores), (ways,), ways, m_clus
        )
        assert got == want
        assert m_clus.instructions == m_flat.instructions
        assert m_clus.dp_cells == m_flat.dp_cells

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncores=st.integers(2, 12),
        cluster_size=st.integers(1, 6),
    )
    def test_uncapped_hierarchy_reaches_flat_optimum(self, seed, ncores, cluster_size):
        """With caps at the full associativity the hierarchy loses nothing:
        the assignment may differ in tie-breaks, the total energy may not."""
        rng = np.random.default_rng(seed)
        ways = 3 * ncores
        curves = _random_curves(rng, ncores, ways)
        flat = global_optimize(curves, ways, min_ways=1)
        clusters = partition_clusters(ncores, cluster_size)
        got = _two_level_solve(curves, clusters, (ways,) * len(clusters), ways)
        if flat is None:
            assert got is None
            return
        assert got is not None
        assert _energy(curves, got) == pytest.approx(_energy(curves, flat), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncores=st.integers(2, 12),
        cluster_size=st.integers(1, 6),
    )
    def test_capped_hierarchy_yields_valid_bounded_allocation(
        self, seed, ncores, cluster_size
    ):
        """Caps restrict the solution space: the result (when feasible) is a
        valid allocation -- ways sum exactly, per-cluster totals respect the
        caps -- and its energy is never better than the flat optimum."""
        rng = np.random.default_rng(seed)
        ways = 3 * ncores
        curves = _random_curves(rng, ncores, ways)
        clusters = partition_clusters(ncores, cluster_size)
        caps = cluster_way_caps(ways, ncores, clusters, 1, overprovision=1.5)
        got = _two_level_solve(curves, clusters, caps, ways)
        if got is None:
            return
        assert sorted(got) == list(range(ncores))
        assert sum(w for (_, _, w) in got.values()) == ways
        for members, cap in zip(clusters, caps):
            assert sum(got[j][2] for j in members) <= cap
        for j, (_, _, w) in got.items():
            assert w >= 1
            assert np.isfinite(curves[j].epi[w - 1])
        flat = global_optimize(curves, ways, min_ways=1)
        if flat is not None:
            assert _energy(curves, got) >= _energy(curves, flat) - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), ncores=st.integers(2, 9))
    def test_splice_sequences_match_rebuild(self, seed, ncores):
        """Random update/invalidate sequences: the persistent two-level
        hierarchy equals a from-scratch two-level rebuild every round."""
        rng = np.random.default_rng(seed)
        ways = 3 * ncores
        cluster_size = int(rng.integers(1, ncores + 1))
        clusters = partition_clusters(ncores, cluster_size)
        caps = cluster_way_caps(ways, ncores, clusters, 1)
        cluster_of = {
            j: (ci, local)
            for ci, members in enumerate(clusters)
            for local, j in enumerate(members)
        }

        curves = _random_curves(rng, ncores, ways)
        trees = [ReductionTree(len(m), cap, 1, first_id=m[0]) for m, cap in zip(clusters, caps)]
        level2 = ReductionTree(len(clusters), ways, 1)
        for rounds in range(4):
            # Splice a random subset of leaves with fresh curves.
            for j in np.flatnonzero(rng.random(ncores) < 0.5):
                curves[int(j)] = _random_curves(rng, ncores, ways)[int(j)]
                ci, local = cluster_of[int(j)]
                trees[ci].invalidate(local)
            for ci, members in enumerate(clusters):
                for local, j in enumerate(members):
                    trees[ci].set_leaf(local, curves[j])
                root, changed = trees[ci].refresh()
                level2.set_leaf_node(ci, root, changed)
            persistent = level2.solve()
            rebuilt = _two_level_solve(curves, clusters, caps, ways)
            assert persistent == rebuilt


class TestBoundedGap:
    """Multi-cluster energy stays within 10% of the flat manager's."""

    def _gap_pct(self, system, db, sc, cluster_size, max_slices) -> float:
        flat = RMASimulator(system, db, sc.workload, rm2_combined(),
                            max_slices=max_slices, scenario=sc).run()
        clus = RMASimulator(system, db, sc.workload,
                            rm2_combined(cluster_size=cluster_size),
                            max_slices=max_slices, scenario=sc).run()
        return 100.0 * abs(clus.total_energy_nj - flat.total_energy_nj) / flat.total_energy_nj

    def test_8core_binding_caps(self, system8, db8):
        # cluster_size=2 at 8 cores: caps of 16 < 32 ways genuinely bind.
        sc = poisson_arrivals("gap8", 8, TEST_BENCHMARKS,
                              horizon_intervals=64, seed=0)
        assert self._gap_pct(system8, db8, sc, cluster_size=2, max_slices=6) < 10.0

    def test_16core_binding_caps(self, system16, db16):
        # cluster_size=4 at 16 cores: caps of 32 < 64 ways bind.
        sc = skewed_load("gap16", 16, TEST_BENCHMARKS,
                         horizon_intervals=96, seed=0)
        assert self._gap_pct(system16, db16, sc, cluster_size=4, max_slices=6) < 10.0


class TestClusteredWiring:
    def test_partition_and_caps(self):
        assert partition_clusters(10, 4) == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9))
        caps = cluster_way_caps(64, 16, partition_clusters(16, 4), 1)
        assert caps == (32, 32, 32, 32)
        # One cluster covering all cores is capped at the full associativity.
        assert cluster_way_caps(64, 16, partition_clusters(16, 16), 1) == (64,)
        # Caps always admit a full allocation.
        assert sum(caps) >= 64

    def test_manager_spec_builds_clustered(self):
        from repro.experiments.runner import rm2_clustered

        spec = rm2_clustered(8)
        mgr = spec.build()
        assert mgr.name == "rm2-combined-c8"
        assert mgr.cluster_size == 8
        import pickle

        assert pickle.loads(pickle.dumps(spec)) == spec


def _spec_case(label, spec, name):
    def build(cluster_size):
        return dataclasses.replace(spec, cluster_size=cluster_size).build()

    return pytest.param(build, spec.cluster_size, name, id=label)


def rm3_clustered(cluster_size: int = 8, overprovision: float = 2.0) -> ManagerSpec:
    """Spec for the hierarchical RM3 variant (core resizing + cluster tier)."""
    return ManagerSpec(
        kind="coordinated",
        name=f"rm3-core-adaptive-c{cluster_size}",
        control_core_size=True,
        mlp_model="model3",
        cluster_size=cluster_size,
        overprovision=overprovision,
    )


def _factory_case(factory, cluster_size, name):
    def build(size):
        return factory(cluster_size=size)

    return pytest.param(build, cluster_size, name, id=name)


#: Every coordinated manager the runner and the factories build, with its
#: name hard-coded: names feed run keys and ``run_result_digest``, so they
#: must not move.
COORDINATED_BUILDS = [
    _spec_case("RM1", RM1, "rm1-partitioning"),
    _spec_case("RM2", RM2, "rm2-combined"),
    _spec_case("RM3", RM3, "rm3-core-adaptive"),
    _spec_case("DVFS_ONLY", DVFS_ONLY, "dvfs-only"),
    _spec_case("rm2_oracle", rm2_oracle(), "rm2-oracle"),
    _spec_case("rm2_clustered", rm2_clustered(8), "rm2-combined-c8"),
    _spec_case("rm3_clustered", rm3_clustered(8), "rm3-core-adaptive-c8"),
    _spec_case("rm3_with_model", rm3_with_model("model1"), "rm3-model1"),
    _factory_case(rm1_partitioning_only, None, "rm1-partitioning"),
    _factory_case(rm1_partitioning_only, 8, "rm1-partitioning-c8"),
    _factory_case(rm2_combined, None, "rm2-combined"),
    _factory_case(rm2_combined, 8, "rm2-combined-c8"),
    _factory_case(rm3_core_adaptive, None, "rm3-core-adaptive"),
    _factory_case(rm3_core_adaptive, 8, "rm3-core-adaptive-c8"),
    _factory_case(dvfs_only, None, "dvfs-only"),
    _factory_case(dvfs_only, 8, "dvfs-only-c8"),
]


def _attached_plan(manager, system):
    manager.attach(SimpleNamespace(system=system))
    tree = manager._tree
    return tree._group_sizes, tuple(tree._leaf_caps), tree.total_ways, tree._plan.tobytes()


@pytest.mark.parametrize("build,cluster_size,name", COORDINATED_BUILDS)
def test_coordinated_builds_keep_names_and_one_cluster_plan(
    system16, build, cluster_size, name
):
    """Names are unchanged, and ``None`` plans what ``cluster_size=ncores`` does:
    the flat reduction, one group of every core capped at the full LLC."""
    manager = build(cluster_size)
    assert manager.name == name
    assert manager.cluster_size == cluster_size
    n, ways = system16.ncores, system16.llc.ways
    flat = PackedReduction((n,), (ways,), ways, system16.min_ways_per_core)
    expected = ((n,), (ways,) * n, ways, flat._plan.tobytes())
    assert _attached_plan(build(None), system16) == expected
    assert _attached_plan(build(n), system16) == expected
