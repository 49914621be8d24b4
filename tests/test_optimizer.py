"""Tests for the paper's optimisation machinery.

The load-bearing checks: the pairwise-reduction global optimiser must be
*exactly* optimal against brute-force enumeration (the objective is separable
so the DP is exact, which is why the paper's "heuristic" finds the optimum in
polynomial time), and the local optimiser must match a brute-force scan of
the QoS-feasible configuration space.  The global optimiser checked here is
the node-graph reference (:mod:`tests.oracles.node_graph`); the production
packed reduction is held bit-identical to it by ``tests/test_packed_tree.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_system
from repro.core.curves import EnergyCurve
from repro.core.local_opt import DimSpec
from repro.core.overhead_meter import (
    COST_DP_CELL,
    COST_FIXED,
    COST_GRID_POINT,
    OverheadMeter,
)
from repro.core.local_opt import ROW_FIELDS, local_optimize_batch
from tests.oracles.model_chain import local_optimize, qos_target_tpi
from tests.oracles.node_graph import ReductionTree, global_optimize


def random_curve(rng, ways, feasible_prob=0.9):
    epi = rng.uniform(0.5, 3.0, ways)
    mask = rng.random(ways) < feasible_prob
    if not mask.any():
        mask[rng.integers(ways)] = True
    epi = np.where(mask, epi, np.inf)
    return EnergyCurve(
        epi=epi,
        freq_idx=rng.integers(0, 5, ways),
        core_idx=rng.integers(0, 3, ways),
    )


def brute_force(curves, total_ways, min_ways=1):
    ncores = len(curves)
    best, best_alloc = np.inf, None
    rng_ways = range(min_ways, total_ways + 1)
    for combo in itertools.product(rng_ways, repeat=ncores):
        if sum(combo) != total_ways:
            continue
        cost = sum(c.epi[w - 1] for c, w in zip(curves, combo))
        if cost < best:
            best, best_alloc = cost, combo
    return best, best_alloc


class TestEnergyCurve:
    def test_feasibility(self):
        c = EnergyCurve(np.array([np.inf, 1.0]), np.zeros(2, int), np.zeros(2, int))
        assert np.isfinite(c.epi).any()
        assert list(np.isfinite(c.epi)) == [False, True]

    def test_setting_at(self):
        c = EnergyCurve(np.array([np.inf, 1.0]), np.array([3, 4]), np.array([0, 1]))
        assert c.setting_at(2) == (1, 4, 2)
        with pytest.raises(ValueError):
            c.setting_at(1)

    def test_pinned(self):
        c = EnergyCurve.pinned(ways=4, core_idx=1, freq_idx=6, max_ways=16)
        assert c.setting_at(4) == (1, 6, 4)
        assert np.isfinite(c.epi).sum() == 1
        assert c.epi[3] == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            EnergyCurve(np.ones(4), np.zeros(3, int), np.zeros(4, int))


class TestGlobalOptimize:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_matches_bruteforce(self, ncores, seed):
        rng = np.random.default_rng(seed)
        ways = 8
        curves = [random_curve(rng, ways) for _ in range(ncores)]
        got = global_optimize(curves, total_ways=ways, min_ways=1)
        want_cost, want_alloc = brute_force(curves, ways)
        if got is None:
            assert want_alloc is None or not np.isfinite(want_cost)
            return
        got_ways = [got[j][2] for j in range(ncores)]
        assert sum(got_ways) == ways
        got_cost = sum(curves[j].epi[got[j][2] - 1] for j in range(ncores))
        assert got_cost == pytest.approx(want_cost)

    def test_single_core_takes_all_feasible_minimum(self):
        rng = np.random.default_rng(0)
        curve = random_curve(rng, 8, feasible_prob=1.0)
        got = global_optimize([curve], total_ways=8)
        assert got[0][2] == 8  # one core owns the whole cache

    def test_pinned_cores_get_their_ways(self):
        rng = np.random.default_rng(1)
        curves = [
            EnergyCurve.pinned(4, 1, 2, 16),
            EnergyCurve.pinned(4, 1, 2, 16),
            random_curve(rng, 16, 1.0),
            EnergyCurve.pinned(4, 1, 2, 16),
        ]
        got = global_optimize(curves, 16)
        assert got[0][2] == got[1][2] == got[3][2] == 4
        assert got[2][2] == 4  # remaining ways exactly

    def test_infeasible_returns_none(self):
        curves = [
            EnergyCurve.pinned(8, 0, 0, 8),
            EnergyCurve.pinned(8, 0, 0, 8),
        ]
        # both cores demand 8 ways, but only 8 exist in total
        assert global_optimize(curves, 8) is None

    def test_meter_counts_dp_cells(self):
        rng = np.random.default_rng(2)
        curves = [random_curve(rng, 8, 1.0) for _ in range(4)]
        meter = OverheadMeter()
        global_optimize(curves, 8, meter=meter)
        assert meter.dp_cells > 0

    def test_respects_min_ways(self):
        rng = np.random.default_rng(3)
        curves = [random_curve(rng, 12, 1.0) for _ in range(3)]
        got = global_optimize(curves, 12, min_ways=2)
        assert all(got[j][2] >= 2 for j in range(3))

    def test_total_ways_error(self):
        rng = np.random.default_rng(4)
        curves = [random_curve(rng, 4, 1.0) for _ in range(3)]
        with pytest.raises(ValueError):
            global_optimize(curves, 2, min_ways=1)


class TestReductionTree:
    """The persistent tree must equal a from-scratch rebuild -- assignment
    *and* metered DP charges -- after arbitrary leaf update/splice orders."""

    @staticmethod
    def _assert_matches_scratch(tree, curves, total_ways):
        tree_meter, scratch_meter = OverheadMeter(), OverheadMeter()
        got = tree.solve(tree_meter)
        want = global_optimize(curves, total_ways, min_ways=1, meter=scratch_meter)
        assert got == want
        assert tree_meter.dp_cells == scratch_meter.dp_cells
        assert tree_meter.instructions == scratch_meter.instructions

    @settings(max_examples=60, deadline=None)
    @given(
        ncores=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        ops=st.lists(
            st.tuples(st.sampled_from(["update", "same", "splice", "solve"]),
                      st.integers(0, 5)),
            min_size=1, max_size=24,
        ),
    )
    def test_equals_from_scratch_after_arbitrary_updates(self, ncores, seed, ops):
        rng = np.random.default_rng(seed)
        ways = 8
        tree = ReductionTree(ncores, total_ways=ways, min_ways=1)
        curves = [random_curve(rng, ways) for _ in range(ncores)]
        for j, c in enumerate(curves):
            tree.set_leaf(j, c)
        self._assert_matches_scratch(tree, curves, ways)
        for op, raw in ops:
            j = raw % ncores
            if op == "update":
                curves[j] = random_curve(rng, ways)
                tree.set_leaf(j, curves[j])
            elif op == "same":
                # A numerically identical fresh object must be a no-op.
                c = curves[j]
                tree.set_leaf(j, EnergyCurve(
                    epi=c.epi.copy(),
                    freq_idx=c.freq_idx.copy(), core_idx=c.core_idx.copy(),
                ))
            elif op == "splice":
                # Scenario swap/depart/arrive: force the leaf dirty, then
                # install the new tenant's curve (possibly equal-valued).
                tree.invalidate(j)
                curves[j] = random_curve(rng, ways)
                tree.set_leaf(j, curves[j])
            else:
                self._assert_matches_scratch(tree, curves, ways)
        self._assert_matches_scratch(tree, curves, ways)

    def test_solve_requires_all_leaves(self):
        tree = ReductionTree(3, total_ways=8)
        tree.set_leaf(0, EnergyCurve.pinned(2, 0, 0, 8))
        with pytest.raises(ValueError):
            tree.solve()

    def test_infeasible_total_returns_none_and_recovers(self):
        tree = ReductionTree(2, total_ways=8)
        tree.set_leaf(0, EnergyCurve.pinned(8, 0, 0, 8))
        tree.set_leaf(1, EnergyCurve.pinned(8, 0, 0, 8))
        assert tree.solve() is None
        # Splicing in a satisfiable pair recovers without a rebuild.
        tree.set_leaf(0, EnergyCurve.pinned(4, 0, 0, 8))
        tree.set_leaf(1, EnergyCurve.pinned(4, 0, 0, 8))
        got = tree.solve()
        assert got[0][2] == got[1][2] == 4


class TestLocalOptimize:
    def setup_method(self):
        self.system = default_system(4)
        rng = np.random.default_rng(42)
        shape = (self.system.ncore_sizes, self.system.vf.nlevels, self.system.llc.ways)
        # decreasing in f and w, like real TPI
        self.tpi = (
            2.0 / self.system.vf.freqs_array()[None, :, None]
            + np.linspace(1.5, 0.3, shape[2])[None, None, :]
            + rng.uniform(0, 0.05, shape)
        )
        self.epi = rng.uniform(0.5, 3.0, shape)

    def _brute(self, target, dims):
        cores = dims.cores(self.system)
        freqs = dims.freqs(self.system)
        n_w = self.system.llc.ways
        out = np.full(n_w, np.inf)
        for w in range(n_w):
            if dims.pin_ways is not None and w != dims.pin_ways - 1:
                continue
            for c in cores:
                for f in freqs:
                    if self.tpi[c, f, w] <= target and self.epi[c, f, w] < out[w]:
                        out[w] = self.epi[c, f, w]
        return out

    def test_matches_bruteforce_full_dims(self):
        dims = DimSpec()
        target = qos_target_tpi(self.system, self.tpi, 0.0)
        curve = local_optimize(self.system, self.tpi, self.epi, target, dims)
        np.testing.assert_allclose(curve.epi, self._brute(target, dims))

    def test_matches_bruteforce_restricted(self):
        dims = DimSpec(core_indices=(1,), freq_indices=(0, 5, 10))
        target = qos_target_tpi(self.system, self.tpi, 0.1)
        curve = local_optimize(self.system, self.tpi, self.epi, target, dims)
        np.testing.assert_allclose(curve.epi, self._brute(target, dims))

    def test_pin_ways(self):
        dims = DimSpec(pin_ways=4)
        target = qos_target_tpi(self.system, self.tpi, 0.0)
        curve = local_optimize(self.system, self.tpi, self.epi, target, dims)
        assert np.isfinite(curve.epi[3])
        assert np.isinf(np.delete(curve.epi, 3)).all()

    def test_selected_settings_are_feasible_and_argmin(self):
        dims = DimSpec()
        target = qos_target_tpi(self.system, self.tpi, 0.0)
        curve = local_optimize(self.system, self.tpi, self.epi, target, dims)
        for w in range(self.system.llc.ways):
            if not np.isfinite(curve.epi[w]):
                continue
            c, f = int(curve.core_idx[w]), int(curve.freq_idx[w])
            assert self.tpi[c, f, w] <= target
            assert self.epi[c, f, w] == pytest.approx(curve.epi[w])

    def test_baseline_always_feasible_at_zero_slack(self):
        dims = DimSpec()
        target = qos_target_tpi(self.system, self.tpi, 0.0)
        curve = local_optimize(self.system, self.tpi, self.epi, target, dims)
        assert np.isfinite(curve.epi[self.system.baseline_ways - 1])

    def test_more_slack_never_raises_energy(self):
        dims = DimSpec()
        t0 = qos_target_tpi(self.system, self.tpi, 0.0)
        t1 = qos_target_tpi(self.system, self.tpi, 0.5)
        c0 = local_optimize(self.system, self.tpi, self.epi, t0, dims)
        c1 = local_optimize(self.system, self.tpi, self.epi, t1, dims)
        mask = np.isfinite(c0.epi)
        assert np.all(c1.epi[mask] <= c0.epi[mask] + 1e-12)

    def test_meter_grid_points(self):
        meter = OverheadMeter()
        meter.begin_invocation()
        dims = DimSpec(core_indices=(1,))
        target = qos_target_tpi(self.system, self.tpi, 0.0)
        local_optimize(self.system, self.tpi, self.epi, target, dims, meter)
        assert meter.grid_points == self.system.vf.nlevels * self.system.llc.ways


class TestQosTarget:
    def test_monotone_in_slack(self):
        system = default_system(4)
        tpi = np.full((3, system.vf.nlevels, 16), 1.0)
        assert qos_target_tpi(system, tpi, 0.5) > qos_target_tpi(system, tpi, 0.0)

    def test_tolerance_applied(self):
        from repro.core.qos import QOS_TOLERANCE

        system = default_system(4)
        tpi = np.full((3, system.vf.nlevels, 16), 1.0)
        assert qos_target_tpi(system, tpi, 0.0, tolerance=0.0) == pytest.approx(1.0)
        assert qos_target_tpi(system, tpi, 0.0) == pytest.approx(1.0 + QOS_TOLERANCE)

    @staticmethod
    def _compiled_targets(system, tpi, slacks):
        """The targets the compiled call writes back to its input rows."""
        rows = np.zeros((len(tpi), len(ROW_FIELDS)))
        rows[:, ROW_FIELDS.index("slack")] = slacks
        grids = np.stack([tpi, np.ones_like(tpi)])
        local_optimize_batch(system, rows, grids, DimSpec())
        return rows[:, ROW_FIELDS.index("target")]

    def test_batched_targets_equal_per_core(self):
        """The managers' batched targets are the per-core targets, bit for bit."""
        system = default_system(4)
        rng = np.random.default_rng(3)
        tpi = rng.uniform(0.2, 5.0, size=(64, 3, system.vf.nlevels, 16))
        slacks = rng.choice([0.0, 0.05, 0.1, 0.3, 0.5], size=64).tolist()
        got = self._compiled_targets(system, tpi, slacks)
        assert got.tolist() == [qos_target_tpi(system, t, s) for t, s in zip(tpi, slacks)]

    def test_rejects_negative_slack(self):
        system = default_system(4)
        with pytest.raises(ValueError):
            qos_target_tpi(system, np.ones((3, system.vf.nlevels, 16)), -0.1)
        with pytest.raises(ValueError, match="slack must be non-negative"):
            self._compiled_targets(system, np.ones((2, 3, system.vf.nlevels, 16)), [0.0, -0.1])


class TestOverheadMeter:
    def test_accumulates(self):
        m = OverheadMeter()
        m.begin_invocation()
        m.charge_grid(100)
        m.charge_dp(50)
        assert m.invocations == 1
        assert m.instructions == COST_FIXED + 100 * COST_GRID_POINT + 50 * COST_DP_CELL
        assert m.instructions / m.invocations == m.instructions

    def test_per_invocation_average(self):
        m = OverheadMeter()
        m.begin_invocation()
        m.charge_grid(10)
        m.begin_invocation()
        m.charge_grid(30)
        assert m.invocations == 2
        # The costlier second invocation is at least the mean.
        assert COST_FIXED + 30 * COST_GRID_POINT >= m.instructions / m.invocations

    def test_overhead_fraction(self):
        m = OverheadMeter()
        m.begin_invocation()
        m.charge_grid(1000)
        assert 0 < m.instructions / m.invocations / 100_000_000 < 0.01

    def test_empty_meter(self):
        m = OverheadMeter()
        assert m.instructions == 0.0 and m.invocations == 0
        assert m.grid_points == 0 and m.dp_cells == 0
