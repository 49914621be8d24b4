"""Cross-cutting property tests on the optimisation and simulation invariants.

These pin down the algebraic properties the paper's algorithm relies on:
tree-shape invariance of the pairwise reduction, slack monotonicity of the
whole pipeline, and conservation laws in the RMA simulator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Allocation, default_system
from repro.core.curves import EnergyCurve
from repro.core.managers import rm2_combined
from repro.simulation.metrics import compare_runs
from repro.simulation.overheads import transition_cost
from repro.simulation.rma_sim import RMASimulator, simulate_workload
from repro.workloads.mixes import Workload
from tests.oracles.node_graph import global_optimize
from tests.test_optimizer import random_curve


class TestReductionTreeInvariance:
    """The optimum must not depend on the order curves are paired in."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 10_000))
    def test_permutation_invariant_cost(self, ncores, seed):
        rng = np.random.default_rng(seed)
        ways = 8
        curves = [random_curve(rng, ways, feasible_prob=1.0) for _ in range(ncores)]

        def total_cost(order):
            # Position p of the permuted list holds curves[order[p]].
            got = global_optimize([curves[i] for i in order], ways)
            return sum(curves[i].epi[got[p][2] - 1] for p, i in enumerate(order))

        base = total_cost(list(range(ncores)))
        for _ in range(3):
            perm = list(rng.permutation(ncores))
            assert total_cost(perm) == pytest.approx(base)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_duplicated_curves_symmetric(self, seed):
        """Identical curves must receive cost-equivalent allocations."""
        rng = np.random.default_rng(seed)
        ways = 12
        proto = random_curve(rng, ways, feasible_prob=1.0)
        curves = [
            EnergyCurve(proto.epi.copy(), proto.freq_idx.copy(), proto.core_idx.copy())
            for _ in range(3)
        ]
        got = global_optimize(curves, ways)
        costs = sorted(proto.epi[got[j][2] - 1] for j in range(3))
        # swapping any two cores cannot improve: re-solve says same total
        total = sum(costs)
        got2 = global_optimize(curves[::-1], ways)
        total2 = sum(proto.epi[got2[j][2] - 1] for j in range(3))
        assert total == pytest.approx(total2)


class TestSimulatorConservation:
    WL = Workload(
        name="inv-mix", apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like")
    )

    def test_time_monotone_in_slices(self, system4, db4):
        times = []
        for n in (5, 10, 20):
            run = simulate_workload(system4, db4, self.WL, max_slices=n)
            times.append(run.max_time_ns)
        assert times[0] < times[1] < times[2]

    def test_energy_positive_and_additive(self, system4, db4):
        run = simulate_workload(system4, db4, self.WL, rm2_combined(), max_slices=10)
        assert all(a.energy_nj > 0 for a in run.apps)
        assert run.total_energy_nj == pytest.approx(sum(a.energy_nj for a in run.apps))

    def test_interval_count_matches_trace(self, system4, db4):
        run = simulate_workload(system4, db4, self.WL, max_slices=12)
        for a in run.apps:
            assert a.intervals == 12

    def test_transition_costs_charged(self, system4, db4):
        """A manager that reconfigures must cost more than the overhead-free
        replay of the same decisions (stall time is nonnegative)."""
        mgr = rm2_combined()
        sim = RMASimulator(system4, db4, self.WL, mgr, max_slices=10)
        stalls = []
        orig = sim._apply

        def spy(allocations):
            orig(allocations)
            stalls.append(sum(c.pending_stall_ns for c in sim.cores))

        sim._apply = spy
        sim.run()
        assert any(s > 0 for s in stalls)

    def test_slack_monotone_end_to_end(self, system4, db4):
        base = simulate_workload(system4, db4, self.WL, max_slices=15)
        savings = []
        for slack in (0.0, 0.2, 0.4):
            wl = self.WL.with_slack(slack)
            run = simulate_workload(
                system4, db4, wl, rm2_combined(oracle=True), max_slices=15
            )
            savings.append(compare_runs(base, run).savings_pct)
        assert savings[0] <= savings[1] + 0.3
        assert savings[1] <= savings[2] + 0.3

    def test_oracle_never_violates_with_zero_slack(self, system4, db4):
        base = simulate_workload(system4, db4, self.WL, max_slices=15)
        run = simulate_workload(
            system4, db4, self.WL, rm2_combined(oracle=True), max_slices=15
        )
        assert compare_runs(base, run).n_violations == 0


class TestOverheadProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2), st.integers(0, 24), st.integers(1, 16),
        st.integers(0, 2), st.integers(0, 24), st.integers(1, 16),
    )
    def test_costs_nonnegative(self, c1, f1, w1, c2, f2, w2):
        system = default_system(4)
        f1, f2 = min(f1, system.vf.nlevels - 1), min(f2, system.vf.nlevels - 1)
        a, b = Allocation(c1, f1, w1), Allocation(c2, f2, w2)
        cost = transition_cost(system, a, b)
        assert cost.stall_ns >= 0.0
        assert cost.energy_nj >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 24), st.integers(1, 16))
    def test_identity_is_free(self, c, f, w):
        system = default_system(4)
        f = min(f, system.vf.nlevels - 1)
        a = Allocation(c, f, w)
        cost = transition_cost(system, a, a)
        assert cost.stall_ns == 0.0 and cost.energy_nj == 0.0
