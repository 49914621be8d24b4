"""Golden equivalence suite for the layered simulation kernel.

The engine refactor (:mod:`repro.simulation.engine`) must be *bit-identical*
to the frozen pre-refactor reference (:mod:`tests.oracles.legacy_sim`):
same event ordering, same float arithmetic, same `RunResult` numbers.  This
suite replays representative fixed workloads and all four dynamic-scenario
shapes (the S1-S4 generators) through both implementations, serial and
multi-process, and compares with ``==`` -- no tolerances.

It also unit-tests the incremental scheduler's invalidation protocol: a
core's cached completion state must be recomputed after an allocation
change, a tenant swap, a departure, and a slack change.

The second golden axis is the *manager pipeline*: the production
coordinated-manager path (stacked curve construction, curve memoization,
persistent packed reduction) must be bit-identical to the
recompute-everything reference path
(:func:`tests.oracles.reference_manager.reference`) across
RM1/RM2/RM3/dvfs-only, fixed workloads and all four scenario shapes, serial
and spawn-multiprocess -- including the metered RMA instruction counts,
which model the paper's always-recomputing on-line algorithm.
"""

from __future__ import annotations

import math

import pytest

from repro.config import Allocation
from repro.core.history import rm2_history, rm3_history
from repro.core.managers import (
    StaticBaselineManager,
    dvfs_only,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
)
from repro.experiments.runner import BASELINE, RM2, ExperimentContext
from repro.scenarios import (
    ScenarioEvent,
    burst_load,
    churn,
    cluster_churn,
    poisson_arrivals,
    qos_ramp,
)
from repro.simulation.rma_sim import RMASimulator
from repro.workloads.mixes import Workload
from tests.conftest import TEST_BENCHMARKS
from tests.oracles.engine_step import is_valid, next_completion_scalar, remaining_ns, tpi
from tests.oracles.legacy_sim import LegacyRMASimulator
from tests.oracles.reference_manager import reference

MANAGERS = [
    ("baseline", StaticBaselineManager),
    ("rm1", rm1_partitioning_only),
    ("rm2", rm2_combined),
    ("rm3", rm3_core_adaptive),
]

#: (generator, kwargs) covering the S1..S4 scenario shapes.
SCENARIO_SHAPES = [
    ("s1-poisson", poisson_arrivals, {"rate_per_interval": 0.35}),
    ("s2-qos-ramp", qos_ramp, {}),
    ("s3-churn", churn, {"cycles": 4}),
    ("s4-burst", burst_load, {}),
]


def assert_bit_identical(a, b) -> None:
    """RunResult equality with ``==`` on every number -- no tolerances."""
    assert a.workload == b.workload and a.manager == b.manager
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


def _wl4() -> Workload:
    return Workload(
        name="gold4",
        apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
    )


class TestGoldenFixedWorkloads:
    @pytest.mark.parametrize("label,factory", MANAGERS, ids=[m[0] for m in MANAGERS])
    def test_4core(self, system4, db4, label, factory):
        old = LegacyRMASimulator(system4, db4, _wl4(), factory(), max_slices=6).run()
        new = RMASimulator(system4, db4, _wl4(), factory(), max_slices=6).run()
        assert_bit_identical(old, new)

    def test_4core_with_slack(self, system4, db4):
        wl = _wl4().with_slack(0.2)
        old = LegacyRMASimulator(system4, db4, wl, rm2_combined(), max_slices=6).run()
        new = RMASimulator(system4, db4, wl, rm2_combined(), max_slices=6).run()
        assert_bit_identical(old, new)

    def test_8core(self, system8, db8):
        wl = Workload(name="gold8", apps=tuple(TEST_BENCHMARKS[:7]) + ("mcf_like",))
        old = LegacyRMASimulator(system8, db8, wl, rm2_combined(), max_slices=4).run()
        new = RMASimulator(system8, db8, wl, rm2_combined(), max_slices=4).run()
        assert_bit_identical(old, new)


class TestGoldenScenarios:
    @pytest.mark.parametrize(
        "label,gen,kwargs", SCENARIO_SHAPES, ids=[s[0] for s in SCENARIO_SHAPES]
    )
    @pytest.mark.parametrize("manager", [StaticBaselineManager, rm2_combined])
    def test_scenario_shapes(self, system4, db4, label, gen, kwargs, manager):
        sc = gen(label, 4, TEST_BENCHMARKS, horizon_intervals=24, seed=3, **kwargs)
        old = LegacyRMASimulator(
            system4, db4, sc.workload, manager(), max_slices=6, scenario=sc
        ).run()
        new = RMASimulator(
            system4, db4, sc.workload, manager(), max_slices=6, scenario=sc
        ).run()
        assert_bit_identical(old, new)

    def test_8core_scenario(self, system8, db8):
        sc = poisson_arrivals("gold8-s1", 8, TEST_BENCHMARKS,
                              horizon_intervals=32, seed=1)
        old = LegacyRMASimulator(
            system8, db8, sc.workload, rm2_combined(), max_slices=4, scenario=sc
        ).run()
        new = RMASimulator(
            system8, db8, sc.workload, rm2_combined(), max_slices=4, scenario=sc
        ).run()
        assert_bit_identical(old, new)

    def test_64core_scenario(self, system64, db64):
        """Many-core golden run: the struct-of-arrays hot path (vectorised
        advance + masked argmin), the clustered-manager grouped refreshes
        and the shared curve memo must stay bit-identical to the frozen
        reference at the scale they were built for."""
        sc = cluster_churn("gold64-s5", 64, TEST_BENCHMARKS, cluster_size=8,
                           cycles=8, horizon_intervals=96, seed=2)
        for factory in (
            StaticBaselineManager,
            rm2_combined,
            lambda: rm2_combined(cluster_size=8),
        ):
            old = LegacyRMASimulator(
                system64, db64, sc.workload, factory(), max_slices=4, scenario=sc
            ).run()
            new = RMASimulator(
                system64, db64, sc.workload, factory(), max_slices=4, scenario=sc
            ).run()
            assert_bit_identical(old, new)


class TestGoldenMultiprocess:
    def test_serial_and_parallel_match_legacy(self, system4, db4):
        """Engine results are bit-identical to the legacy reference both when
        run serially and when fanned out over worker processes."""
        ctx = ExperimentContext(system=system4, db=db4, max_slices=6)
        scenarios = [
            poisson_arrivals("mp-p", 4, TEST_BENCHMARKS, horizon_intervals=24, seed=0),
            churn("mp-c", 4, TEST_BENCHMARKS, cycles=4, horizon_intervals=24, seed=0),
        ]
        golden = {
            (sc.name, spec.name): LegacyRMASimulator(
                system4, db4, sc.workload, spec.build(), max_slices=6, scenario=sc
            ).run()
            for sc in scenarios
            for spec in (BASELINE, RM2)
        }
        serial = ctx.run_scenarios(scenarios, [BASELINE, RM2], processes=1)
        parallel = ctx.run_scenarios(scenarios, [BASELINE, RM2], processes=2)
        assert set(serial) == set(parallel) == set(golden)
        for key in golden:
            assert_bit_identical(golden[key], serial[key])
            assert_bit_identical(golden[key], parallel[key])


#: Every coordinated-manager restriction the papers evaluate, plus the
#: history-aware extension (which overrides curve construction and must
#: bypass the curve memo while still using the persistent reduction).
PIPELINE_MANAGERS = [
    ("rm1", rm1_partitioning_only),
    ("rm2", rm2_combined),
    ("rm3", rm3_core_adaptive),
    ("dvfs-only", dvfs_only),
    ("rm2-history", rm2_history),
    ("rm3-history", rm3_history),
]

#: Subset whose factories take ``oracle=`` (history managers do not --
#: oracle mode replaces the very curve construction they extend).
ORACLE_MANAGERS = PIPELINE_MANAGERS[:4]


class TestManagerPipelineEquivalence:
    """Production manager pipeline vs the reference pipeline."""

    @pytest.mark.parametrize(
        "label,factory", PIPELINE_MANAGERS, ids=[m[0] for m in PIPELINE_MANAGERS]
    )
    def test_fixed_workload(self, system4, db4, label, factory):
        ref = RMASimulator(
            system4, db4, _wl4(), reference(factory()), max_slices=6
        ).run()
        inc = RMASimulator(
            system4, db4, _wl4(), factory(), max_slices=6
        ).run()
        assert_bit_identical(ref, inc)

    @pytest.mark.parametrize(
        "label,factory", ORACLE_MANAGERS, ids=[m[0] for m in ORACLE_MANAGERS]
    )
    def test_fixed_workload_oracle(self, system4, db4, label, factory):
        """The oracle ("perfect models") path batches every active core."""
        ref = RMASimulator(
            system4, db4, _wl4(), reference(factory(oracle=True)), max_slices=6
        ).run()
        inc = RMASimulator(
            system4, db4, _wl4(), factory(oracle=True), max_slices=6
        ).run()
        assert_bit_identical(ref, inc)

    @pytest.mark.parametrize(
        "slabel,gen,kwargs", SCENARIO_SHAPES, ids=[s[0] for s in SCENARIO_SHAPES]
    )
    @pytest.mark.parametrize(
        "mlabel,factory", PIPELINE_MANAGERS, ids=[m[0] for m in PIPELINE_MANAGERS]
    )
    def test_scenario_shapes(self, system4, db4, slabel, gen, kwargs, mlabel, factory):
        """S1-S4 exercise the memo/tree splice paths: arrivals, departures,
        tenant swaps and QoS ramps must never serve a stale curve."""
        sc = gen(slabel, 4, TEST_BENCHMARKS, horizon_intervals=24, seed=3, **kwargs)
        ref = RMASimulator(
            system4, db4, sc.workload, reference(factory()),
            max_slices=6, scenario=sc,
        ).run()
        inc = RMASimulator(
            system4, db4, sc.workload, factory(),
            max_slices=6, scenario=sc,
        ).run()
        assert_bit_identical(ref, inc)

    @pytest.mark.parametrize(
        "slabel,gen,kwargs", SCENARIO_SHAPES, ids=[s[0] for s in SCENARIO_SHAPES]
    )
    def test_scenario_shapes_oracle(self, system4, db4, slabel, gen, kwargs):
        """Scenario events must also never stale the oracle memo (keyed on
        phase identity + slack) or the batched bridge reads."""
        sc = gen(slabel, 4, TEST_BENCHMARKS, horizon_intervals=24, seed=3, **kwargs)
        ref = RMASimulator(
            system4, db4, sc.workload, reference(rm2_combined(oracle=True)),
            max_slices=6, scenario=sc,
        ).run()
        inc = RMASimulator(
            system4, db4, sc.workload, rm2_combined(oracle=True),
            max_slices=6, scenario=sc,
        ).run()
        assert_bit_identical(ref, inc)

    def test_8core_scenario(self, system8, db8):
        sc = poisson_arrivals("pipe8-s1", 8, TEST_BENCHMARKS,
                              horizon_intervals=32, seed=1)
        ref = RMASimulator(
            system8, db8, sc.workload, reference(rm2_combined()),
            max_slices=4, scenario=sc,
        ).run()
        inc = RMASimulator(
            system8, db8, sc.workload, rm2_combined(),
            max_slices=4, scenario=sc,
        ).run()
        assert_bit_identical(ref, inc)

    def test_serial_and_spawn_multiprocess(self, system4, db4):
        """Both pipelines agree under serial and spawn-multiprocess fan-out
        (spawn workers inherit nothing: manager state -- memo, reduction
        tree -- must be rebuilt per run, not leaked across them)."""
        import multiprocessing as mp

        from repro.experiments.runner import _init_worker, _run_one_scenario
        from repro.util.parallel import parallel_map

        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        ctx = ExperimentContext(system=system4, db=db4, max_slices=6,
                                results_store=None)
        scenarios = [
            poisson_arrivals("pp-p", 4, TEST_BENCHMARKS, horizon_intervals=24, seed=0),
            qos_ramp("pp-q", 4, TEST_BENCHMARKS, horizon_intervals=24, seed=0),
        ]
        serial_ref = {
            (sc.name, "rm2-combined"): RMASimulator(
                system4, db4, sc.workload, reference(rm2_combined()),
                max_slices=6, scenario=sc,
            ).run()
            for sc in scenarios
        }
        serial_inc = ctx.run_scenarios(scenarios, [RM2], processes=1)
        tasks = [(sc, RM2, 6) for sc in scenarios]
        spawn_inc = parallel_map(
            _run_one_scenario, tasks, processes=2,
            initializer=_init_worker, initargs=(ctx,),
            start_method="spawn",
        )
        for sc, spawned in zip(scenarios, spawn_inc):
            ref = serial_ref[(sc.name, "rm2-combined")]
            assert_bit_identical(ref, serial_inc[(sc.name, "rm2-combined")])
            assert_bit_identical(ref, spawned)


class TestSchedulerInvalidation:
    def _sim(self, system4, db4, scenario=None):
        wl = _wl4() if scenario is None else scenario.workload
        return RMASimulator(
            system4, db4, wl, StaticBaselineManager(), max_slices=6, scenario=scenario
        )

    def test_alloc_change_recomputes_completion_time(self, system4, db4):
        sim = self._sim(system4, db4)
        sched = sim.scheduler
        before = remaining_ns(sched, 0)
        assert is_valid(sched, 0)
        base = system4.baseline_allocation()
        grown = Allocation(core=base.core, freq=base.freq, ways=base.ways + 1)
        shrunk = Allocation(core=base.core, freq=base.freq, ways=base.ways - 1)
        sim._apply({0: grown, 1: shrunk})
        assert not is_valid(sched, 0) and not is_valid(sched, 1)
        after = remaining_ns(sched, 0)
        # recomputed against the new allocation's tpi grid (plus the
        # transition stall the reconfiguration charged)
        rec = db4.record(sim.cores[0].app, sim.cores[0].seq[0])
        expect = sim.cores[0].pending_stall_ns + (
            system4.interval_instructions * rec.tpi_at(grown)
        )
        assert after == expect
        assert after != before
        assert tpi(sched, 0) == rec.tpi_at(grown)

    def test_swap_recomputes_completion_time(self, system4, db4):
        sim = self._sim(system4, db4)
        sched = sim.scheduler
        remaining_ns(sched, 2)
        assert is_valid(sched, 2)
        ev = ScenarioEvent(time_ns=0.0, core=2, kind="swap", app="namd_like")
        sim.tenancy.apply_event(sim.cores[2], ev, now=0.0)
        assert not is_valid(sched, 2)
        rec = db4.record("namd_like", db4.phase_sequence("namd_like")[0])
        assert tpi(sched, 2) == rec.tpi_at(sim.cores[2].alloc)
        # the warm-up stall the swap charged is part of the completion time
        assert remaining_ns(sched, 2) > system4.interval_instructions * tpi(sched, 2)

    def test_depart_invalidates_and_idles(self, system4, db4):
        sim = self._sim(system4, db4)
        sched = sim.scheduler
        assert math.isfinite(remaining_ns(sched, 1))
        ev = ScenarioEvent(time_ns=0.0, core=1, kind="depart")
        sim.tenancy.apply_event(sim.cores[1], ev, now=0.0)
        assert not is_valid(sched, 1)
        assert remaining_ns(sched, 1) == math.inf
        # The refresh freshens the active entries only, and the step never
        # picks the idle core.
        sched.refresh_stale()
        assert [is_valid(sched, k) for k in range(4)] == [True, False, True, True]
        want = next_completion_scalar(sched)
        j, dt = sim.arrays.step(system4.interval_instructions)
        assert (j, dt) == want
        assert j != 1

    def test_slack_event_invalidates(self, system4, db4):
        sim = self._sim(system4, db4)
        sched = sim.scheduler
        before = remaining_ns(sched, 3)
        assert is_valid(sched, 3)
        ev = ScenarioEvent(time_ns=0.0, core=3, kind="slack", slack=0.3)
        sim.tenancy.apply_event(sim.cores[3], ev, now=0.0)
        assert not is_valid(sched, 3)
        assert sim.bridge.slack(3) == 0.3
        # slack does not change execution speed: the recomputation is a no-op
        assert remaining_ns(sched, 3) == before

    def test_manager_attached_to_bridge(self, system4, db4):
        """Managers are driven through the bridge, not the kernel itself."""
        mgr = rm2_combined()
        sim = self._sim(system4, db4)
        sim.manager = mgr
        sim.tenancy.manager = mgr
        run = sim.run()
        assert mgr.sim is sim.bridge
        assert run.rma_invocations > 0
