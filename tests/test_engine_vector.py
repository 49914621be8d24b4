"""Identity suite for the engine's fused per-event step.

The engine finds the next interval completion and advances every core with
a fixed handful of vector operations over
:class:`~repro.simulation.engine.core_state.CoreArrays`; the scalar step
in ``tests/oracles/engine_step.py`` (``advance_core``,
``next_completion_scalar``) is the executable specification of the same
arithmetic.  This suite drives both over randomised core states --
inactive cores, stall-free and stall-only spans, exact-completion ties --
and over whole scenario replays at 1..31 cores (one of them starting with
idle cores), and compares with ``==`` on every number: the fused step
must remove interpreter work, never change values.

It also covers the kernel's delta-maintained way-budget audit (the O(N)
re-sum `_apply` used to do per reallocation) including its debug-mode full
recount, and the identity fast path for re-served allocation maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_system
from repro.config import Allocation
from repro.core.managers import StaticBaselineManager, rm2_combined
from repro.scenarios import burst_load, poisson_arrivals
from repro.simulation.database import build_database
from repro.simulation.engine import kernel as kernel_mod
from repro.simulation.engine.core_state import CoreArrays
from repro.simulation.rma_sim import RMASimulator
from repro.workloads.mixes import Workload
from tests.conftest import CACHE_DIR
from tests.oracles.engine_step import (
    advance_core,
    is_valid,
    next_completion_scalar,
    scalar_step,
)
from tests.test_engine_equivalence import assert_bit_identical

#: Interval length used by the synthetic argmin states (arbitrary but fixed).
INTERVAL_INSTR = 1000.0


@dataclass
class ScalarCore:
    """Plain scalar double of one CoreArrays lane for the reference path."""

    instr_done: float
    pending_stall_ns: float
    energy_nj: float
    active: bool


def _state(n, rng_seed, stalls=True):
    """Build (CoreArrays, [ScalarCore]) with identical randomised state.

    ``stalls=False`` zeroes every pending stall, the state the advance's
    stall-free branch serves.
    """
    rng = np.random.default_rng(rng_seed)
    arrays = CoreArrays(n)
    scalars = []
    for j in range(n):
        instr = float(rng.uniform(0.0, INTERVAL_INSTR))
        # Mix exact zeros into the stall state: the scalar path branches on
        # pending > 0 and the vector path must mirror the no-stall case
        # bit-exactly (subtracting a served 0.0).
        stall = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 50.0))
        if not stalls:
            stall = 0.0
        energy = float(rng.uniform(0.0, 1e6))
        active = bool(rng.random() < 0.8)
        tpi = float(rng.uniform(0.05, 2.0))
        epi = float(rng.uniform(0.1, 5.0))
        arrays.instr_done[j] = instr
        arrays.pending_stall_ns[j] = stall
        arrays.energy_nj[j] = energy
        arrays.set_active(j, active)
        arrays.tpi[j] = tpi
        arrays.epi[j] = epi
        scalars.append((ScalarCore(instr, stall, energy, active), tpi, epi))
    return arrays, scalars


class TestVectorAdvance:
    """CoreArrays.advance_all == per-core advance_core, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 65),
        seed=st.integers(0, 10_000),
        dt_kind=st.sampled_from(["random", "zero", "stall_edge", "tiny"]),
        stalls=st.booleans(),
    )
    def test_matches_scalar(self, n, seed, dt_kind, stalls):
        arrays, scalars = _state(n, seed, stalls)
        if dt_kind == "random":
            dt = float(np.random.default_rng(seed + 1).uniform(0.0, 100.0))
        elif dt_kind == "zero":
            dt = 0.0
        elif dt_kind == "tiny":
            dt = 5e-324  # denormal span: stall-serving edge arithmetic
        else:
            # Exactly one core's pending stall: that core serves its stall
            # to exactly zero remaining span (the dt <= 0 early-out).
            k = seed % n
            dt = scalars[k][0].pending_stall_ns or 1.0

        arrays.advance_all(dt)
        for j, (core, tpi, epi) in enumerate(scalars):
            advance_core(core, dt, tpi, epi)
            assert arrays.instr_done[j] == core.instr_done
            assert arrays.pending_stall_ns[j] == core.pending_stall_ns
            assert arrays.energy_nj[j] == core.energy_nj

    def test_stall_only_span_makes_no_progress(self):
        arrays = CoreArrays(2)
        arrays.pending_stall_ns[:] = (10.0, 3.0)
        arrays.tpi[:] = 1.0
        arrays.epi[:] = 1.0
        arrays.advance_all(3.0)
        # Core 0 spent the whole span stalled; core 1 exactly drained it.
        assert arrays.instr_done[0] == 0.0 and arrays.energy_nj[0] == 0.0
        assert arrays.pending_stall_ns[0] == 7.0
        assert arrays.instr_done[1] == 0.0 and arrays.pending_stall_ns[1] == 0.0

    def test_inactive_lanes_untouched(self):
        for stalls in (True, False):  # both advance branches
            arrays, _ = _state(8, 7, stalls)
            arrays.set_active(3, False)
            arrays.set_active(5, False)
            before = (
                arrays.instr_done.copy(),
                arrays.pending_stall_ns.copy(),
                arrays.energy_nj.copy(),
            )
            arrays.advance_all(10.0)
            for j in (3, 5):
                assert arrays.instr_done[j] == before[0][j]
                assert arrays.pending_stall_ns[j] == before[1][j]
                assert arrays.energy_nj[j] == before[2][j]

    def test_set_active_keeps_the_pad_in_step(self):
        arrays = CoreArrays(3)
        assert list(arrays.idle_pad) == [0.0, 0.0, 0.0]
        arrays.set_active(1, False)
        assert not arrays.active[1] and math.isinf(arrays.idle_pad[1])
        arrays.set_active(1, True)
        assert arrays.active[1] and arrays.idle_pad[1] == 0.0


def _next_completion_scalar(arrays: CoreArrays, interval_instr: float):
    """The reference loop's formula and first-minimum tie-break, verbatim."""
    best = math.inf
    best_j = 0
    for j in range(arrays.n):
        if not arrays.active[j]:
            continue
        left = interval_instr - float(arrays.instr_done[j])
        r = float(arrays.pending_stall_ns[j]) + left * float(arrays.tpi[j])
        if r < best:
            best = r
            best_j = j
    return best_j, best


class TestVectorArgmin:
    """CoreArrays.next_completion == the scalar reference loop."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 65), seed=st.integers(0, 10_000))
    def test_matches_scalar(self, n, seed):
        arrays, _ = _state(n, seed)
        j, r = arrays.next_completion(INTERVAL_INSTR)
        sj, sr = _next_completion_scalar(arrays, INTERVAL_INSTR)
        assert (j, r) == (sj, sr)

    def test_tie_breaks_to_lowest_core_id(self):
        arrays = CoreArrays(4)
        arrays.tpi[:] = 1.0
        # Cores 1 and 3 are exactly tied; 0 and 2 are slower.
        arrays.instr_done[:] = (0.0, 500.0, 100.0, 500.0)
        j, r = arrays.next_completion(INTERVAL_INSTR)
        assert j == 1 and r == 500.0

    def test_exact_completion_tie_with_stall(self):
        # instr_done == interval: remaining is the pending stall exactly.
        arrays = CoreArrays(3)
        arrays.tpi[:] = 2.0
        arrays.instr_done[:] = (INTERVAL_INSTR, INTERVAL_INSTR, 0.0)
        arrays.pending_stall_ns[:] = (5.0, 5.0, 0.0)
        j, r = arrays.next_completion(INTERVAL_INSTR)
        assert j == 0 and r == 5.0

    def test_all_inactive_returns_inf(self):
        arrays = CoreArrays(3)
        for k in range(3):
            arrays.set_active(k, False)
        j, r = arrays.next_completion(INTERVAL_INSTR)
        assert j == 0 and math.isinf(r)

    def test_inactive_lane_never_wins(self):
        arrays = CoreArrays(2)
        arrays.tpi[:] = 1.0
        arrays.instr_done[:] = (INTERVAL_INSTR, 0.0)  # lane 0 would win
        arrays.set_active(0, False)
        j, _ = arrays.next_completion(INTERVAL_INSTR)
        assert j == 1


class TestSchedulerVectorPath:
    """The scheduler's argmin equals the scalar reference over live state."""

    def test_next_completion_matches_scalar(self, system4, db4):
        wl = Workload(
            name="vec4",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )
        sim = RMASimulator(system4, db4, wl, StaticBaselineManager(), max_slices=4)
        sched = sim.scheduler
        assert sched.next_completion() == next_completion_scalar(sched)
        # Perturb state mid-run and compare again.
        sim.arrays.instr_done[2] = 0.75 * system4.interval_instructions
        sim.arrays.pending_stall_ns[1] = 123.0
        assert sched.next_completion() == next_completion_scalar(sched)
        # An idle core keeps its stale entry and never wins.
        sim.cores[0].active = False
        sched.invalidate(0)
        assert sched.next_completion() == next_completion_scalar(sched)
        assert not is_valid(sched, 0)


class TestWayBudgetAudit:
    """The delta-maintained way total must equal a from-scratch recount."""

    def _sim(self, system4, db4):
        wl = Workload(
            name="audit4",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )
        return RMASimulator(system4, db4, wl, StaticBaselineManager(), max_slices=4)

    def test_tracks_deltas_and_recount(self, system4, db4, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_WAYS_AUDIT", True)
        sim = self._sim(system4, db4)
        base = system4.baseline_allocation()
        assert sim._ways_total == sum(c.alloc.ways for c in sim.cores)
        grown = Allocation(core=base.core, freq=base.freq, ways=base.ways + 2)
        shrunk = Allocation(core=base.core, freq=base.freq, ways=base.ways - 2)
        sim._apply({0: grown, 1: shrunk})
        assert sim._ways_total == sum(c.alloc.ways for c in sim.cores)
        assert sim.cores[0].alloc.ways == base.ways + 2

    def test_over_budget_rejected_before_mutation(self, system4, db4):
        sim = self._sim(system4, db4)
        base = system4.baseline_allocation()
        grown = Allocation(core=base.core, freq=base.freq, ways=base.ways + 1)
        with pytest.raises(ValueError, match="manager allocated"):
            sim._apply({0: grown})
        # The rejected map must not have been partially applied.
        assert sim.cores[0].alloc == base
        assert sim._ways_total == sum(c.alloc.ways for c in sim.cores)

    def test_full_run_under_manager_with_recount(self, system4, db4, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_WAYS_AUDIT", True)
        wl = Workload(
            name="audit4m",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )
        run = RMASimulator(system4, db4, wl, rm2_combined(), max_slices=4).run()
        assert run.rma_invocations > 0

    def test_reserved_map_identity_fast_path(self, system4, db4):
        """A manager re-serving the same dict object is a recognised no-op."""
        sim = self._sim(system4, db4)

        class ConstantManager(StaticBaselineManager):
            def __init__(self, allocs):
                super().__init__()
                self.allocs = allocs
                self.calls = 0

            def on_interval(self, core_id):
                self.calls += 1
                return self.allocs

        base = system4.baseline_allocation()
        allocs = {j: base for j in range(4)}
        mgr = ConstantManager(allocs)
        wl = Workload(
            name="audit4c",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )
        run = RMASimulator(system4, db4, wl, mgr, max_slices=3).run()
        assert mgr.calls > 1
        assert run.rma_invocations == 0  # StaticBaseline meters nothing


#: Apps of the identity replays' databases (one per core count, so kept
#: small: every Paper II type, 100 accesses per set).
IDENTITY_APPS = ["mcf_like", "libquantum_like", "povray_like", "namd_like"]


class ScalarStepSimulator(RMASimulator):
    """The production kernel driven by the scalar reference step."""

    def _step(self):
        return scalar_step(self)


class TestFusedStepIdentity:
    """Whole-run bit identity of the fused step and the scalar step.

    At every core count from 1 to 31, a Poisson-arrival replay and a burst
    replay (every core but one starts idle, then the cores fill and drain)
    run under RM2 through the production step and through the scalar
    reference step, and must agree with ``==`` on every number -- with
    the manager, transition stalls, tenancy churn and QoS scoring in the
    loop.
    """

    @staticmethod
    def _replay(ncores, scenario, simulator):
        system = default_system(ncores=ncores)
        db = build_database(
            system, names=IDENTITY_APPS, accesses_per_set=100,
            processes=1, cache_dir=CACHE_DIR,
        )
        return simulator(
            system, db, scenario.workload, rm2_combined(),
            max_slices=4, scenario=scenario,
        ).run()

    @pytest.mark.parametrize("ncores", range(1, 32))
    def test_fused_and_scalar_steps_bit_identical(self, ncores):
        scenarios = [
            poisson_arrivals(
                f"step-identity-{ncores}", ncores, IDENTITY_APPS,
                rate_per_interval=0.3, horizon_intervals=24, seed=ncores,
            )
        ]
        if ncores >= 2:
            scenarios.append(burst_load(
                f"step-identity-burst-{ncores}", ncores, IDENTITY_APPS,
                burst_start_intervals=1.0, burst_length_intervals=2.0,
                horizon_intervals=6 * ncores, seed=ncores,
            ))
            assert not all(scenarios[-1].active)
        for scenario in scenarios:
            fused = self._replay(ncores, scenario, RMASimulator)
            scalar = self._replay(ncores, scenario, ScalarStepSimulator)
            assert_bit_identical(scalar, fused)
