"""Identity suite for the engine's fused per-event step.

The engine does one whole event -- next interval completion, advance of
every core, the completing core's retire -- with one
:meth:`~repro.simulation.engine.core_state.CoreArrays.step`: one call into
the compiled library, the step's one implementation.  The scalar
step in ``tests/oracles/engine_step.py`` (``advance_core``,
``next_completion_scalar``, ``lanes_step``) is the executable
specification of the same arithmetic.  This suite drives the step over
randomised core states -- inactive cores, every core idle, stall-free and
stall-only spans, zero spans, exact-completion ties, a completing core
with a stall pending -- and over whole scenario replays at 1..31 cores
(one of them starting with idle cores), and compares with ``==`` on every
number: the fused step must remove interpreter work, never change values.

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
from repro.core.managers import StaticBaselineManager, rm2_combined, rm3_core_adaptive
from repro.scenarios import burst_load, churn, poisson_arrivals, qos_ramp
from repro.simulation.database import build_database
from repro.simulation.engine import core_state
from repro.simulation.engine import kernel as kernel_mod
from repro.simulation.engine.core_state import CoreArrays
from repro.simulation.rma_sim import RMASimulator
from repro.workloads.mixes import Workload
from tests.conftest import CACHE_DIR
from tests.oracles.engine_step import (
    is_valid,
    lanes_step,
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
    """Build (CoreArrays, [ScalarCore], [(tpi, epi)]) with identical
    randomised state.

    ``stalls=False`` zeroes every pending stall, the state the reference
    advance's stall-free branch serves.
    """
    rng = np.random.default_rng(rng_seed)
    arrays = CoreArrays(n)
    scalars, rates = [], []
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
        arrays.tpi[j] = tpi
        arrays.epi[j] = epi
        scalars.append(ScalarCore(instr, stall, energy, active))
        rates.append((tpi, epi))
    _store(arrays, scalars)
    return arrays, scalars, rates


def _store(arrays, scalars):
    """Write the scalar lanes' state into the arrays."""
    for j, core in enumerate(scalars):
        arrays.instr_done[j] = core.instr_done
        arrays.pending_stall_ns[j] = core.pending_stall_ns
        arrays.energy_nj[j] = core.energy_nj
        arrays.set_active(j, core.active)


def _step_matches_oracle(arrays, scalars, rates):
    """One production step and one oracle step agree on ``(j, dt)`` and on
    every lane (``instr_done`` of the completing lane aside: the oracle
    leaves it, production advances it, the kernel resets it)."""
    want = lanes_step(scalars, rates, INTERVAL_INSTR)
    got = arrays.step(INTERVAL_INSTR)
    assert got == want
    assert type(got[0]) is int and type(got[1]) is float
    j = got[0]
    for k, core in enumerate(scalars):
        if k != j:
            assert arrays.instr_done[k] == core.instr_done, k
        assert arrays.pending_stall_ns[k] == core.pending_stall_ns, k
        assert arrays.energy_nj[k] == core.energy_nj, k
    return got


def _advance_case(n, seed, dt_kind, stalls):
    arrays, scalars, rates = _state(n, seed, stalls)
    k = seed % n
    lane = scalars[k]
    if dt_kind != "random":
        # Lane k sits at its interval's end, so its remaining span is its
        # pending stall: 0 ("zero"), a denormal ("tiny") or a span another
        # lane's equal stall drains exactly ("stall_edge").
        lane.active, lane.instr_done = True, INTERVAL_INSTR
        lane.pending_stall_ns = {"zero": 0.0, "tiny": 5e-324}.get(
            dt_kind, lane.pending_stall_ns or 1.0
        )
        if dt_kind == "stall_edge" and n > 1:
            scalars[(k + 1) % n].pending_stall_ns = lane.pending_stall_ns
        _store(arrays, scalars)
    _step_matches_oracle(arrays, scalars, rates)


class TestVectorAdvance:
    """CoreArrays.step's advance == per-core advance_core, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 65),
        seed=st.integers(0, 10_000),
        dt_kind=st.sampled_from(["random", "zero", "stall_edge", "tiny"]),
        stalls=st.booleans(),
    )
    def test_matches_scalar(self, n, seed, dt_kind, stalls):
        _advance_case(n, seed, dt_kind, stalls)

    def test_stall_only_span_makes_no_progress(self):
        # Lane 2 completes after exactly 3 ns of stall.
        arrays = CoreArrays(3)
        arrays.pending_stall_ns[:] = (10.0, 3.0, 3.0)
        arrays.instr_done[2] = INTERVAL_INSTR
        arrays.tpi[:] = 1.0
        arrays.epi[:] = 1.0
        assert arrays.step(INTERVAL_INSTR) == (2, 3.0)
        # Core 0 spent the whole span stalled; core 1 exactly drained it.
        assert arrays.instr_done[0] == 0.0 and arrays.energy_nj[0] == 0.0
        assert arrays.pending_stall_ns[0] == 7.0
        assert arrays.instr_done[1] == 0.0 and arrays.pending_stall_ns[1] == 0.0

    def test_inactive_lanes_untouched(self):
        for stalls in (True, False):  # both reference advance branches
            arrays, _, _ = _state(8, 7, stalls)
            arrays.set_active(3, False)
            arrays.set_active(5, False)
            before = (
                arrays.instr_done.copy(),
                arrays.pending_stall_ns.copy(),
                arrays.energy_nj.copy(),
            )
            j, dt = arrays.step(INTERVAL_INSTR)
            assert j not in (3, 5) and dt > 0.0
            for k in (3, 5):
                assert arrays.instr_done[k] == before[0][k]
                assert arrays.pending_stall_ns[k] == before[1][k]
                assert arrays.energy_nj[k] == before[2][k]

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


def _check_completion(arrays):
    want = _next_completion_scalar(arrays, INTERVAL_INSTR)
    got = arrays.step(INTERVAL_INSTR)
    assert got == want
    return got


class TestVectorArgmin:
    """CoreArrays.step's completion == the scalar reference loop."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 65), seed=st.integers(0, 10_000))
    def test_matches_scalar(self, n, seed):
        _check_completion(_state(n, seed)[0])

    def test_tie_breaks_to_lowest_core_id(self):
        arrays = CoreArrays(4)
        arrays.tpi[:] = 1.0
        # Cores 1 and 3 are exactly tied; 0 and 2 are slower.
        arrays.instr_done[:] = (0.0, 500.0, 100.0, 500.0)
        assert _check_completion(arrays) == (1, 500.0)

    def test_exact_completion_tie_with_stall(self):
        # instr_done == interval: remaining is the pending stall exactly.
        arrays = CoreArrays(3)
        arrays.tpi[:] = 2.0
        arrays.instr_done[:] = (INTERVAL_INSTR, INTERVAL_INSTR, 0.0)
        arrays.pending_stall_ns[:] = (5.0, 5.0, 0.0)
        assert _check_completion(arrays) == (0, 5.0)

    def test_all_inactive_returns_inf(self):
        arrays = CoreArrays(3)
        for k in range(3):
            arrays.set_active(k, False)
        j, r = _check_completion(arrays)
        assert j == 0 and math.isinf(r)

    def test_inactive_lane_never_wins(self):
        arrays = CoreArrays(2)
        arrays.tpi[:] = 1.0
        arrays.instr_done[:] = (INTERVAL_INSTR, 0.0)  # lane 0 would win
        arrays.set_active(0, False)
        j, _ = _check_completion(arrays)
        assert j == 1


def _step_case(n, seed, kind):
    arrays, scalars, rates = _state(n, seed)
    k = seed % n
    if kind == "all_idle":
        for core in scalars:
            core.active = False
    else:
        # Keep every other lane at least half an interval away, so lane k
        # (and its twin) completes first.
        for core in scalars:
            core.instr_done = min(core.instr_done, INTERVAL_INSTR / 2)
        lane = scalars[k]
        lane.active = True
        lane.instr_done = INTERVAL_INSTR if kind == "zero_span" else INTERVAL_INSTR - 1.0
        lane.pending_stall_ns = {"zero_span": 0.0, "tie": 0.25}.get(kind, 2.0)
        if kind == "tie" and n > 1:
            m = (k + 1) % n
            scalars[m] = ScalarCore(lane.instr_done, lane.pending_stall_ns, 1.0, True)
            rates[m] = rates[k]
            arrays.tpi[m], arrays.epi[m] = rates[k]
            k = min(k, m)
    _store(arrays, scalars)
    j, dt = _step_matches_oracle(arrays, scalars, rates)
    if kind == "all_idle":
        assert (j, dt) == (0, math.inf)
    else:
        assert j == k
        assert dt == 0.0 if kind == "zero_span" else dt > 0.0


class TestStep:
    """CoreArrays.step as a whole == the scalar ``lanes_step``."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["all_idle", "zero_span", "tie", "stalled_completion"]),
    )
    def test_matches_lanes_step(self, n, seed, kind):
        _step_case(n, seed, kind)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 64])
    @pytest.mark.parametrize("kind", ["all_idle", "zero_span", "tie", "stalled_completion"])
    def test_every_lane_completes(self, kind, n):
        # Seeds 0..n put the completing lane (seed % n) at every position,
        # the first and last lanes and a tie across the wrap included.
        for seed in range(n + 1):
            _step_case(n, seed, kind)

    def test_completing_lane_retires_exactly_with_a_stall_pending(self):
        arrays = CoreArrays(2)
        arrays.tpi[:] = (0.5, 1.0)
        arrays.epi[:] = (2.0, 3.0)
        arrays.instr_done[:] = (INTERVAL_INSTR - 4.0, 0.0)
        arrays.pending_stall_ns[:] = (1.5, 0.0)
        arrays.energy_nj[:] = (10.0, 20.0)
        # Lane 0: 1.5 ns of stall, then 4 instructions at 0.5 ns each.
        assert arrays.step(INTERVAL_INSTR) == (0, 3.5)
        assert arrays.energy_nj[0] == 10.0 + 4.0 * 2.0
        assert arrays.pending_stall_ns[0] == 0.0
        assert arrays.instr_done[1] == 3.5 and arrays.energy_nj[1] == 20.0 + 3.5 * 3.0

    def test_rows_are_views_of_one_buffer(self):
        n = 5
        arrays = CoreArrays(n)
        rows = [getattr(arrays, name) for name in core_state._LANES]
        arrays.set_active(2, False)
        arrays.step(INTERVAL_INSTR)
        arrays.set_active(2, True)
        buf = arrays._lanes
        assert arrays._addr == buf.ctypes.data
        for i, name in enumerate(core_state._LANES):
            row = getattr(arrays, name)
            assert row is rows[i], name  # never rebound
            assert row.base is buf and row.flags.c_contiguous
            assert row.ctypes.data == buf.ctypes.data + i * n * buf.itemsize
        arrays.tpi[3] = 7.0
        assert buf[3 * n + 3] == 7.0
        assert buf[5 * n + 2] == 0.0  # the pad row follows set_active


def _scheduler_step(sim):
    """The production entry -- ``refresh_stale``, then one
    ``CoreArrays.step`` -- against the scalar reference's ``(j, dt)``,
    read before the step advances the lanes.  The refresh must leave every
    active entry fresh (the reference's reads refresh a stale entry
    themselves, so its ``(j, dt)`` alone cannot show a missed refresh).
    The completing lane restarts its interval, as the kernel's completion
    bookkeeping does."""
    sched = sim.scheduler
    sched.refresh_stale()
    assert all(is_valid(sched, k) for k in range(sim.arrays.n) if sim.arrays.active[k])
    want = next_completion_scalar(sched)
    got = sim.arrays.step(sim.system.interval_instructions)
    assert got == want
    sim.arrays.instr_done[got[0]] = 0.0
    return got


class TestSchedulerVectorPath:
    """The scheduler-fed step's completion equals the scalar reference
    over live state."""

    def test_next_completion_matches_scalar(self, system4, db4):
        wl = Workload(
            name="vec4",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )
        sim = RMASimulator(system4, db4, wl, StaticBaselineManager(), max_slices=4)
        sched = sim.scheduler
        _scheduler_step(sim)
        # Perturb state mid-run and compare again.
        sim.arrays.instr_done[2] = 0.75 * system4.interval_instructions
        sim.arrays.pending_stall_ns[1] = 123.0
        _scheduler_step(sim)
        # An idle core keeps its stale entry and never wins.
        sim.cores[0].active = False
        sched.invalidate(0)
        j, _ = _scheduler_step(sim)
        assert j != 0
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
        """A manager returning the same full map every time is a no-op:
        every entry equals the current setting, so nothing is applied."""
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
    loop.  A churn replay and a QoS-ramp replay under RM3 do the same at
    every core count, with core-size changes in the loop.
    """

    @staticmethod
    def _replay(ncores, scenario, simulator, manager=rm2_combined):
        system = default_system(ncores=ncores)
        db = build_database(
            system, names=IDENTITY_APPS, accesses_per_set=100,
            processes=1, cache_dir=CACHE_DIR,
        )
        return simulator(
            system, db, scenario.workload, manager(),
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

    @pytest.mark.parametrize("ncores", range(1, 32))
    def test_core_adaptive_churn_steps_bit_identical(self, ncores):
        # RM3 moves cores between sizes, so a lane's rates jump and its
        # transition stalls are the longest any manager charges; churn
        # idles a lane and refills it with a fresh tenant, and a QoS ramp
        # tightens every target in steps, forcing reallocations.
        scenarios = [
            churn(
                f"step-identity-churn-{ncores}", ncores, IDENTITY_APPS,
                cycles=3, idle_intervals=1.0, horizon_intervals=8 * ncores, seed=ncores,
            ),
            qos_ramp(
                f"step-identity-ramp-{ncores}", ncores, IDENTITY_APPS,
                start_slack=0.3, end_slack=0.0, steps=3,
                horizon_intervals=8 * ncores, seed=ncores,
            ),
        ]
        assert any(ev.kind == "depart" for ev in scenarios[0].events)
        for scenario in scenarios:
            fused = self._replay(ncores, scenario, RMASimulator, rm3_core_adaptive)
            scalar = self._replay(ncores, scenario, ScalarStepSimulator, rm3_core_adaptive)
            assert_bit_identical(scalar, fused)
