"""Bit-identity of the batched curve-construction pipeline.

Every function in :mod:`repro.core.batch_opt` (and the batched prediction
kernels it drives) must equal the per-core loop it replaces with ``==`` on
every number -- same elementwise expressions, same argmin tie-breaking,
same metered charges.  The memoization tests pin the staleness contract:
a hit may only be served while the digest key -- counter snapshot, sampled
ATD curves, QoS slack -- is unchanged, so QoS ramps and tenant swaps always
recompute.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Allocation
from repro.core.batch_opt import analytical_curves_batch, oracle_curves_batch
from repro.core.energy_model import predict_epi_grid_batch
from repro.core.local_opt import DimSpec
from repro.core.managers import rm2_combined
from repro.core.models import MLP_MODELS
from repro.core.overhead_meter import OverheadMeter
from repro.core.perf_model import exec_cpi_estimate_batch, predict_tpi_grid_batch
from repro.cpu.counters import observe_counters
from tests.conftest import TEST_BENCHMARKS
from tests.oracles.model_chain import (
    exec_cpi_estimate,
    local_optimize,
    predict_epi_grid,
    predict_tpi_grid,
    qos_target_tpi,
)
from tests.oracles.reference_manager import reference


def _stats(system, db, seed, n):
    """(records, snapshots) for ``n`` cores at varied phases/allocations."""
    rng = np.random.default_rng(seed)
    recs, snaps = [], []
    for _ in range(n):
        bench = TEST_BENCHMARKS[rng.integers(len(TEST_BENCHMARKS))]
        seq = db.phase_sequence(bench)
        rec = db.record(bench, seq[rng.integers(len(seq))])
        alloc = Allocation(
            core=int(rng.integers(system.ncore_sizes)),
            freq=int(rng.integers(system.vf.nlevels)),
            ways=int(rng.integers(1, system.llc.ways + 1)),
        )
        recs.append(rec)
        snaps.append(observe_counters(system, rec, alloc))
    return recs, snaps


DIMS_CASES = [
    ("rm1", DimSpec(core_indices=(1,), freq_indices=(12,))),
    ("rm2", DimSpec(core_indices=(1,))),
    ("rm3", DimSpec()),
    ("dvfs-only", DimSpec(core_indices=(1,), pin_ways=4)),
]


class TestBatchedPredictions:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_exec_cpi_rows_equal_scalar(self, system4, db4, seed, n):
        _, snaps = _stats(system4, db4, seed, n)
        batch = exec_cpi_estimate_batch(system4, snaps)
        for i, snap in enumerate(snaps):
            assert np.array_equal(batch[i], exec_cpi_estimate(system4, snap))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_tpi_and_epi_slices_equal_scalar(self, system4, db4, seed, n):
        recs, snaps = _stats(system4, db4, seed, n)
        model = MLP_MODELS["model3"]
        mpki_batch = np.stack([np.asarray(r.mpki_sampled, dtype=float) for r in recs])
        mlp_batch = np.stack(
            [model.mlp_hat(system4, s, r.mlp_sampled) for s, r in zip(snaps, recs)]
        )
        tpi_batch = predict_tpi_grid_batch(system4, snaps, mpki_batch, mlp_batch)
        epi_batch = predict_epi_grid_batch(system4, snaps, mpki_batch, tpi_batch)
        for i, (rec, snap) in enumerate(zip(recs, snaps)):
            mlp_hat = model.mlp_hat(system4, snap, rec.mlp_sampled)
            tpi = predict_tpi_grid(system4, snap, rec.mpki_sampled, mlp_hat)
            assert np.array_equal(tpi_batch[i], tpi)
            epi = predict_epi_grid(system4, snap, rec.mpki_sampled, tpi)
            assert np.array_equal(epi_batch[i], epi)


def assert_same_curves(batched, looped):
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert a.core_id == b.core_id
        assert np.array_equal(a.epi, b.epi)
        assert np.array_equal(a.freq_idx, b.freq_idx)
        assert np.array_equal(a.core_idx, b.core_idx)


class TestBatchedCurves:
    @pytest.mark.parametrize("label,dims", DIMS_CASES, ids=[d[0] for d in DIMS_CASES])
    def test_analytical_batch_equals_loop(self, system4, db4, label, dims):
        model = MLP_MODELS["model2"]
        recs, snaps = _stats(system4, db4, seed=7, n=6)
        slacks = [0.0, 0.1, 0.0, 0.2, 0.0, 0.05]
        meter_b, meter_l = OverheadMeter(), OverheadMeter()

        batched = analytical_curves_batch(
            system4, model, list(range(6)), snaps,
            [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
            slacks, dims, meter_b,
        )
        looped = []
        for j, (rec, snap) in enumerate(zip(recs, snaps)):
            mlp_hat = model.mlp_hat(system4, snap, rec.mlp_sampled)
            tpi = predict_tpi_grid(system4, snap, rec.mpki_sampled, mlp_hat)
            epi = predict_epi_grid(system4, snap, rec.mpki_sampled, tpi)
            target = qos_target_tpi(system4, tpi, slacks[j])
            looped.append(
                local_optimize(system4, j, tpi, epi, target, dims, meter_l)
            )
        assert_same_curves(batched, looped)
        assert meter_b.grid_points == meter_l.grid_points
        assert meter_b.instructions == meter_l.instructions

    def test_oracle_batch_equals_loop(self, system4, db4):
        recs, _ = _stats(system4, db4, seed=11, n=5)
        slacks = [0.0, 0.1, 0.0, 0.0, 0.3]
        dims = DimSpec(core_indices=(1,))
        meter_b, meter_l = OverheadMeter(), OverheadMeter()
        batched = oracle_curves_batch(
            system4, list(range(5)), recs, slacks, dims, meter_b
        )
        looped = [
            local_optimize(
                system4, j, rec.tpi, rec.epi,
                qos_target_tpi(system4, rec.tpi, slacks[j]), dims, meter_l,
            )
            for j, rec in enumerate(recs)
        ]
        assert_same_curves(batched, looped)
        assert meter_b.instructions == meter_l.instructions

    def test_batch_curves_are_views_of_one_buffer(self, system4, db4):
        """The batch path hands out row *views*, not per-row copies.

        Each returned curve's arrays must alias one shared batch output
        (``N`` rows, one allocation) -- the copy-free contract the packed
        reduction's ingest relies on -- while staying value-identical to
        the scalar path row by row.
        """
        from repro.core.local_opt import local_optimize_batch

        model = MLP_MODELS["model2"]
        recs, snaps = _stats(system4, db4, seed=29, n=5)
        mpki = np.stack([np.asarray(r.mpki_sampled, dtype=float) for r in recs])
        mlp = np.stack(
            [model.mlp_hat(system4, s, r.mlp_sampled) for s, r in zip(snaps, recs)]
        )
        tpi = predict_tpi_grid_batch(system4, snaps, mpki, mlp)
        epi = predict_epi_grid_batch(system4, snaps, mpki, tpi)
        targets = np.array([
            qos_target_tpi(system4, t, 0.0) for t in tpi
        ])
        dims = DimSpec(core_indices=(1,))
        curves = local_optimize_batch(
            system4, list(range(5)), tpi, epi, targets, dims
        )
        epi_base = curves[0].epi.base
        assert epi_base is not None  # a view, not an owning copy
        for i, c in enumerate(curves):
            assert c.epi.base is epi_base
            assert c.freq_idx.base is curves[0].freq_idx.base
            assert c.core_idx.base is curves[0].core_idx.base
            want = local_optimize(
                system4, i, tpi[i], epi[i], float(targets[i]), dims
            )
            assert_same_curves([c], [want])

    def test_per_core_pins_equal_loop(self, system4, db4):
        """The UCP+DVFS manager's per-core fixed partitions."""
        model = MLP_MODELS["model2"]
        recs, snaps = _stats(system4, db4, seed=13, n=4)
        pins = [2, 4, 7, 3]
        base = DimSpec(core_indices=(system4.baseline_core_index,))
        batched = analytical_curves_batch(
            system4, model, list(range(4)), snaps,
            [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
            [0.0] * 4, base, None, pin_ways_per_core=pins,
        )
        for j, (rec, snap) in enumerate(zip(recs, snaps)):
            mlp_hat = model.mlp_hat(system4, snap, rec.mlp_sampled)
            tpi = predict_tpi_grid(system4, snap, rec.mpki_sampled, mlp_hat)
            epi = predict_epi_grid(system4, snap, rec.mpki_sampled, tpi)
            target = qos_target_tpi(system4, tpi, 0.0)
            dims = DimSpec(
                core_indices=(system4.baseline_core_index,), pin_ways=pins[j]
            )
            want = local_optimize(system4, j, tpi, epi, target, dims)
            assert_same_curves([batched[j]], [want])
            assert np.isfinite(batched[j].epi).sum() <= 1


class _StubSim:
    """Minimal manager-facing simulator surface for direct manager tests."""

    def __init__(self, system, recs, snaps, slacks):
        self.system = system
        self.recs = list(recs)
        self.snaps = list(snaps)
        self.slacks = list(slacks)

    def slack(self, core_id):
        return self.slacks[core_id]

    def is_active(self, core_id):
        return True

    def completed_snapshot(self, core_id):
        return self.snaps[core_id]

    def completed_record(self, core_id):
        return self.recs[core_id]


class TestCurveMemoization:
    def _managers(self, system4, db4, slacks):
        recs, snaps = _stats(system4, db4, seed=21, n=system4.ncores)
        inc, ref = rm2_combined(), reference(rm2_combined())
        inc.attach(_StubSim(system4, recs, snaps, slacks))
        ref.attach(_StubSim(system4, recs, snaps, slacks))
        return inc, ref

    @staticmethod
    def _assert_same_decision(inc, ref, core_id):
        got, want = inc.on_interval(core_id), ref.on_interval(core_id)
        assert got == want
        assert inc.meter.instructions == ref.meter.instructions
        assert inc.meter.grid_points == ref.meter.grid_points
        assert inc.meter.dp_cells == ref.meter.dp_cells

    def test_stable_stats_hit_the_memo(self, system4, db4):
        inc, ref = self._managers(system4, db4, [0.0] * 4)
        self._assert_same_decision(inc, ref, 0)
        first = inc.curves[0]
        assert len(inc._memo) == 1
        # Same snapshot and slack again: the memo serves the same object and
        # replays the modelled grid charge.
        self._assert_same_decision(inc, ref, 0)
        assert inc.curves[0] is first

    def test_qos_ramp_invalidates_the_memo(self, system4, db4):
        """A slack change is part of the digest key: the post-ramp decision
        must recompute (never serve the pre-ramp curve) and still equal the
        recomputing reference bit for bit."""
        inc, ref = self._managers(system4, db4, [0.0] * 4)
        self._assert_same_decision(inc, ref, 0)
        pre_ramp = inc.curves[0]
        inc.sim.slacks[0] = 0.3
        ref.sim.slacks[0] = 0.3
        self._assert_same_decision(inc, ref, 0)
        assert inc.curves[0] is not pre_ramp
        assert not pre_ramp.same_curve(inc.curves[0])
        assert len(inc._memo) == 2  # pre- and post-ramp keys coexist
        # Ramping back restores the original curve from the memo.
        inc.sim.slacks[0] = 0.0
        ref.sim.slacks[0] = 0.0
        self._assert_same_decision(inc, ref, 0)
        assert inc.curves[0] is pre_ramp

    def test_scenario_event_drops_held_curves(self, system4, db4):
        inc, ref = self._managers(system4, db4, [0.0] * 4)
        self._assert_same_decision(inc, ref, 0)
        self._assert_same_decision(inc, ref, 1)
        inc.on_scenario_event(0, "swap")
        ref.on_scenario_event(0, "swap")
        assert 0 not in inc.curves and 1 in inc.curves
        # The swapped core re-enters pinned until fresh statistics arrive.
        self._assert_same_decision(inc, ref, 1)
