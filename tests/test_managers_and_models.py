"""Tests for the analytical models and the resource-manager behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.managers import (
    CoordinatedManager,
    StaticBaselineManager,
    dvfs_only,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
)
from repro.core.models import MLP_MODELS, Model1, Model2, Model3
from repro.simulation.rma_sim import RMASimulator, simulate_workload
from repro.workloads.mixes import Workload
from tests.oracles.model_chain import exec_cpi_estimate, predict_epi_grid, predict_tpi_grid


@pytest.fixture(scope="module")
def snapshot_setup(db4, system4):
    rec = max(db4.records["mcf_like"].values(), key=lambda r: r.weight)
    snap = rec.observe(system4, system4.baseline_allocation())
    return system4, rec, snap


class TestMLPModels:
    def test_registry(self):
        assert set(MLP_MODELS) == {"model1", "model2", "model3"}

    def test_model1_all_ones(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        grid = Model1.mlp_hat(system, snap, rec.mlp_sampled)
        assert np.all(grid == 1.0)

    def test_model2_constant_observed(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        grid = Model2.mlp_hat(system, snap, rec.mlp_sampled)
        assert np.all(grid == snap.mlp_observed)

    def test_model3_reads_table(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        grid = Model3.mlp_hat(system, snap, rec.mlp_sampled)
        np.testing.assert_array_equal(grid, rec.mlp_sampled)


class TestPerfModel:
    def test_prediction_near_truth_at_current_config(self, snapshot_setup):
        """With the observed-MLP model, the predicted TPI at the *current*
        configuration must be close to the measured TPI (the model is anchored
        on counters)."""
        system, rec, snap = snapshot_setup
        mlp_hat = Model2.mlp_hat(system, snap, rec.mlp_sampled)
        tpi = predict_tpi_grid(system, snap, rec.mpki_sampled, mlp_hat)
        cur = tpi[snap.core_index, snap.freq_index, snap.ways - 1]
        truth = rec.tpi_at(system4_alloc(system))
        assert cur == pytest.approx(truth, rel=0.12)

    def test_prediction_monotone(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        mlp_hat = Model2.mlp_hat(system, snap, rec.mlp_sampled)
        tpi = predict_tpi_grid(system, snap, rec.mpki_sampled, mlp_hat)
        assert np.all(np.diff(tpi, axis=1) <= 1e-12)   # faster clock, faster
        assert np.all(np.diff(tpi, axis=2) <= 1e-9)    # more cache, faster

    def test_model1_less_accurate_than_model2_at_anchor(self, snapshot_setup):
        """Model 2 is anchored on the measured stall (its MLP is the observed
        one), so at the current configuration it must beat Model 1, whose
        unit-MLP assumption distorts both the memory and the execution term."""
        system, rec, snap = snapshot_setup
        truth = rec.tpi_at(system.baseline_allocation())
        errs = {}
        for model in (Model1, Model2):
            tpi = predict_tpi_grid(
                system, snap, rec.mpki_sampled, model.mlp_hat(system, snap, rec.mlp_sampled)
            )
            cur = tpi[snap.core_index, snap.freq_index, snap.ways - 1]
            errs[model.name] = abs(cur - truth)
        assert errs["model1"] >= errs["model2"]

    def test_exec_cpi_floor(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        est = exec_cpi_estimate(system, snap)
        for cpi, core in zip(est, system.core_sizes):
            assert cpi >= 1.0 / core.width - 1e-12


def system4_alloc(system):
    return system.baseline_allocation()


class TestEnergyModel:
    def test_positive_and_shaped(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        mlp_hat = Model2.mlp_hat(system, snap, rec.mlp_sampled)
        tpi = predict_tpi_grid(system, snap, rec.mpki_sampled, mlp_hat)
        epi = predict_epi_grid(system, snap, rec.mpki_sampled, tpi)
        assert epi.shape == tpi.shape
        assert np.all(epi > 0)

    def test_prediction_near_truth_at_current_config(self, snapshot_setup):
        system, rec, snap = snapshot_setup
        mlp_hat = Model2.mlp_hat(system, snap, rec.mlp_sampled)
        tpi = predict_tpi_grid(system, snap, rec.mpki_sampled, mlp_hat)
        epi = predict_epi_grid(system, snap, rec.mpki_sampled, tpi)
        cur = epi[snap.core_index, snap.freq_index, snap.ways - 1]
        truth = rec.epi_at(system.baseline_allocation())
        assert cur == pytest.approx(truth, rel=0.15)


class TestManagers:
    def _wl(self):
        return Workload(
            name="m4", apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like")
        )

    def test_baseline_manager_returns_none(self, system4, db4):
        mgr = StaticBaselineManager()
        sim = RMASimulator(system4, db4, self._wl(), mgr, max_slices=3)
        sim.run()
        assert mgr.on_interval(0) is None

    def test_factories_configure_dimensions(self):
        assert rm1_partitioning_only().control_dvfs is False
        assert rm1_partitioning_only().control_partitioning is True
        assert rm2_combined().control_dvfs is True
        assert rm2_combined().control_core_size is False
        assert rm3_core_adaptive().control_core_size is True
        assert dvfs_only().control_partitioning is False

    def test_rm3_defaults_to_model3(self):
        assert rm3_core_adaptive().model is MLP_MODELS["model3"]
        assert rm2_combined().model is MLP_MODELS["model2"]

    def test_attach_resets_state(self, system4, db4):
        mgr = rm2_combined()
        sim = RMASimulator(system4, db4, self._wl(), mgr, max_slices=3)
        sim.run()
        assert mgr.curves
        inv1 = mgr.meter.invocations
        sim2 = RMASimulator(system4, db4, self._wl(), mgr, max_slices=3)
        sim2.run()
        assert mgr.meter.invocations == inv1  # fresh meter per run

    def test_first_invocation_keeps_baseline_for_unknown_cores(self, system4, db4):
        """The paper's protocol: cores without statistics stay at baseline."""
        wl = self._wl()
        mgr = rm2_combined()
        sim = RMASimulator(system4, db4, wl, mgr, max_slices=3)
        mgr.attach(sim.bridge)
        # Simulate the very first completion on core 2 only.
        core = sim.cores[2]
        rec = db4.record(core.app, core.seq[0])
        core.last_record = rec
        core.last_snapshot = rec.observe(system4, core.alloc)
        allocs = mgr.on_interval(2)
        for j in (0, 1, 3):
            assert allocs[j].ways == system4.baseline_ways
            assert allocs[j].freq == system4.baseline_freq_index

    def test_oracle_manager_runs(self, system4, db4):
        run = simulate_workload(
            system4, db4, self._wl(), rm2_combined(oracle=True), max_slices=4
        )
        assert run.rma_invocations > 0

    def test_custom_dimensions(self, system4, db4):
        mgr = CoordinatedManager(name="custom", control_dvfs=True,
                                 control_core_size=True, control_partitioning=False)
        run = simulate_workload(system4, db4, self._wl(), mgr, max_slices=4)
        assert run.manager == "custom"

    def test_meter_counts_work(self, system4, db4):
        mgr = rm2_combined()
        run = simulate_workload(system4, db4, self._wl(), mgr, max_slices=4)
        assert run.rma_instructions > 0
        per_inv = run.rma_instructions / run.rma_invocations
        # the paper's bound: well under 0.1% of a 100M-instruction interval
        assert per_inv < 0.001 * system4.interval_instructions
