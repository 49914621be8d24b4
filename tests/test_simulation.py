"""Tests for the simulation framework: database, overheads, metrics, RMA sim."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.config import Allocation
from repro.core.managers import (
    StaticBaselineManager,
    dvfs_only,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
)
from repro.simulation.database import (
    QUARANTINE_DIR,
    SimulationDatabase,
    build_database,
    database_cache_path,
)
from repro.simulation.metrics import (
    AppResult,
    IntervalSample,
    RunResult,
    compare_runs,
    energy_savings_pct,
    interval_violation_stats,
)
from repro.simulation.overheads import transition_cost
from repro.simulation.rma_sim import RMASimulator, simulate_workload
from repro.workloads.mixes import Workload


class TestDatabase:
    def test_contains_requested_benchmarks(self, db4):
        assert set(db4.benchmarks()) == set(
            ["mcf_like", "soplex_like", "libquantum_like", "lbm_like",
             "astar_like", "povray_like", "namd_like"]
        )

    def test_record_grids_shapes(self, db4, system4):
        rec = next(iter(db4.records["mcf_like"].values()))
        shape = (system4.ncore_sizes, system4.vf.nlevels, system4.llc.ways)
        assert rec.tpi.shape == shape
        assert rec.epi.shape == shape
        assert rec.latency.shape == shape
        assert rec.mpki_full.shape == (system4.llc.ways,)
        assert rec.mlp_full.shape == (system4.ncore_sizes, system4.llc.ways)

    def test_weights_sum_to_one(self, db4):
        for name in db4.benchmarks():
            total = sum(r.weight for r in db4.records[name].values())
            assert total == pytest.approx(1.0)

    def test_trace_labels_have_records(self, db4):
        for name in db4.benchmarks():
            assert set(db4.phase_sequence(name)) <= set(db4.records[name])

    def test_miss_curves_monotone(self, db4):
        for name in db4.benchmarks():
            for rec in db4.records[name].values():
                assert np.all(np.diff(rec.mpki_full) <= 1e-9)
                assert np.all(np.diff(rec.mpki_sampled) <= 1e-9)

    def test_mlp_at_least_one(self, db4):
        for name in db4.benchmarks():
            for rec in db4.records[name].values():
                assert np.all(rec.mlp_full >= 1.0)
                assert np.all(rec.mlp_sampled >= 1.0)

    def test_tpi_monotone_in_f_and_w(self, db4):
        for rec in db4.records["mcf_like"].values():
            assert np.all(np.diff(rec.tpi, axis=1) <= 1e-9)
            assert np.all(np.diff(rec.tpi, axis=2) <= 1e-6)

    def test_sampled_curve_tracks_full(self, db4):
        """Set sampling is an estimate: close to, not equal to, ground truth."""
        for name in db4.benchmarks():
            for rec in db4.records[name].values():
                if rec.mpki_full[0] < 1.0:
                    continue
                err = np.abs(rec.mpki_sampled - rec.mpki_full) / (rec.mpki_full + 1e-9)
                assert err.max() < 0.5, name

    def test_disk_cache_roundtrip(self, system4, tmp_path):
        names = ["povray_like"]
        db1 = build_database(system4, names, accesses_per_set=150, cache_dir=str(tmp_path))
        db2 = build_database(system4, names, accesses_per_set=150, cache_dir=str(tmp_path))
        rec1 = next(iter(db1.records["povray_like"].values()))
        rec2 = next(iter(db2.records["povray_like"].values()))
        np.testing.assert_array_equal(rec1.tpi, rec2.tpi)

    @pytest.mark.parametrize("damage", ["truncated", "not_a_database"])
    def test_corrupt_disk_cache_is_quarantined_and_rebuilt(self, system4, tmp_path, damage):
        names = ["povray_like"]
        db1 = build_database(system4, names, accesses_per_set=150, cache_dir=str(tmp_path))
        path = database_cache_path(system4, names, 150, str(tmp_path))
        if damage == "truncated":
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)
        else:
            with open(path, "wb") as fh:
                pickle.dump({"not": "a database"}, fh)
        with open(path, "rb") as fh:
            bad = fh.read()
        with pytest.warns(RuntimeWarning, match="quarantined, rebuilding"):
            db2 = build_database(system4, names, accesses_per_set=150, cache_dir=str(tmp_path))
        assert sorted(db2.records) == sorted(db1.records)
        for key, rec1 in db1.records["povray_like"].items():
            rec2 = db2.records["povray_like"][key]
            for name in ("tpi", "latency", "epi", "mpki_sampled", "mlp_sampled"):
                np.testing.assert_array_equal(getattr(rec1, name), getattr(rec2, name))
        assert db2.traces == db1.traces
        quarantined = tmp_path / QUARANTINE_DIR / os.path.basename(path)
        assert quarantined.read_bytes() == bad
        # The rebuilt cache file is whole again and loads without a rebuild.
        with open(path, "rb") as fh:
            assert isinstance(pickle.load(fh), SimulationDatabase)

    def test_parallel_build_matches_serial(self, system4):
        names = ["namd_like", "povray_like"]
        a = build_database(system4, names, accesses_per_set=150, processes=1)
        b = build_database(system4, names, accesses_per_set=150, processes=2)
        for name in names:
            for key in a.records[name]:
                np.testing.assert_array_equal(
                    a.records[name][key].tpi, b.records[name][key].tpi
                )

    def test_unknown_benchmark_fails_fast(self, system4):
        with pytest.raises(KeyError):
            build_database(system4, ["nonexistent_like"], accesses_per_set=100)

    def test_baseline_tpi(self, db4, system4):
        # The QoS anchor's interval time the scheduler serves is the
        # record's tpi at the baseline allocation.
        wl = Workload(name="anchor4", apps=("mcf_like", "soplex_like", "astar_like", "povray_like"))
        sim = RMASimulator(system4, db4, wl, StaticBaselineManager(), max_slices=4)
        rec = db4.record("mcf_like", db4.phase_sequence("mcf_like")[0])
        t = rec.tpi_at(system4.baseline_allocation())
        assert sim.scheduler.baseline_interval_ns(0) == system4.interval_instructions * t


class TestOverheads:
    def test_no_change_no_cost(self, system4):
        a = Allocation(1, 5, 4)
        cost = transition_cost(system4, a, a)
        assert cost.stall_ns == 0.0 and cost.energy_nj == 0.0

    def test_dvfs_change_costs(self, system4):
        a, b = Allocation(1, 5, 4), Allocation(1, 6, 4)
        cost = transition_cost(system4, a, b)
        assert cost.stall_ns == pytest.approx(system4.overheads.dvfs_transition_us * 1000)
        assert cost.energy_nj > 0

    def test_resize_adds_cost(self, system4):
        a, b = Allocation(1, 5, 4), Allocation(2, 5, 4)
        cost = transition_cost(system4, a, b)
        assert cost.stall_ns == pytest.approx(system4.overheads.resize_transition_us * 1000)

    def test_way_gain_warmup(self, system4):
        a, b = Allocation(1, 5, 4), Allocation(1, 5, 8)
        cost = transition_cost(system4, a, b)
        assert cost.stall_ns > 0
        assert cost.energy_nj > 0

    def test_way_loss_free(self, system4):
        a, b = Allocation(1, 5, 8), Allocation(1, 5, 4)
        assert transition_cost(system4, a, b).stall_ns == 0.0

    def test_combined_changes_accumulate(self, system4):
        a, b = Allocation(1, 5, 4), Allocation(2, 8, 7)
        cost = transition_cost(system4, a, b)
        only_f = transition_cost(system4, a, Allocation(1, 8, 4))
        assert cost.stall_ns > only_f.stall_ns


class TestMetrics:
    def _runs(self):
        base = RunResult(
            workload="w", manager="baseline",
            apps=[AppResult("a", 0, 100.0, 50.0, 10), AppResult("b", 1, 200.0, 80.0, 10)],
        )
        pol = RunResult(
            workload="w", manager="rm",
            apps=[AppResult("a", 0, 103.0, 40.0, 10), AppResult("b", 1, 199.0, 70.0, 10)],
        )
        return base, pol

    def test_energy_savings(self):
        base, pol = self._runs()
        assert energy_savings_pct(base, pol) == pytest.approx(
            (1 - 110.0 / 130.0) * 100
        )

    def test_violations(self):
        base, pol = self._runs()
        cmp = compare_runs(base, pol)
        assert cmp.n_violations == 1
        v = cmp.violations[0]
        assert v.app == "a" and v.slowdown_pct == pytest.approx(3.0)

    def test_slack_forgives(self):
        base, pol = self._runs()
        pol.apps[0] = AppResult("a", 0, 103.0, 40.0, 10, slack=0.05)
        cmp = compare_runs(base, pol)
        assert cmp.n_violations == 0

    def test_mismatched_workloads_rejected(self):
        base, pol = self._runs()
        pol.workload = "other"
        with pytest.raises(ValueError):
            compare_runs(base, pol)

    def test_interval_stats(self):
        samples = [
            IntervalSample(0, 0, duration_ns=110.0, baseline_ns=100.0, slack=0.0),
            IntervalSample(0, 0, duration_ns=100.0, baseline_ns=100.0, slack=0.0),
            IntervalSample(0, 0, duration_ns=95.0, baseline_ns=100.0, slack=0.0),
            IntervalSample(0, 0, duration_ns=120.0, baseline_ns=100.0, slack=0.2),
        ]
        stats = interval_violation_stats(samples)
        assert stats["n"] == 4
        assert stats["probability"] == pytest.approx(25.0)
        assert stats["expected_value"] == pytest.approx(10.0)

    def test_interval_stats_empty(self):
        assert interval_violation_stats([])["probability"] == 0.0


class TestRMASimulator:
    def _workload(self):
        return Workload(
            name="t4",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
        )

    def test_baseline_time_matches_database(self, system4, db4):
        """Under the static baseline, each app's first-round time must equal
        the sum of its slices' baseline interval times exactly."""
        run = simulate_workload(system4, db4, self._workload(), max_slices=12)
        base = system4.baseline_allocation()
        for app_result in run.apps:
            seq = db4.phase_sequence(app_result.app)[:12]
            expect = sum(
                system4.interval_instructions * db4.record(app_result.app, pid).tpi_at(base)
                for pid in seq
            )
            assert app_result.time_ns == pytest.approx(expect, rel=1e-9)

    def test_baseline_energy_matches_database(self, system4, db4):
        run = simulate_workload(system4, db4, self._workload(), max_slices=12)
        base = system4.baseline_allocation()
        for app_result in run.apps:
            seq = db4.phase_sequence(app_result.app)[:12]
            expect = sum(
                system4.interval_instructions * db4.record(app_result.app, pid).epi_at(base)
                for pid in seq
            )
            assert app_result.energy_nj == pytest.approx(expect, rel=1e-9)

    def test_baseline_vs_itself_no_savings_no_violations(self, system4, db4):
        a = simulate_workload(system4, db4, self._workload(), max_slices=10)
        b = simulate_workload(system4, db4, self._workload(), max_slices=10)
        cmp = compare_runs(a, b)
        assert cmp.savings_pct == pytest.approx(0.0, abs=1e-9)
        assert cmp.n_violations == 0

    def test_interval_samples_zero_violation_under_baseline(self, system4, db4):
        run = simulate_workload(system4, db4, self._workload(), max_slices=10)
        stats = interval_violation_stats(run.interval_samples)
        assert stats["probability"] == pytest.approx(0.0)

    def test_deterministic(self, system4, db4):
        wl = self._workload()
        a = simulate_workload(system4, db4, wl, rm2_combined(), max_slices=10)
        b = simulate_workload(system4, db4, wl, rm2_combined(), max_slices=10)
        assert a.total_energy_nj == pytest.approx(b.total_energy_nj, rel=1e-12)
        assert a.max_time_ns == pytest.approx(b.max_time_ns, rel=1e-12)

    def test_manager_invoked_once_per_interval(self, system4, db4):
        run = simulate_workload(system4, db4, self._workload(), rm2_combined(), max_slices=8)
        # every completed interval invokes the manager; restarted apps add more
        assert run.rma_invocations >= 4 * 8

    def test_dvfs_only_never_moves_ways(self, system4, db4):
        wl = self._workload()
        mgr = dvfs_only()
        sim = RMASimulator(system4, db4, wl, mgr, max_slices=8)
        orig_apply = sim._apply

        def checked_apply(allocations):
            for alloc in allocations.values():
                assert alloc.ways == system4.baseline_ways
            orig_apply(allocations)

        sim._apply = checked_apply
        sim.run()

    def test_rm1_never_moves_frequency_or_core(self, system4, db4):
        wl = self._workload()
        mgr = rm1_partitioning_only()
        sim = RMASimulator(system4, db4, wl, mgr, max_slices=8)
        orig_apply = sim._apply

        def checked_apply(allocations):
            for alloc in allocations.values():
                assert alloc.freq == system4.baseline_freq_index
                assert alloc.core == system4.baseline_core_index
            orig_apply(allocations)

        sim._apply = checked_apply
        sim.run()

    def test_ways_always_sum_to_associativity(self, system4, db4):
        wl = self._workload()
        mgr = rm3_core_adaptive()
        sim = RMASimulator(system4, db4, wl, mgr, max_slices=8)
        orig_apply = sim._apply
        seen = []

        def checked_apply(allocations):
            orig_apply(allocations)
            seen.append(sum(c.alloc.ways for c in sim.cores))

        sim._apply = checked_apply
        sim.run()
        assert seen and all(s == system4.llc.ways for s in seen)

    def test_workload_size_mismatch(self, system4, db4):
        with pytest.raises(ValueError):
            RMASimulator(
                system4, db4, Workload(name="bad", apps=("mcf_like",) * 3),
                StaticBaselineManager(),
            )

    def test_unknown_app_rejected(self, system4, db4):
        with pytest.raises(ValueError):
            RMASimulator(
                system4, db4, Workload(name="bad", apps=("unknown",) * 4),
                StaticBaselineManager(),
            )

    def test_max_slices_truncates(self, system4, db4):
        short = simulate_workload(system4, db4, self._workload(), max_slices=5)
        longer = simulate_workload(system4, db4, self._workload(), max_slices=10)
        assert short.max_time_ns < longer.max_time_ns
        assert all(a.intervals == 5 for a in short.apps)

    def test_8core(self, system8, db8):
        wl = Workload(
            name="t8",
            apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like",
                  "lbm_like", "namd_like", "astar_like", "mcf_like"),
        )
        base = simulate_workload(system8, db8, wl, max_slices=6)
        run = simulate_workload(system8, db8, wl, rm2_combined(), max_slices=6)
        cmp = compare_runs(base, run)
        assert np.isfinite(cmp.savings_pct)
