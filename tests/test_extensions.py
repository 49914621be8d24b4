"""Tests for the future-work extensions: phase history and co-location."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.colocation import (
    AppProfile,
    group_score,
    pair_score,
    profile_app,
    suggest_colocation,
)
from repro.core.history import (
    MIN_TRANSITIONS,
    CoreHistory,
    rm2_history,
    rm3_history,
    signature,
)
from repro.simulation.metrics import compare_runs
from repro.simulation.rma_sim import simulate_workload
from repro.workloads.mixes import Workload


class TestSignature:
    def test_same_phase_same_signature(self, system4, db4):
        rec = max(db4.records["mcf_like"].values(), key=lambda r: r.weight)
        base = system4.baseline_allocation()
        assert signature(rec.observe(system4, base)) == signature(rec.observe(system4, base))

    def test_different_phases_differ(self, system4, db4):
        recs = sorted(db4.records["mcf_like"].values(), key=lambda r: -r.weight)
        base = system4.baseline_allocation()
        if len(recs) >= 2:
            a = signature(recs[0].observe(system4, base))
            b = signature(recs[1].observe(system4, base))
            assert a != b


class TestCoreHistory:
    def _snapshot(self, system4, db4, bench="mcf_like", which=0):
        recs = sorted(db4.records[bench].values(), key=lambda r: -r.weight)
        rec = recs[min(which, len(recs) - 1)]
        return rec, rec.observe(system4, system4.baseline_allocation())

    def test_observe_creates_and_updates(self, system4, db4):
        rec, snap = self._snapshot(system4, db4)
        hist = CoreHistory()
        sig = signature(snap)
        hist.observe(sig, snap, rec.mpki_sampled, rec.mlp_sampled)
        assert hist.table[sig].visits == 1
        hist.observe(sig, snap, rec.mpki_sampled, rec.mlp_sampled)
        assert hist.table[sig].visits == 2

    def test_smoothing_converges_to_truth(self, system4, db4):
        rec, snap = self._snapshot(system4, db4)
        hist = CoreHistory()
        sig = signature(snap)
        noisy = rec.mpki_sampled * 1.5
        hist.observe(sig, snap, noisy, rec.mlp_sampled)
        for _ in range(8):
            hist.observe(sig, snap, rec.mpki_sampled, rec.mlp_sampled)
        np.testing.assert_allclose(
            hist.table[sig].mpki_sampled, rec.mpki_sampled, rtol=0.02
        )

    def test_transition_prediction_needs_evidence(self, system4, db4):
        rec_a, snap_a = self._snapshot(system4, db4, which=0)
        rec_b, snap_b = self._snapshot(system4, db4, which=1)
        sig_a, sig_b = signature(snap_a), signature(snap_b)
        if sig_a == sig_b:
            pytest.skip("phases collapsed to one signature")
        hist = CoreHistory()
        hist.observe(sig_a, snap_a, rec_a.mpki_sampled, rec_a.mlp_sampled)
        hist.observe(sig_b, snap_b, rec_b.mpki_sampled, rec_b.mlp_sampled)
        # one observed a->b transition is not enough evidence
        assert hist.predict_next(sig_a) == sig_a
        for _ in range(MIN_TRANSITIONS):
            hist.observe(sig_a, snap_a, rec_a.mpki_sampled, rec_a.mlp_sampled)
            hist.observe(sig_b, snap_b, rec_b.mpki_sampled, rec_b.mlp_sampled)
        assert hist.predict_next(sig_a) == sig_b

    def test_mlp_floor_maintained(self, system4, db4):
        rec, snap = self._snapshot(system4, db4)
        hist = CoreHistory()
        sig = signature(snap)
        hist.observe(sig, snap, rec.mpki_sampled, np.ones_like(rec.mlp_sampled))
        hist.observe(sig, snap, rec.mpki_sampled, np.ones_like(rec.mlp_sampled) * 0.5)
        assert np.all(hist.table[sig].mlp_sampled >= 1.0)


class TestHistoryAwareManager:
    WL = Workload(
        name="hist-mix", apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like")
    )

    def test_runs_and_saves(self, system4, db4):
        base = simulate_workload(system4, db4, self.WL, max_slices=30)
        run = simulate_workload(system4, db4, self.WL, rm2_history(), max_slices=30)
        cmp = compare_runs(base, run)
        assert cmp.savings_pct > 2.0

    def test_comparable_to_stock_rm2(self, system4, db4):
        from repro.core.managers import rm2_combined

        base = simulate_workload(system4, db4, self.WL, max_slices=30)
        stock = compare_runs(
            base, simulate_workload(system4, db4, self.WL, rm2_combined(), max_slices=30)
        )
        hist = compare_runs(
            base, simulate_workload(system4, db4, self.WL, rm2_history(), max_slices=30)
        )
        assert hist.savings_pct > stock.savings_pct - 1.0
        assert hist.n_violations <= stock.n_violations + 1

    def test_attach_resets_history(self, system4, db4):
        mgr = rm2_history()
        simulate_workload(system4, db4, self.WL, mgr, max_slices=5)
        assert mgr.history
        stub = __import__("types").SimpleNamespace(system=system4)
        mgr.attach(stub)
        assert mgr.history == {}

    def test_rm3_variant(self, system4, db4):
        base = simulate_workload(system4, db4, self.WL, max_slices=20)
        run = simulate_workload(system4, db4, self.WL, rm3_history(), max_slices=20)
        cmp = compare_runs(base, run)
        assert np.isfinite(cmp.savings_pct)

    def test_factory_names(self):
        assert rm2_history().name == "rm2-history"
        assert rm3_history().control_core_size is True


class TestColocation:
    def test_profile_receiver_vs_donor(self, system4, db4):
        mcf = profile_app(system4, db4, "mcf_like")
        libq = profile_app(system4, db4, "libquantum_like")
        assert mcf.receiver_appetite > libq.receiver_appetite
        assert libq.donor_cost < mcf.donor_cost

    def test_parallelism_headroom(self, system4, db4):
        libq = profile_app(system4, db4, "libquantum_like")
        povray = profile_app(system4, db4, "povray_like")
        assert libq.mlp_headroom > povray.mlp_headroom

    def test_pair_score_prefers_receiver_donor(self):
        receiver = AppProfile("r", 20.0, 8.0, 5.0, 0.0)
        donor = AppProfile("d", 30.0, 0.1, 0.1, 0.0)
        other_receiver = AppProfile("r2", 20.0, 8.0, 5.0, 0.0)
        assert pair_score(receiver, donor) > pair_score(receiver, other_receiver)

    def test_pair_score_is_two_app_group_score(self):
        a = AppProfile("a", 1.0, 2.0, 1.0, 0.1)
        b = AppProfile("b", 1.0, 0.1, 0.1, 0.4)
        assert pair_score(a, b) == pytest.approx(group_score([a, b]))

    def test_splitting_receivers_beats_stacking(self):
        """Way-budget competition: two hungry receivers on one machine score
        less in total than one receiver per machine."""
        receiver = AppProfile("r", 20.0, 8.0, 5.0, 0.0)
        donor = AppProfile("d", 30.0, 0.1, 0.1, 0.0)
        stacked = group_score([receiver, receiver, donor, donor]) + group_score(
            [donor, donor, donor, donor]
        )
        split = 2 * group_score([receiver, donor, donor, donor])
        assert split > stacked

    def test_suggest_splits_receivers(self, system4, db4):
        pool = [
            "mcf_like", "soplex_like",
            "libquantum_like", "lbm_like",
            "povray_like", "namd_like",
            "astar_like", "libquantum_like",
        ]
        groups = suggest_colocation(system4, db4, pool)
        assert len(groups) == 2
        assert sorted(a for g in groups for a in g) == sorted(pool)
        # the two strong receivers must not share a machine
        for g in groups:
            assert not {"mcf_like", "soplex_like"} <= set(g)

    def test_requires_multiple_of_ncores(self, system4, db4):
        with pytest.raises(ValueError):
            suggest_colocation(system4, db4, ["mcf_like"] * 5)
