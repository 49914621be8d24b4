"""The bench-regression gate's comparison rules.

``tools/bench_compare.py`` guards the committed ``BENCH_*.json`` baselines:
result-hash mismatches always fail, wall-clock regressions fail beyond the
threshold (after calibration rescaling, above the absolute noise floor),
and fidelity-context drift demands a baseline refresh instead of a silent
comparison.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from _bench_common import CHAOS_REPORT  # noqa: E402
from bench_compare import compare_reports, main  # noqa: E402

BASE = {
    "benchmark": "manager_overhead",
    "ncores": 8,
    "max_slices": 24,
    "calibration_s": 0.2,
    "timestamp": "2026-01-01T00:00:00Z",
    "managers": {
        "rm2-combined": {
            "reference_s": 1.0,
            "incremental_s": 0.4,
            "speedup": 2.5,
            "bit_identical": True,
            "result_hash": "abc123",
        },
    },
    "bit_identical": True,
}


def fresh(**overrides):
    out = copy.deepcopy(BASE)
    rec = out["managers"]["rm2-combined"]
    for key, value in overrides.items():
        (rec if key in rec else out)[key] = value
    return out


class TestCompareRules:
    def test_identical_reports_pass(self):
        assert compare_reports(BASE, fresh()) == []

    def test_wall_clock_regression_fails(self):
        problems = compare_reports(BASE, fresh(incremental_s=0.8))
        assert any("wall-clock regressed" in p for p in problems)

    def test_wall_clock_within_threshold_passes(self):
        assert compare_reports(BASE, fresh(incremental_s=0.45)) == []

    def test_tiny_absolute_delta_is_noise_not_regression(self):
        base = copy.deepcopy(BASE)
        base["managers"]["rm2-combined"]["incremental_s"] = 0.01
        got = fresh(incremental_s=0.05)  # 5x relative, but 0.04s absolute
        assert compare_reports(base, got) == []

    def test_calibration_rescales_slower_machines(self):
        # The fresh machine's yardstick ran 2x slower: 2x wall is expected.
        got = fresh(incremental_s=0.75, reference_s=1.9, calibration_s=0.4)
        assert compare_reports(BASE, got) == []
        # ... but 3x wall is still a regression even at 2x calibration.
        got = fresh(incremental_s=1.2, calibration_s=0.4)
        assert any("wall-clock" in p for p in compare_reports(BASE, got))

    def test_result_hash_mismatch_always_fails(self):
        problems = compare_reports(BASE, fresh(result_hash="zzz999"))
        assert any("result_hash" in p and "exact-match" in p for p in problems)

    @pytest.mark.parametrize("key", ["reduction_rows", "reduction_splits"])
    def test_reduction_work_counter_drift_fails(self, key):
        base = copy.deepcopy(BASE)
        base["managers"]["rm2-combined"][key] = 3208
        assert compare_reports(base, copy.deepcopy(base)) == []
        got = copy.deepcopy(base)
        got["managers"]["rm2-combined"][key] = 3209
        problems = compare_reports(base, got)
        assert any(key in p and "exact-match" in p for p in problems)

    def test_curve_build_counter_drift_fails(self):
        base = copy.deepcopy(BASE)
        base["managers"]["rm2-combined"]["curve_builds"] = 51
        assert compare_reports(base, copy.deepcopy(base)) == []
        got = copy.deepcopy(base)
        got["managers"]["rm2-combined"]["curve_builds"] = 52
        problems = compare_reports(base, got)
        assert any("curve_builds" in p and "exact-match" in p for p in problems)

    def test_allocation_entry_counter_drift_fails(self):
        base = copy.deepcopy(BASE)
        base["managers"]["rm2-combined"]["allocation_entries"] = 700
        assert compare_reports(base, copy.deepcopy(base)) == []
        got = copy.deepcopy(base)
        got["managers"]["rm2-combined"]["allocation_entries"] = 701
        problems = compare_reports(base, got)
        assert any("allocation_entries" in p and "exact-match" in p for p in problems)

    def test_bit_identical_false_fails(self):
        problems = compare_reports(BASE, fresh(bit_identical=False))
        assert any("not bit-identical" in p for p in problems)

    def test_speedup_drop_fails(self):
        problems = compare_reports(BASE, fresh(speedup=1.5))
        assert any("speedup regressed" in p for p in problems)

    def test_speedup_on_unmeasurable_walls_is_skipped(self):
        base = copy.deepcopy(BASE)
        rec = base["managers"]["rm2-combined"]
        rec["reference_s"] = rec["incremental_s"] = 0.01
        got = copy.deepcopy(base)
        got["managers"]["rm2-combined"]["speedup"] = 0.5
        assert compare_reports(base, got) == []

    def test_context_change_demands_refresh(self):
        problems = compare_reports(BASE, fresh(max_slices=12))
        assert any("fidelity context" in p and "refresh" in p for p in problems)

    def test_disappearing_metric_fails(self):
        got = fresh()
        del got["managers"]["rm2-combined"]["result_hash"]
        problems = compare_reports(BASE, got)
        assert any("missing from the fresh artifact" in p for p in problems)

    def test_disappearing_manager_fails(self):
        got = fresh()
        del got["managers"]["rm2-combined"]
        problems = compare_reports(BASE, got)
        assert any("rm2-combined" in p and "missing" in p for p in problems)

    @pytest.mark.parametrize(
        "where,key,value",
        [
            ("record", "allocation_entries", 324),
            ("report", "256core", {"ncores": 256, "build_s": 0.5, "result_hash": "a0bf"}),
        ],
    )
    def test_fresh_only_key_fails_and_names_update(self, where, key, value):
        got = fresh()
        (got["managers"]["rm2-combined"] if where == "record" else got)[key] = value
        problems = compare_reports(BASE, got)
        assert len(problems) == 1, problems
        assert key in problems[0] and "missing from the baseline" in problems[0]
        assert "--update" in problems[0]


class TestThroughputNotes:
    """``events_per_sec`` deltas are report-only notes, never failures."""

    def _with_throughput(self, value):
        out = copy.deepcopy(BASE)
        out["managers"]["rm2-combined"]["events_per_sec"] = value
        return out

    def test_delta_is_noted_not_gated(self):
        notes: list[str] = []
        problems = compare_reports(
            self._with_throughput(1000.0), self._with_throughput(2150.0),
            notes=notes,
        )
        assert problems == []
        assert len(notes) == 1
        assert "events_per_sec" in notes[0]
        assert "+115.0%" in notes[0]

    def test_throughput_drop_never_fails_the_gate(self):
        # A 10x throughput collapse is loud in the notes but the verdict
        # comes from the gated wall-clocks, which have noise slack.
        notes: list[str] = []
        problems = compare_reports(
            self._with_throughput(5000.0), self._with_throughput(500.0),
            notes=notes,
        )
        assert problems == []
        assert any("-90.0%" in n for n in notes)

    def test_prefixed_throughput_keys_are_noted(self):
        base = self._with_throughput(1000.0)
        base["managers"]["rm2-combined"]["baseline_events_per_sec"] = 400.0
        got = copy.deepcopy(base)
        got["managers"]["rm2-combined"]["baseline_events_per_sec"] = 800.0
        notes: list[str] = []
        assert compare_reports(base, got, notes=notes) == []
        assert any("baseline_events_per_sec" in n for n in notes)

    def test_notes_are_optional(self):
        # Callers that pass no collector (the unit-rule tests above) still
        # get a clean problems list.
        assert compare_reports(
            self._with_throughput(1000.0), self._with_throughput(10.0)
        ) == []


class TestGateCli:
    def _write(self, directory, report):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "BENCH_manager_overhead.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return path

    def test_missing_baseline_fails_then_update_adopts(self, tmp_path, capsys):
        art, basedir = str(tmp_path / "art"), str(tmp_path / "base")
        self._write(art, BASE)
        assert main(["--artifact-dir", art, "--baseline-dir", basedir]) == 1
        assert "no committed baseline" in capsys.readouterr().out
        assert main(["--artifact-dir", art, "--baseline-dir", basedir, "--update"]) == 0
        assert main(["--artifact-dir", art, "--baseline-dir", basedir]) == 0

    def test_regression_exits_nonzero(self, tmp_path):
        art, basedir = str(tmp_path / "art"), str(tmp_path / "base")
        self._write(basedir, BASE)
        self._write(art, fresh(result_hash="drifted"))
        assert main(["--artifact-dir", art, "--baseline-dir", basedir]) == 1

    def test_chaos_report_is_not_a_bench_artifact(self, tmp_path, capsys):
        """The chaos smoke's report, written beside the bench artifacts,
        has no baseline and must not fail the gate."""
        art, basedir = str(tmp_path / "art"), str(tmp_path / "base")
        self._write(basedir, BASE)
        self._write(art, BASE)
        with open(os.path.join(art, CHAOS_REPORT), "w", encoding="utf-8") as fh:
            json.dump({"benchmark": "chaos_smoke", "seed": 1337}, fh)
        assert main(["--artifact-dir", art, "--baseline-dir", basedir]) == 0
        assert CHAOS_REPORT not in capsys.readouterr().out

    def test_bench_artifact_without_baseline_still_fails(self, tmp_path, capsys):
        art, basedir = str(tmp_path / "art"), str(tmp_path / "base")
        self._write(basedir, BASE)
        self._write(art, BASE)
        with open(os.path.join(art, "BENCH_new_probe.json"), "w", encoding="utf-8") as fh:
            json.dump(BASE, fh)
        assert main(["--artifact-dir", art, "--baseline-dir", basedir]) == 1
        assert "FAIL BENCH_new_probe.json: no committed baseline" in capsys.readouterr().out

    def test_no_artifacts_is_an_error(self, tmp_path):
        art = str(tmp_path / "empty")
        base = str(tmp_path / "b")
        assert main(["--artifact-dir", art, "--baseline-dir", base]) == 2

    @pytest.mark.parametrize("threshold,expect", [(0.25, 1), (3.0, 0)])
    def test_threshold_is_configurable(self, tmp_path, threshold, expect):
        art, basedir = str(tmp_path / "art"), str(tmp_path / "base")
        self._write(basedir, BASE)
        self._write(art, fresh(incremental_s=1.2))
        argv = ["--artifact-dir", art, "--baseline-dir", basedir]
        assert main(argv + ["--threshold", str(threshold)]) == expect
