#!/usr/bin/env python
"""Bench-regression gate: diff fresh ``BENCH_*.json`` against baselines.

Compares every freshly produced artifact in ``benchmarks/_artifacts/``
against the committed baselines in ``benchmarks/_artifacts/baselines/`` and
fails (exit 1) on:

* any ``result_hash`` mismatch or ``bit_identical: false`` -- semantic
  drift is never tolerated, independent of timing noise;
* a fidelity-context mismatch (``ncores``, ``max_slices``, ...) -- the
  baseline no longer measures the same experiment and must be refreshed;
* a key on only one side: one the fresh artifact lost (a metric or
  manager disappeared) or one the baseline lacks (a new metric or record,
  ungated until ``--update`` records it);
* a wall-clock regression beyond ``--threshold`` (default 25%) after
  rescaling the baseline by the two machines' ``calibration_s`` yardsticks,
  ignoring sub-``--min-delta-s`` absolute differences (timing noise on
  near-instant measurements is not a regression);
* a ``speedup`` ratio dropping by more than ``--threshold``, skipped when
  every wall-clock in the same record is below ``--min-delta-s``.

``events_per_sec`` throughput deltas are printed as report-only ``note``
lines next to each verdict -- never gated (the wall-clocks behind them
already are).

Refreshing baselines (after an intentional perf or semantics change)::

    PYTHONPATH=src REPRO_MAX_SLICES=12 REPRO_ACCESSES_PER_SET=400 python tools/bench_smoke.py
    PYTHONPATH=src python tools/bench_engine_speedup.py --horizon 512 --max-slices 24
    PYTHONPATH=src python tools/bench_manager_overhead.py
    PYTHONPATH=src python tools/bench_scaling.py
    PYTHONPATH=src python tools/bench_database_build.py
    python tools/bench_compare.py --update   # copy fresh over baselines
    git add benchmarks/_artifacts/baselines/ && git commit

EXPERIMENTS.md documents the thresholds and the full procedure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys

ARTIFACT_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "_artifacts")
)
BASELINE_DIR = os.path.join(ARTIFACT_DIR, "baselines")
#: The artifacts the gate compares; every match needs a committed baseline.
ARTIFACT_GLOB = "BENCH_*.json"

#: Keys that must match exactly between baseline and fresh artifacts.
EXACT_KEYS = {
    "result_hash",
    "bit_identical",
    "cold_store_hits",
    "warm_store_hits",
    "rma_invocations",
    "result_store",
    "reduction_rows",
    "reduction_splits",
    "curve_builds",
    "allocation_entries",
    "leaf_writes",
    "rate_entries",
    "transition_entries",
    "solve_calls",
}

#: Fidelity context: a mismatch means the artifacts measure different
#: experiments and the baseline must be refreshed, not compared.
CONTEXT_KEYS = {
    "benchmark",
    "ncores",
    "horizon_intervals",
    "max_slices",
    "accesses_per_set",
    "repeats",
}

#: Keys never compared (machine- or run-specific metadata).
SKIP_KEYS = {"timestamp", "calibration_s"}


#: Sentinel yielded for a key one of the two artifacts lacks.
_MISSING = object()


def _walk(base: dict, fresh: dict, path: str = ""):
    """Yield (path, key, base_value, fresh_value) for every baseline leaf,
    then for every key only the fresh artifact has.

    The side that lacks a key yields ``_MISSING``: a disappearing metric
    or manager must fail the gate, not silently skip its checks, and a new
    one must fail until the baseline records it.
    """
    for key in base:
        b = base[key]
        here = f"{path}.{key}" if path else key
        if key not in fresh:
            yield path, key, b, _MISSING, here
            continue
        f = fresh[key]
        if isinstance(b, dict) and isinstance(f, dict):
            yield from _walk(b, f, here)
        else:
            yield path, key, b, f, here
    for key in fresh:
        if key not in base:
            yield path, key, _MISSING, fresh[key], f"{path}.{key}" if path else key


def _max_wall_s(record: dict) -> float:
    """Largest wall-clock measurement in one record (0 if none)."""
    walls = [
        v
        for k, v in record.items()
        if isinstance(v, (int, float)) and k.endswith("_s") and k not in SKIP_KEYS
    ]
    return max(walls, default=0.0)


def _record_at(report: dict, path: str) -> dict:
    node = report
    for part in [p for p in path.split(".") if p]:
        node = node[part]
    return node


def compare_reports(
    base: dict,
    fresh: dict,
    threshold: float = 0.25,
    min_delta_s: float = 0.1,
    notes: list[str] | None = None,
) -> list[str]:
    """Problems found comparing one baseline report against a fresh one.

    ``notes``, when given, collects report-only observations -- throughput
    (``events_per_sec``) deltas against the baseline -- that never fail the
    gate: wall-clocks are gated with calibration rescaling and noise slack,
    so their reciprocal would double-count every regression, but the delta
    is the headline number a perf PR wants printed next to ``ok``.
    """
    problems: list[str] = []
    # Calibration rescale: a slower machine inflates every wall-clock by
    # roughly the same factor as the fixed yardstick workload.
    base_cal = base.get("calibration_s") or 0.0
    fresh_cal = fresh.get("calibration_s") or 0.0
    scale = fresh_cal / base_cal if base_cal and fresh_cal else 1.0

    for path, key, b, f, here in _walk(base, fresh):
        if key in SKIP_KEYS:
            continue
        if f is _MISSING:
            problems.append(
                f"{here}: present in the baseline but missing from the fresh "
                "artifact (metric or manager disappeared)"
            )
            continue
        if b is _MISSING:
            problems.append(
                f"{here}: present in the fresh artifact but missing from the "
                "baseline (new metric or record); record it with "
                "tools/bench_compare.py --update"
            )
            continue
        if key in CONTEXT_KEYS:
            if b != f:
                problems.append(
                    f"{here}: fidelity context changed ({b!r} -> {f!r}); "
                    "refresh the baselines (see tools/bench_compare.py --update)"
                )
            continue
        if key in EXACT_KEYS:
            if key == "bit_identical" and f is not True:
                problems.append(f"{here}: fresh run is not bit-identical")
            elif b != f:
                problems.append(f"{here}: {b!r} -> {f!r} (exact-match key)")
            continue
        if key.endswith("events_per_sec"):
            if (
                notes is not None
                and isinstance(b, (int, float))
                and isinstance(f, (int, float))
                and b > 0
            ):
                notes.append(
                    f"{here}: {b:,.0f} -> {f:,.0f} events/s "
                    f"({(f - b) / b:+.1%})"
                )
            continue
        if key == "speedup":
            if _max_wall_s(_record_at(base, path)) < min_delta_s:
                continue  # nothing measurable behind the ratio
            if isinstance(b, (int, float)) and isinstance(f, (int, float)):
                if f < b * (1.0 - threshold):
                    problems.append(
                        f"{here}: speedup regressed {b:.2f}x -> {f:.2f}x "
                        f"(> {threshold:.0%} drop)"
                    )
            continue
        is_wall = key.endswith("_s")
        if is_wall and isinstance(b, (int, float)) and isinstance(f, (int, float)):
            allowed = b * scale * (1.0 + threshold)
            if f > allowed and (f - b * scale) > min_delta_s:
                problems.append(
                    f"{here}: wall-clock regressed {b:.3f}s -> {f:.3f}s "
                    f"(allowed {allowed:.3f}s at calibration scale {scale:.2f})"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact-dir", default=ARTIFACT_DIR)
    parser.add_argument("--baseline-dir", default=BASELINE_DIR)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative wall-clock/speedup regression allowed",
    )
    parser.add_argument(
        "--min-delta-s",
        type=float,
        default=0.1,
        help="absolute wall-clock slack (timing noise floor)",
    )
    parser.add_argument(
        "--update", action="store_true", help="copy fresh artifacts over the baselines"
    )
    args = parser.parse_args(argv)

    fresh_paths = sorted(glob.glob(os.path.join(args.artifact_dir, ARTIFACT_GLOB)))
    if not fresh_paths:
        print(f"no fresh {ARTIFACT_GLOB} under {args.artifact_dir}", file=sys.stderr)
        return 2

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in fresh_paths:
            dst = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dst)
            print(f"baseline updated: {dst}")
        return 0

    failed = False
    for path in fresh_paths:
        name = os.path.basename(path)
        base_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(base_path):
            print(
                f"FAIL {name}: no committed baseline "
                "(run tools/bench_compare.py --update and commit)"
            )
            failed = True
            continue
        with open(base_path, encoding="utf-8") as fh:
            base = json.load(fh)
        with open(path, encoding="utf-8") as fh:
            fresh = json.load(fh)
        notes: list[str] = []
        problems = compare_reports(base, fresh, args.threshold, args.min_delta_s, notes=notes)
        if problems:
            failed = True
            print(f"FAIL {name}:")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"ok   {name}")
        for n in notes:
            print(f"  note {n}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
