#!/usr/bin/env python
"""Benchmark: incremental engine vs the frozen full-rescan reference.

Replays the same 8-core dynamic scenario through the layered kernel
(:mod:`repro.simulation.engine`) and the pre-refactor monolithic loop
(``tests/oracles/legacy_sim.py``), verifies the results are
bit-identical, and records wall-clock plus speedup into
``benchmarks/_artifacts/BENCH_engine_speedup.json`` so the perf trajectory
is tracked as an artefact per commit.  Next to the wall-clocks, which are
too small to gate, it records two deterministic counts of the engine's
per-run memos over one production replay: ``rate_entries``, the
scheduler's rate entries built (one per distinct (phase record,
allocation) pair the run reads), and ``transition_entries``, the
reconfiguration costs evaluated (one per distinct (old, new) allocation
pair the run charges).

Usage::

    PYTHONPATH=src python tools/bench_engine_speedup.py \
        [--ncores 8] [--horizon 512] [--max-slices 24] [--repeats 3]

The database is a small fixed benchmark subset (the test suite's seven
apps), so on a machine that has run the tests the build step is served from
``.sim_cache`` instantly.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from _bench_common import (  # noqa: E402
    BENCHMARK_SUBSET,
    add_repo_root_to_path,
    add_src_to_path,
    machine_calibration_s,
    run_result_hash,
    runs_bit_identical,
    time_best_of,
    write_bench_artifact,
)

# Small-suite database at the test suite's trace density: reuses the test
# cache when present.  Must be set before repro.experiments.runner imports.
os.environ.setdefault("REPRO_ACCESSES_PER_SET", "400")
add_src_to_path()
add_repo_root_to_path()

from repro.core.managers import StaticBaselineManager, rm2_combined  # noqa: E402
from repro.simulation.engine import kernel as engine_kernel  # noqa: E402
from repro.simulation.engine.scheduler import CompletionScheduler  # noqa: E402
from repro.experiments.runner import get_context  # noqa: E402
from repro.scenarios import poisson_arrivals  # noqa: E402
from repro.simulation.rma_sim import RMASimulator  # noqa: E402
from tests.oracles.legacy_sim import LegacyRMASimulator  # noqa: E402


def count_memos(run):
    """``(rate entries, transition entries, result)`` of ``run()``.

    Wraps ``CompletionScheduler._new_entry``, which builds every rate
    entry, and the kernel module's ``transition_cost``, which the kernel
    calls once per (old, new) pair its memo has not seen, and counts
    their calls.
    """
    new_entry = CompletionScheduler._new_entry
    cost = engine_kernel.transition_cost
    entries = pairs = 0

    def counted_entry(self, key):
        nonlocal entries
        entries += 1
        return new_entry(self, key)

    def counted_cost(system, old, new):
        nonlocal pairs
        pairs += 1
        return cost(system, old, new)

    CompletionScheduler._new_entry = counted_entry
    engine_kernel.transition_cost = counted_cost
    try:
        result = run()
    finally:
        CompletionScheduler._new_entry = new_entry
        engine_kernel.transition_cost = cost
    return entries, pairs, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ncores", type=int, default=8)
    parser.add_argument(
        "--horizon", type=int, default=512, help="scenario horizon in intervals (total work)"
    )
    parser.add_argument("--max-slices", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ctx = get_context(args.ncores, names=BENCHMARK_SUBSET)
    scenario = poisson_arrivals(
        f"bench-{args.ncores}core",
        args.ncores,
        BENCHMARK_SUBSET,
        rate_per_interval=0.25,
        horizon_intervals=args.horizon,
        seed=args.seed,
    )

    managers = {"baseline": StaticBaselineManager, "rm2-combined": rm2_combined}
    report: dict = {
        "benchmark": "engine_speedup",
        "ncores": args.ncores,
        "horizon_intervals": args.horizon,
        "max_slices": args.max_slices,
        "accesses_per_set": int(os.environ["REPRO_ACCESSES_PER_SET"]),
        "repeats": args.repeats,
        "calibration_s": round(machine_calibration_s(), 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "managers": {},
    }
    identical = True
    for name, factory in managers.items():
        legacy_s, legacy_run = time_best_of(
            lambda: LegacyRMASimulator(
                ctx.system,
                ctx.db,
                scenario.workload,
                factory(),
                max_slices=args.max_slices,
                scenario=scenario,
            ).run(),
            args.repeats,
        )

        def replay():
            return RMASimulator(
                ctx.system,
                ctx.db,
                scenario.workload,
                factory(),
                max_slices=args.max_slices,
                scenario=scenario,
            ).run()

        engine_s, engine_run = time_best_of(replay, args.repeats)
        rate_entries, transition_entries, counted_run = count_memos(replay)
        same = runs_bit_identical(legacy_run, engine_run) and runs_bit_identical(
            counted_run, engine_run
        )
        identical = identical and same
        report["managers"][name] = {
            "legacy_s": round(legacy_s, 4),
            "engine_s": round(engine_s, 4),
            "speedup": round(legacy_s / engine_s, 3),
            "bit_identical": same,
            "result_hash": run_result_hash(engine_run),
            "rate_entries": rate_entries,
            "transition_entries": transition_entries,
        }
        print(
            f"{name:14s} legacy {legacy_s:7.3f}s  engine {engine_s:7.3f}s  "
            f"speedup {legacy_s / engine_s:5.2f}x  bit-identical={same}"
        )
    report["bit_identical"] = identical

    write_bench_artifact("engine_speedup", report)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
