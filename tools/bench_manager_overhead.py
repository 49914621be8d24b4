#!/usr/bin/env python
"""Benchmark: the coordinated manager's pipeline vs the reference path.

Per-core curve construction plus a full rebuild of the global min-plus
reduction on every interval would dominate replay wall-clock.  This
benchmark replays the same dynamic scenario with the coordinated manager's
production pipeline (stacked curve tensors, curve memoization, persistent
packed reduction) and with the recompute-everything reference
(``tests/oracles/reference_manager.py``), verifies the runs are
bit-identical, and records wall-clock, speedup and result hashes into
``benchmarks/_artifacts/BENCH_manager_overhead.json`` (the production
pipeline's time under ``incremental_s``).  ``curve_builds`` counts the
rows the compiled curve chain built over one production run: a
deterministic count of the curve layer's work, which its wall-clock is
too small to gate.  ``allocation_entries`` counts the allocations the
manager returned over the same run (each decision's change set), the
work its decisions hand the simulation kernel, ``leaf_writes`` the
reduction leaves the run's installs wrote (an install that keeps an
equal leaf does not count), and ``solve_calls`` the run's calls into the
compiled solve (a decision that wrote and invalidated no leaf since the
last one makes none).

Usage::

    PYTHONPATH=src python tools/bench_manager_overhead.py \
        [--ncores 8] [--horizon 512] [--max-slices 24] [--repeats 3]
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

from repro.core import batch_opt, packed_tree  # noqa: E402
from repro.core.managers import (  # noqa: E402
    dvfs_only,
    rm1_partitioning_only,
    rm2_combined,
    rm3_core_adaptive,
)
from repro.experiments.runner import get_context  # noqa: E402
from repro.scenarios import poisson_arrivals  # noqa: E402
from repro.simulation.rma_sim import RMASimulator  # noqa: E402
from tests.oracles.reference_manager import reference  # noqa: E402

MANAGERS = {
    "rm1-partitioning": rm1_partitioning_only,
    "rm2-combined": rm2_combined,
    "rm3-core-adaptive": rm3_core_adaptive,
    "dvfs-only": dvfs_only,
}


class _CountingKernel:
    """Proxy for the compiled library that counts ``minplus_solve`` calls."""

    def __init__(self, lib):
        self._lib = lib
        self.solves = 0

    def __getattr__(self, name):
        fn = getattr(self._lib, name)
        if name != "minplus_solve":
            return fn

        def call(*args):
            self.solves += 1
            return fn(*args)

        return call


def count_work(run, manager):
    """``(rows built, allocation entries, leaf writes, solve calls, result)``
    of ``run(manager)``.

    Wraps the curve chain ``batch_opt.local_optimize_batch``, the module
    attribute every manager's curve construction calls, and counts its
    input rows; wraps ``manager.on_interval`` on the instance, which the
    simulation kernel calls, and counts the entries of every map it
    returns; and puts a proxy in place of ``packed_tree._kernel``, the
    compiled library the reduction calls, to count its ``minplus_solve``
    calls.  The leaf writes are the run's reduction's own counter.
    """
    real = batch_opt.local_optimize_batch
    decide = manager.on_interval
    lib = packed_tree._kernel
    kernel = _CountingKernel(lib)
    rows = entries = 0

    def counted(system, batch_rows, *args, **kwargs):
        nonlocal rows
        rows += len(batch_rows)
        return real(system, batch_rows, *args, **kwargs)

    def counted_decide(core_id):
        nonlocal entries
        allocations = decide(core_id)
        entries += len(allocations or ())
        return allocations

    batch_opt.local_optimize_batch = counted
    manager.on_interval = counted_decide
    packed_tree._kernel = kernel
    try:
        result = run(manager)
    finally:
        batch_opt.local_optimize_batch = real
        packed_tree._kernel = lib
    return rows, entries, manager._tree.leaf_writes, kernel.solves, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ncores", type=int, default=8)
    parser.add_argument(
        "--horizon", type=int, default=512, help="scenario horizon in intervals (total work)"
    )
    parser.add_argument("--max-slices", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--managers", nargs="*", default=list(MANAGERS), choices=list(MANAGERS))
    args = parser.parse_args(argv)

    ctx = get_context(args.ncores, names=BENCHMARK_SUBSET)
    scenario = poisson_arrivals(
        f"mgr-bench-{args.ncores}core",
        args.ncores,
        BENCHMARK_SUBSET,
        rate_per_interval=0.25,
        horizon_intervals=args.horizon,
        seed=args.seed,
    )

    report: dict = {
        "benchmark": "manager_overhead",
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
    for name in args.managers:
        factory = MANAGERS[name]
        ref_s, ref_run = time_best_of(
            lambda: RMASimulator(
                ctx.system,
                ctx.db,
                scenario.workload,
                reference(factory()),
                max_slices=args.max_slices,
                scenario=scenario,
            ).run(),
            args.repeats,
        )

        def replay(manager):
            return RMASimulator(
                ctx.system,
                ctx.db,
                scenario.workload,
                manager,
                max_slices=args.max_slices,
                scenario=scenario,
            ).run()

        inc_s, inc_run = time_best_of(lambda: replay(factory()), args.repeats)
        curve_builds, entries, leaf_writes, solves, counted_run = count_work(replay, factory())
        same = runs_bit_identical(ref_run, inc_run) and runs_bit_identical(counted_run, inc_run)
        identical = identical and same
        report["managers"][name] = {
            "reference_s": round(ref_s, 4),
            "incremental_s": round(inc_s, 4),
            "speedup": round(ref_s / inc_s, 3),
            "bit_identical": same,
            "result_hash": run_result_hash(inc_run),
            "rma_invocations": int(inc_run.rma_invocations),
            "curve_builds": curve_builds,
            "allocation_entries": entries,
            "leaf_writes": leaf_writes,
            "solve_calls": solves,
        }
        print(
            f"{name:18s} reference {ref_s:7.3f}s  incremental {inc_s:7.3f}s  "
            f"speedup {ref_s / inc_s:5.2f}x  bit-identical={same}"
        )
    report["bit_identical"] = identical

    write_bench_artifact("manager_overhead", report)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
