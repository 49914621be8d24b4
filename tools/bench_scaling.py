#!/usr/bin/env python
"""Benchmark: many-core scenario replay under the hierarchical manager.

The flat coordinated manager's global min-plus reduction is the scaling
wall past ~32 cores: its top combines widen with the full LLC
associativity, so per-invocation cost grows superlinearly with the core
count.  This benchmark drives the 64-core S5 "cluster churn" scenario --
whole clusters draining and refilling -- under the coordinated manager's
cluster tier (``cluster_size``: per-cluster capped reduction stages plus a
second-level combine), times it against the flat manager and
the static baseline, and verifies the single-cluster equivalence contract
(``cluster_size >= ncores`` is bit-identical to the flat manager) on a
16-core replay.  128- and 256-core S7 datapoints (the scaling
experiment's cluster-churn shape with idle gaps) track the next two
doublings, each annotated with a report-only per-layer timing split
(exclusive engine / managers / curves / packed_tree seconds, which add up
to the replay's ``run_total``) from one extra replay traced by
``perfbench/tracer.py``, and every replay records its event throughput
(``events_per_sec`` -- global simulation events retired per wall-clock
second, the struct-of-arrays engine's headline number).
Results land in
``benchmarks/_artifacts/BENCH_scaling.json``: wall-clocks and the
``result_hash`` / ``bit_identical`` fields are enforced by the CI
bench-regression gate (``tools/bench_compare.py``), so both the many-core
perf trajectory and the hierarchy's semantics are pinned.

Usage::

    PYTHONPATH=src python tools/bench_scaling.py \
        [--ncores 64] [--cluster-size 8] [--horizon 512] \
        [--max-slices 12] [--repeats 3] [--s7-ncores 128] [--s7-xl-ncores 256]

For an ad-hoc layer split of any benchmark workload, run
``python3 perfbench/run.py --workload NAME --trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from _bench_common import (  # noqa: E402
    BENCHMARK_SUBSET,
    add_src_to_path,
    machine_calibration_s,
    run_result_hash,
    runs_bit_identical,
    time_best_of,
    traced_layer_split,
    write_bench_artifact,
)

# Small-suite database at the bench fidelity: reuses the CI cache when
# present.  Must be set before repro.experiments.runner imports.
os.environ.setdefault("REPRO_ACCESSES_PER_SET", "400")
add_src_to_path()

from repro.core.managers import StaticBaselineManager, rm2_combined  # noqa: E402
from repro.experiments.runner import get_context  # noqa: E402
from repro.scenarios import cluster_churn  # noqa: E402
from repro.simulation.rma_sim import RMASimulator  # noqa: E402


def _replay(ctx, scenario, manager_factory, max_slices, repeats):
    """Best-of-N wall-clock, final run and simulator of one scenario replay."""
    last = [None]  # only the final repeat's simulator is kept alive

    def make():
        last[0] = sim = RMASimulator(
            ctx.system,
            ctx.db,
            scenario.workload,
            manager_factory(),
            max_slices=max_slices,
            scenario=scenario,
        )
        return sim.run()

    best_s, run = time_best_of(make, repeats)
    return best_s, run, last[0]


def _reduction_work(sim) -> dict:
    """The replay's deterministic reduction work: rows the packed reduction
    recombined, back-track splits it recovered and leaves its installs
    wrote (exact-match keys of the regression gate, counted by the
    compiled library)."""
    tree = sim.manager._tree
    return {
        "reduction_rows": tree.rows_combined,
        "reduction_splits": tree.splits,
        "leaf_writes": tree.leaf_writes,
    }


def _events_per_sec(sim, best_s: float) -> float:
    """Replay throughput: simulated global events per wall-clock second."""
    return round(sim.events_simulated / best_s, 1) if best_s > 0 else 0.0


def _stage_split(ctx, scenario, manager_factory, max_slices) -> dict:
    """Per-layer seconds of one extra traced replay (report-only).

    See :func:`_bench_common.traced_layer_split`.  Key names carry no
    ``_s`` suffix on purpose: traced layer times are noisier than the gated
    end-to-end wall-clocks, so the regression gate ignores them -- they are
    the *where did it go* annotation next to the gated *how fast* numbers.
    """
    sim = RMASimulator(
        ctx.system,
        ctx.db,
        scenario.workload,
        manager_factory(),
        max_slices=max_slices,
        scenario=scenario,
    )
    split, _ = traced_layer_split(sim)
    return {key: round(seconds, 4) for key, seconds in split.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ncores", type=int, default=64)
    parser.add_argument("--cluster-size", type=int, default=8)
    parser.add_argument(
        "--horizon", type=int, default=512, help="scenario horizon in intervals (total work)"
    )
    parser.add_argument("--max-slices", type=int, default=12)
    # Best-of-3: replay walls at this scale sit near the machine-noise
    # floor, and one extra repeat keeps the gated minima stable.
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--equivalence-ncores",
        type=int,
        default=16,
        help="system size of the single-cluster identity check",
    )
    parser.add_argument(
        "--s7-ncores", type=int, default=128, help="system size of the S7 scaling datapoint"
    )
    parser.add_argument(
        "--s7-xl-ncores", type=int, default=256, help="system size of the extra-large S7 datapoint"
    )
    args = parser.parse_args(argv)

    report: dict = {
        "benchmark": "scaling",
        "ncores": args.ncores,
        "cluster_size": args.cluster_size,
        "horizon_intervals": args.horizon,
        "max_slices": args.max_slices,
        "accesses_per_set": int(os.environ["REPRO_ACCESSES_PER_SET"]),
        "repeats": args.repeats,
        "calibration_s": round(machine_calibration_s(), 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    # ---- the many-core point: 64-core S5 under RM2-clustered ---------------
    ctx = get_context(args.ncores, names=BENCHMARK_SUBSET)
    scenario = cluster_churn(
        f"scaling-{args.ncores}core",
        args.ncores,
        BENCHMARK_SUBSET,
        cluster_size=args.cluster_size,
        cycles=max(4, args.ncores // 8),
        horizon_intervals=args.horizon,
        seed=args.seed,
    )
    clus_s, clus_run, clus_sim = _replay(
        ctx,
        scenario,
        lambda: rm2_combined(cluster_size=args.cluster_size),
        args.max_slices,
        args.repeats,
    )
    flat_s, flat_run, _ = _replay(ctx, scenario, rm2_combined, args.max_slices, args.repeats)
    base_s, base_run, base_sim = _replay(
        ctx, scenario, StaticBaselineManager, args.max_slices, args.repeats
    )
    gap_pct = (
        100.0 * (clus_run.total_energy_nj - flat_run.total_energy_nj)
        / flat_run.total_energy_nj
    )
    report["manycore"] = {
        "scenario": scenario.name,
        "clustered_s": round(clus_s, 4),
        "flat_s": round(flat_s, 4),
        "baseline_s": round(base_s, 4),
        # Informational ratio (the gated signals are the wall-clocks above
        # and the exact result hashes below).
        "flat_over_clustered": round(flat_s / clus_s, 3),
        "energy_gap_pct": round(gap_pct, 4),
        "clustered_rma_instr_per_invocation": round(
            clus_run.rma_instructions / max(1, clus_run.rma_invocations), 1
        ),
        "flat_rma_instr_per_invocation": round(
            flat_run.rma_instructions / max(1, flat_run.rma_invocations), 1
        ),
        # Replay throughput (informational; the gated signals are the
        # wall-clocks and hashes).
        "events": int(clus_sim.events_simulated),
        "events_per_sec": _events_per_sec(clus_sim, clus_s),
        "baseline_events_per_sec": _events_per_sec(base_sim, base_s),
        "result_hash": run_result_hash(clus_run),
        "rma_invocations": int(clus_run.rma_invocations),
        **_reduction_work(clus_sim),
        # Nested so the gate's exact-match walk sees a leaf literally named
        # "result_hash": flat-manager drift at 64 cores must fail CI too.
        "flat": {"result_hash": run_result_hash(flat_run)},
    }
    print(
        f"{args.ncores}-core S5: clustered {clus_s:6.3f}s  flat {flat_s:6.3f}s  "
        f"({flat_s / clus_s:4.2f}x)  energy gap {gap_pct:+.3f}%  "
        f"{report['manycore']['events_per_sec']:,.0f} events/s"
    )

    # ---- the scaling ladder: 128- and 256-core S7 under RM2-clustered ------
    for s7_n, s7_key in ((args.s7_ncores, "s7_128core"), (args.s7_xl_ncores, "s7_256core")):
        s7_ctx = get_context(s7_n, names=BENCHMARK_SUBSET)
        s7_scenario = cluster_churn(
            f"s7-{s7_n}core",
            s7_n,
            BENCHMARK_SUBSET,
            cluster_size=args.cluster_size,
            cycles=max(4, s7_n // 8),
            idle_intervals=1.5,
            horizon_intervals=args.horizon,
            seed=args.seed,
        )
        s7_factory = lambda: rm2_combined(cluster_size=args.cluster_size)  # noqa: E731
        s7_s, s7_run, s7_sim = _replay(
            s7_ctx, s7_scenario, s7_factory, args.max_slices, args.repeats
        )
        s7_base_s, _, s7_base_sim = _replay(
            s7_ctx, s7_scenario, StaticBaselineManager, args.max_slices, args.repeats
        )
        report[s7_key] = {
            "ncores": s7_n,
            "scenario": s7_scenario.name,
            "clustered_s": round(s7_s, 4),
            "baseline_s": round(s7_base_s, 4),
            "events": int(s7_sim.events_simulated),
            "events_per_sec": _events_per_sec(s7_sim, s7_s),
            "baseline_events_per_sec": _events_per_sec(s7_base_sim, s7_base_s),
            "clustered_rma_instr_per_invocation": round(
                s7_run.rma_instructions / max(1, s7_run.rma_invocations), 1
            ),
            "result_hash": run_result_hash(s7_run),
            "rma_invocations": int(s7_run.rma_invocations),
            **_reduction_work(s7_sim),
            "stage_split": _stage_split(s7_ctx, s7_scenario, s7_factory, args.max_slices),
        }
        print(
            f"{s7_n}-core S7: clustered {s7_s:6.3f}s  baseline {s7_base_s:6.3f}s  "
            f"{report[s7_key]['events_per_sec']:,.0f} events/s"
        )

    # ---- the equivalence contract: one cluster == flat, bit for bit --------
    eq_n = args.equivalence_ncores
    eq_ctx = get_context(eq_n, names=BENCHMARK_SUBSET)
    eq_scenario = cluster_churn(
        f"scaling-eq-{eq_n}core",
        eq_n,
        BENCHMARK_SUBSET,
        cluster_size=max(2, eq_n // 4),
        cycles=4,
        horizon_intervals=8 * eq_n,
        seed=args.seed,
    )
    _, one_run, _ = _replay(
        eq_ctx, eq_scenario, lambda: rm2_combined(cluster_size=eq_n), args.max_slices, 1
    )
    _, eq_flat_run, _ = _replay(eq_ctx, eq_scenario, rm2_combined, args.max_slices, 1)
    identical = runs_bit_identical(one_run, eq_flat_run)
    report["equivalence"] = {
        "ncores": eq_n,
        "bit_identical": identical,
        "result_hash": run_result_hash(eq_flat_run),
    }
    report["bit_identical"] = identical
    print(f"{eq_n}-core single-cluster == flat: bit-identical={identical}")

    write_bench_artifact("scaling", report)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
