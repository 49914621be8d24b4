#!/usr/bin/env python
"""Benchmark smoke run: one fixed-workload bench + one scenario bench.

A reduced-fidelity (``REPRO_MAX_SLICES``-truncated) pass over a
``run_matrix`` fixed-workload block and an S1-style scenario block, run
*twice* each: the cold pass simulates and populates the persistent
run-results store, the warm pass must be served from it.  Wall-clocks for
both passes land in ``benchmarks/_artifacts/BENCH_smoke.json`` so CI keeps
a perf-trajectory artefact per commit.

Usage::

    PYTHONPATH=src python tools/bench_smoke.py [--cache-dir PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))
from _bench_common import (  # noqa: E402
    BENCHMARK_SUBSET,
    add_src_to_path,
    machine_calibration_s,
    run_result_hash,
    write_bench_artifact,
)

# Reduced fidelity; must be set before repro.experiments.runner imports.
os.environ.setdefault("REPRO_MAX_SLICES", "12")
os.environ.setdefault("REPRO_ACCESSES_PER_SET", "400")
add_src_to_path()

from repro.experiments.runner import (  # noqa: E402
    BASELINE,
    DEFAULT_CACHE_DIR,
    RM2,
    RM3,
    get_context,
)
from repro.simulation.metrics import WorkloadComparison  # noqa: E402
from repro.simulation.results_store import ResultsStore  # noqa: E402
from repro.scenarios import poisson_arrivals  # noqa: E402
from repro.workloads.mixes import Workload  # noqa: E402

#: One QoS outcome (``AppViolation`` without its app name) as hashed bytes.
_VIOLATION_DTYPE = np.dtype([("core", "<i8"), ("slowdown_pct", "<f8"), ("violated", "?")])


def _block_hash(out: dict) -> str:
    """Digest of every number the block reports, as binary values.

    A scenario ``RunResult`` contributes its full ``run_result_digest``; a
    ``WorkloadComparison`` its ``savings_pct`` and every ``AppViolation``
    field.
    """
    h = hashlib.sha256()
    for key in sorted(out):
        res = out[key]
        h.update("|".join(key).encode() + b"\n")
        if isinstance(res, WorkloadComparison):
            h.update(np.float64(res.savings_pct).tobytes())
            h.update("|".join(v.app for v in res.violations).encode())
            rows = [(v.core, v.slowdown_pct, v.violated) for v in res.violations]
            h.update(np.array(rows, dtype=_VIOLATION_DTYPE).tobytes())
        else:
            h.update(run_result_hash(res).encode())
    return h.hexdigest()[:16]


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    args = parser.parse_args(argv)

    ctx = get_context(4, cache_dir=args.cache_dir, names=BENCHMARK_SUBSET)
    # The cold pass must time *simulation*: swap in a fresh throwaway store
    # so results persisted by earlier runs (the shared cache_dir default)
    # cannot serve it, while the warm pass still exercises store reads.
    if ctx.results_store is not None:
        ctx.results_store = ResultsStore(tempfile.mkdtemp(prefix="bench_smoke_results_"))
    store = ctx.results_store
    workloads = [
        Workload(
            name="smoke-a", apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like")
        ),
        Workload(name="smoke-b", apps=("astar_like", "lbm_like", "namd_like", "mcf_like")),
    ]
    scenario = poisson_arrivals(
        "smoke-s1",
        4,
        BENCHMARK_SUBSET,
        rate_per_interval=0.25,
        horizon_intervals=48,
        seed=0,
    )

    report: dict = {
        "benchmark": "smoke",
        "max_slices": os.environ["REPRO_MAX_SLICES"],
        "accesses_per_set": os.environ["REPRO_ACCESSES_PER_SET"],
        "result_store": store is not None,
        "calibration_s": round(machine_calibration_s(), 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    for label, block in (
        ("fixed_workload", lambda: ctx.run_matrix(workloads, [RM2, RM3])),
        ("scenario", lambda: ctx.run_scenarios([scenario], [BASELINE, RM2])),
    ):
        hits_before = store.hits if store else 0
        cold_s, cold_out = _timed(block)
        warm_hits_before = store.hits if store else 0
        warm_s, _ = _timed(block)
        report[label] = {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "cold_store_hits": warm_hits_before - hits_before,
            "warm_store_hits": (store.hits if store else 0) - warm_hits_before,
            "result_hash": _block_hash(cold_out),
        }
        print(
            f"{label:15s} cold {cold_s:7.3f}s  warm {warm_s:7.3f}s  "
            f"warm store hits {report[label]['warm_store_hits']}"
        )

    write_bench_artifact("smoke", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
