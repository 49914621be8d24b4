#!/usr/bin/env python
"""Benchmark: cold-start detailed-simulation database build per core count.

Cold start is the database build plus the first replay, and the build is
most of it.  This benchmark builds the small-suite databases (the tier-1
app subset at ``accesses_per_set=400``) for each requested core count --
8, 64 and 256 by default; 256 cores is the 1024-way LLC, the widest stack
walk and the most miss streams per phase -- serially and into a fresh
throwaway cache directory per build, so nothing is served from
``.sim_cache``.  Each record holds the
best-of-``--repeats`` wall-clock (``build_s``) and a digest of every phase
trace and record array (``result_hash``), computed with the same recipe
as the ``perfbench`` database digest.

Results land in ``benchmarks/_artifacts/BENCH_database_build.json``; the CI
bench-regression gate (``tools/bench_compare.py``) fails on a changed
digest and on a calibration-rescaled ``build_s`` regression.

Usage::

    PYTHONPATH=src python tools/bench_database_build.py [--ncores 8 64 256] [--repeats 2]
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
    time_best_of,
    write_bench_artifact,
)

add_src_to_path()

from repro.config import default_system  # noqa: E402
from repro.simulation.database import build_database  # noqa: E402

ACCESSES_PER_SET = 400

RECORD_ARRAYS = ("mpki_full", "mlp_full", "tpi", "latency", "epi", "mpki_sampled", "mlp_sampled")


def database_content_digest(db) -> str:
    """Digest of every phase trace, record scalar and record array."""
    h = hashlib.sha256()
    for bench in sorted(db.records):
        h.update(f"{bench}:{db.traces[bench]}".encode())
        for key in sorted(db.records[bench]):
            rec = db.records[bench][key]
            h.update(repr((key, rec.weight, rec.apki, rec.epi_dyn, rec.base_cpi)).encode())
            for name in RECORD_ARRAYS:
                h.update(np.ascontiguousarray(getattr(rec, name), dtype=np.float64).tobytes())
    return h.hexdigest()[:20]


def build_once(ncores: int):
    """One serial build into a directory that is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="bench_database_build_") as cache_dir:
        return build_database(
            default_system(ncores),
            names=BENCHMARK_SUBSET,
            accesses_per_set=ACCESSES_PER_SET,
            processes=1,
            cache_dir=cache_dir,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ncores", type=int, nargs="+", default=[8, 64, 256])
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)

    report: dict = {
        "benchmark": "database_build",
        "accesses_per_set": ACCESSES_PER_SET,
        "repeats": args.repeats,
        "calibration_s": round(machine_calibration_s(), 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    for ncores in args.ncores:
        build_s, db = time_best_of(lambda: build_once(ncores), args.repeats)
        digest = database_content_digest(db)
        report[f"{ncores}core"] = {
            "ncores": ncores,
            "build_s": round(build_s, 4),
            "result_hash": digest,
        }
        print(f"{ncores:4d} cores  build {build_s:7.3f}s  digest {digest}")

    write_bench_artifact("database_build", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
