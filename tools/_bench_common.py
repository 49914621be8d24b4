"""Shared plumbing for the ``tools/bench_*.py`` benchmark scripts.

One place for the small-suite benchmark subset (the test suite's seven
apps, chosen so tool runs reuse the tier-1 ``.sim_cache`` database), the
artifact directory, and the ``BENCH_*.json`` writer, so the scripts cannot
drift apart on either the app set or the artifact schema.

Every artifact carries two regression-gate fields consumed by
``tools/bench_compare.py``:

* ``calibration_s`` -- wall-clock of a fixed numpy workload on the
  producing machine, letting the gate rescale wall-clock baselines
  recorded on different hardware before applying its threshold;
* per-run ``result_hash`` values (:func:`run_result_hash`) -- a digest of
  the full-precision simulation numbers, so any semantic drift fails the
  gate exactly, independent of timing noise.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: The test suite's benchmark subset: all four Paper I categories and all
#: four Paper II types, small enough to build fast.
BENCHMARK_SUBSET = [
    "mcf_like",
    "soplex_like",
    "libquantum_like",
    "lbm_like",
    "astar_like",
    "povray_like",
    "namd_like",
]

ARTIFACT_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "_artifacts")
)


def add_src_to_path() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def add_repo_root_to_path() -> None:
    """Make the reference implementations under ``tests/oracles`` importable."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def machine_calibration_s(repeats: int = 3) -> float:
    """Best-of-N wall-clock of a fixed, deterministic yardstick workload.

    A speed yardstick for the producing machine: the regression gate divides
    fresh and baseline wall-clocks by their respective calibrations so a
    slower CI runner does not read as a code regression.  The workload must
    mirror the *replay's* execution profile -- a Python-level event loop
    issuing many numpy operations on small arrays (call-overhead bound) --
    not multithreaded BLAS kernels, whose throughput scales differently
    across machines than the interpreter-bound simulator does.
    """
    import numpy as np

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        a = rng.random(64)
        acc = 0.0
        for _ in range(12000):
            masked = np.where(a > 0.5, a, np.inf)
            totals = masked[None, :] + a[:, None]
            m = np.argmin(totals, axis=1)
            acc += float(totals[0, m[0]])
        assert acc == acc  # consume the result
        best = min(best, time.perf_counter() - t0)
    return best


def time_best_of(make_run, repeats: int = 3):
    """Best-of-N wall-clock of ``make_run()`` plus its last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = make_run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def runs_bit_identical(a, b) -> bool:
    """``==`` on every scored number of two ``RunResult``s -- no tolerances.

    The one comparator every bench script's ``bit_identical`` artifact
    field goes through, so the scripts cannot drift on what "identical"
    means (timings, energies, the metered RMA accounting, and the interval
    samples, compared as column bytes, all count).
    """
    return (
        a.total_energy_nj == b.total_energy_nj
        and a.max_time_ns == b.max_time_ns
        and a.rma_invocations == b.rma_invocations
        and a.rma_instructions == b.rma_instructions
        and a.interval_samples == b.interval_samples
    )


def traced_layer_split(sim):
    """Exclusive seconds per layer of one traced replay, and its result.

    Installs ``perfbench/tracer.py``'s replay-layer wrappers, runs
    ``sim.run()`` once and uninstalls them again, so the program itself is
    never modified.  The split holds one ``<layer>_self`` entry per traced
    layer (``engine``, ``managers``, ``curves``, ``packed_tree``): its
    spans' time minus the time of the spans nested inside them.  Every
    span of the replay nests in the ``engine`` span, so the ``*_self``
    values add up to ``run_total``, the engine span's own length.  No key
    ends in ``_s``: the regression gate treats these as report-only.
    """
    add_repo_root_to_path()
    from perfbench.tracer import Tracer, install_replay_layers, layer_totals

    tracer = Tracer()
    install_replay_layers(tracer)
    try:
        run = sim.run()
    finally:
        tracer.uninstall()
    totals = layer_totals(tracer.spans)
    split = {f"{k}_self": v["self_s"] for k, v in sorted(totals.items()) if "." not in k}
    split["run_total"] = totals["engine"]["incl_s"]
    return split, run


def run_result_hash(run) -> str:
    """Digest of one ``RunResult``'s simulation numbers at full precision.

    Delegates to :func:`repro.simulation.metrics.run_result_digest` -- the
    one canonical implementation, shared with the scenario-replay service --
    imported lazily because bench scripts call :func:`add_src_to_path`
    before importing anything from ``repro``.
    """
    from repro.simulation.metrics import run_result_digest

    return run_result_digest(run)


#: The chaos smoke's report.  It lies outside the ``BENCH_*`` glob of
#: ``tools/bench_compare.py``: it records fault storms, not timings, and
#: has no baseline for the regression gate to diff.
CHAOS_REPORT = "chaos_smoke.json"


def write_bench_artifact(name: str, report: dict) -> str:
    """Write ``report`` to ``benchmarks/_artifacts/BENCH_<name>.json``."""
    return write_artifact(f"BENCH_{name}.json", report)


def write_artifact(filename: str, report: dict) -> str:
    """Write ``report`` to ``benchmarks/_artifacts/<filename>``."""
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return path
