"""Shared plumbing: paths, fixed inputs, statistics, digests and records.

Everything the benchmark writes lives under ``<checkout>/.perfbench/``:

* ``prep/<fingerprint>/`` -- databases and pre-seeded store entries, built
  once per source tree (the fingerprint hashes every file under ``src/``);
* ``runs/<id>/`` -- the fresh cache directory of one run, removed at exit;
* ``records/<fingerprint>/`` -- digests and work counters seen per
  (workload, seed), so a later run of the same seed on the same source
  tree is compared against them;
* ``traces/`` -- the spans of the last traced run of each workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import uuid

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

#: The tier-1 test suite's seven apps: all four Paper I categories and all
#: four Paper II types.  Fixed here so the benchmark's inputs never move
#: with the tools that happen to share the list today.
APPS = [
    "mcf_like",
    "soplex_like",
    "libquantum_like",
    "lbm_like",
    "astar_like",
    "povray_like",
    "namd_like",
]

#: Fidelity knobs, forced before the library is imported.
FIDELITY_ENV = {"REPRO_ACCESSES_PER_SET": "400", "REPRO_MAX_SLICES": "12"}

#: Environment switches that would change what the program does; the
#: benchmark clears them so every run executes the program's defaults.
CLEARED_ENV = ("REPRO_PROCESSES", "REPRO_NO_RESULT_CACHE", "REPRO_PROFILE", "REPRO_WAYS_AUDIT")


def setup_env() -> None:
    """Pin fidelity knobs and put ``src/`` on the import path.

    Exits with status 2 (and no result line) when the checkout has no
    source tree, so a directory holding only the benchmark fails cleanly.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        sys.exit(2)
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    os.environ.update(FIDELITY_ENV)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def source_fingerprint() -> str:
    """Digest of every file under ``src/`` (path and bytes), plus the
    benchmark's input definitions: preparation and the records of earlier
    runs are keyed by it, so either changing starts them afresh."""
    h = hashlib.sha256()
    h.update(json.dumps([APPS, FIDELITY_ENV]).encode())
    with open(os.path.join(BENCH_DIR, "inputs.py"), "rb") as fh:
        h.update(fh.read())
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def new_run_dir() -> str:
    path = os.path.join(WORK, "runs", uuid.uuid4().hex[:12])
    os.makedirs(path)
    return path


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- host speed -------------------------------------------------------------
#: Seconds :func:`probe_s` takes on the 2-CPU machine the bounds were tuned
#: on, in its faster state.
REFERENCE_PROBE_S = 0.0035


def probe_s(repeats: int = 1) -> float:
    """How fast the host runs right now: the fastest of ``repeats`` runs of
    a fixed interpreter-and-NumPy loop that uses no library code.

    A shared host changes speed for minutes at a time: within one 200 s
    stretch the same paper_8core pass took 4.2 s, then 6.3 s.  The loop
    slows with it, so a time scaled by :func:`calibrated` reads the same
    across such shifts (spread 0.43 raw, 0.08 scaled, over those passes),
    while a change to the library still moves it.
    """
    best = math.inf
    for _ in range(repeats):
        rows = np.random.default_rng(0).random((64, 16))
        seen: dict = {}
        t0 = time.perf_counter()
        for i in range(300):
            row = rows[i % 64] * 1.0001 + rows[(i * 7) % 64]
            j = int(row.argmin())
            seen[(i % 97, j)] = seen.get((i % 97, j), 0.0) + float(row[j])
            sorted((k, v) for k, v in list(seen.items())[:8])
        best = min(best, time.perf_counter() - t0)
    return best


def calibrated(seconds: float, probe: float) -> float:
    """``seconds`` measured right after a :func:`probe_s` of ``probe``,
    scaled to the reference machine's speed."""
    return seconds * REFERENCE_PROBE_S / probe


# ---- statistics -------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); inf-safe."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    if vals[hi] == math.inf:
        return math.inf if pos > lo or vals[lo] == math.inf else vals[lo]
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# ---- digests ----------------------------------------------------------------
_APP_DTYPE = np.dtype(
    [("core", "<i8"), ("intervals", "<i8"), ("slack", "<f8"), ("time_ns", "<f8"), ("energy_nj", "<f8")]
)
_SAMPLE_DTYPE = np.dtype(
    [("core", "<i8"), ("phase_key", "<i8"), ("duration_ns", "<f8"), ("baseline_ns", "<f8"), ("slack", "<f8")]
)


def digest_fields(workload, manager, invocations, instructions, apps, samples) -> str:
    """Full-strength digest of one run's numbers.

    ``apps`` rows are ``(app, core, intervals, slack, time_ns, energy_nj)``
    and ``samples`` rows ``(core, phase_key, duration_ns, baseline_ns,
    slack)``.  Every number is hashed as its exact binary value, the
    interval samples as one packed buffer; host wall-clock is left out.
    """
    h = hashlib.sha256()
    h.update(f"{workload}\n{manager}\n{int(invocations)}\n".encode())
    h.update(np.float64(instructions).tobytes())
    h.update("|".join(row[0] for row in apps).encode())
    h.update(np.array([tuple(row[1:]) for row in apps], dtype=_APP_DTYPE).tobytes())
    h.update(np.array([tuple(row) for row in samples], dtype=_SAMPLE_DTYPE).tobytes())
    return h.hexdigest()[:20]


def run_digest(run) -> str:
    """:func:`digest_fields` of a library ``RunResult``."""
    return digest_fields(
        run.workload,
        run.manager,
        run.rma_invocations,
        run.rma_instructions,
        [(a.app, a.core, a.intervals, a.slack, a.time_ns, a.energy_nj) for a in run.apps],
        [(s.core, s.phase_key, s.duration_ns, s.baseline_ns, s.slack) for s in run.interval_samples],
    )


def combine(digests) -> str:
    """One digest over an ordered list of digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:20]


def database_digest(db) -> str:
    """Digest of every array and phase trace in a simulation database."""
    h = hashlib.sha256()
    for bench in sorted(db.records):
        h.update(f"{bench}:{db.traces[bench]}".encode())
        for key in sorted(db.records[bench]):
            rec = db.records[bench][key]
            h.update(repr((key, rec.weight, rec.apki, rec.epi_dyn, rec.base_cpi)).encode())
            for name in ("mpki_full", "mlp_full", "tpi", "latency", "epi", "mpki_sampled", "mlp_sampled"):
                h.update(np.ascontiguousarray(getattr(rec, name), dtype=np.float64).tobytes())
    return h.hexdigest()[:20]


# ---- references and records -------------------------------------------------
class Check:
    """Correctness verdict of one run: reference, record and cross-checks."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    @property
    def ok(self) -> bool:
        return not self.errors


def load_references() -> dict:
    try:
        with open(REFERENCES, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_key(seed: int, variant: str) -> str:
    return f"{seed}" if not variant else f"{seed}/{variant}"


def check_against_records(check: Check, workload: str, seed: int, variant: str,
                          digest: str, counters: dict, fingerprint: str) -> None:
    """Compare a run's digest and work counters with what is on record.

    The committed reference (``references.json``) pins the digest: a
    mismatch fails the run.  Work counters are compared with the reference
    and with the last run of the same seed on this source tree; a
    difference is reported as an algorithmic change, not as noise.
    """
    key = reference_key(seed, variant)
    ref = load_references().get(workload, {}).get(key)
    if ref is None:
        check.notes.append(f"no committed reference for {workload} seed {key}")
    else:
        if ref["digest"] != digest:
            check.fail(f"digest {digest} != reference {ref['digest']} ({workload} seed {key})")
        _compare_counters(check, "reference", ref.get("counters", {}), counters)
    path = os.path.join(WORK, "records", fingerprint, f"{workload}-{key.replace('/', '-')}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except FileNotFoundError:
        seen = None
    merged = dict(counters)
    if seen is not None:
        if seen["digest"] != digest:
            check.fail(f"digest {digest} != earlier run's {seen['digest']} on this source tree")
        _compare_counters(check, "earlier run", seen["counters"], counters)
        merged = {**seen["counters"], **counters}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digest": digest, "counters": merged}, fh, sort_keys=True)


def _compare_counters(check: Check, against: str, expected: dict, counters: dict) -> None:
    for name in sorted(set(expected) & set(counters)):
        if expected[name] != counters[name]:
            check.notes.append(
                f"ALGORITHMIC CHANGE: counter {name} = {counters[name]}, {against} had {expected[name]}"
            )
