"""The simulation-results database.

The paper performs detailed architectural simulation (Sniper + McPAT) of each
phase's representative slice over the full range of resource settings *once*,
stores the results, and then replays arbitrarily many RMA experiments against
the same database -- "the same simulation result database can be used for all
the experiments" (thesis Ch. 2).  This module is that database.

A :class:`PhaseRecord` holds, for one (benchmark, operational phase):

* ground-truth grids ``tpi[c,f,w]``, ``latency[c,f,w]``, ``epi[c,f,w]``;
* the full-trace miss curve and MLP grid (ground truth);
* the *sampled* ATD miss curve and quantised MLP-ATD table (what the RMA's
  online hardware reads -- the realistic models' inputs).

Records are duck-typed against :func:`repro.cpu.counters.observe_counters`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.config import Allocation, SystemConfig
from repro.cpu.counters import CounterSnapshot, observe_counters
from repro.util.parallel import parallel_map
from repro.workloads.benchmarks import BENCHMARKS, get_benchmark

__all__ = [
    "PhaseRecord",
    "SimulationDatabase",
    "build_database",
    "database_cache_path",
    "DB_FORMAT_VERSION",
]

#: Bump to invalidate on-disk caches when record layout or models change.
DB_FORMAT_VERSION = 4


@dataclass(frozen=True)
class PhaseRecord:
    """Detailed-simulation results for one phase's representative slice."""

    bench: str
    phase_key: int
    weight: float
    # phase-level observables
    apki: float
    epi_dyn: float
    base_cpi: float
    ilp_sensitivity: float
    mlp_sensitivity: float
    # ground truth
    mpki_full: np.ndarray     # (W,)
    mlp_full: np.ndarray      # (C, W)
    tpi: np.ndarray           # (C, F, W) ns/instr
    latency: np.ndarray       # (C, F, W) ns
    epi: np.ndarray           # (C, F, W) nJ/instr
    # online hardware readings (set-sampled, quantised)
    mpki_sampled: np.ndarray  # (W,)
    mlp_sampled: np.ndarray   # (C, W)

    def observe(self, system: SystemConfig, alloc: Allocation) -> CounterSnapshot:
        """Hardware-counter snapshot of one interval at ``alloc``."""
        return observe_counters(system, self, alloc)

    def tpi_at(self, alloc: Allocation) -> float:
        return float(self.tpi[alloc.core, alloc.freq, alloc.ways - 1])

    def epi_at(self, alloc: Allocation) -> float:
        return float(self.epi[alloc.core, alloc.freq, alloc.ways - 1])


@dataclass
class SimulationDatabase:
    """All phase records plus each benchmark's operational phase trace."""

    system: SystemConfig
    records: dict[str, dict[int, PhaseRecord]]
    traces: dict[str, tuple[int, ...]]
    build_params: dict = field(default_factory=dict)

    def record(self, bench: str, phase_key: int) -> PhaseRecord:
        return self.records[bench][phase_key]

    def phase_sequence(self, bench: str) -> tuple[int, ...]:
        return self.traces[bench]

    def benchmarks(self) -> list[str]:
        return sorted(self.records)

    def weighted_mpki_curve(self, bench: str) -> np.ndarray:
        """Benchmark-level MPKI(w), weighted by phase weights (full-trace)."""
        recs = self.records[bench].values()
        return np.sum([r.weight * r.mpki_full for r in recs], axis=0)

    def weighted_mlp_grid(self, bench: str) -> np.ndarray:
        """Benchmark-level MLP[c, w], weighted by phase weights."""
        recs = self.records[bench].values()
        return np.sum([r.weight * r.mlp_full for r in recs], axis=0)


def _config_digest(system: SystemConfig, names: tuple[str, ...], accesses_per_set: int) -> str:
    """Stable cache key over every input that changes database contents."""
    parts = [
        f"v{DB_FORMAT_VERSION}",
        f"n{system.ncores}",
        f"ways{system.llc.ways}",
        f"sets{system.llc.model_sets}",
        f"samp{system.llc.atd_sampled_sets}",
        f"vf{system.vf.freqs_ghz}{system.vf.v0}{system.vf.kv}",
        f"cores{[(c.name, c.rob, c.width, c.mshrs, c.epi_factor, c.leak_factor, c.ilp_speedup, c.ilp_floor) for c in system.core_sizes]}",
        f"mem{system.mem}",
        f"leak{system.core_leak_w}cache{system.llc_way_static_w},{system.llc_access_energy_nj}",
        f"aps{accesses_per_set}",
        ",".join(names),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def database_cache_path(
    system: SystemConfig, names: list[str] | tuple[str, ...], accesses_per_set: int, cache_dir: str
) -> str:
    """Where :func:`build_database` caches the database for these inputs."""
    digest = _config_digest(system, tuple(sorted(names)), accesses_per_set)
    return os.path.join(cache_dir, f"simdb_{digest}.pkl")


#: Directory beside the cached databases that unloadable cache files are
#: moved to (the results store's convention).
QUARANTINE_DIR = ".quarantine"


def _load_cached(cache_path: str) -> SimulationDatabase | None:
    """The database cached at ``cache_path``, or None when there is none.

    A file that does not unpickle to a :class:`SimulationDatabase` -- a
    truncated write, bit rot, a pickle of classes since renamed -- is moved
    to :data:`QUARANTINE_DIR` beside it, so the caller rebuilds and the bad
    file stays available for inspection without being loaded again.
    """
    try:
        with open(cache_path, "rb") as fh:
            db = pickle.load(fh)
    except FileNotFoundError:
        return None
    # Unpickling a corrupt file can raise far more than UnpicklingError
    # (EOFError, ValueError, ImportError/AttributeError on renamed classes).
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
    else:
        if isinstance(db, SimulationDatabase):
            return db
        failure = f"it holds a {type(db).__name__}"
    qdir = os.path.join(os.path.dirname(cache_path), QUARANTINE_DIR)
    try:
        os.makedirs(qdir, exist_ok=True)
        os.replace(cache_path, os.path.join(qdir, os.path.basename(cache_path)))
    except OSError:
        pass  # a racing builder moved it, or the cache is read-only: rebuild anyway
    warnings.warn(
        f"unusable database cache {cache_path} ({failure}): quarantined, rebuilding",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


def build_database(
    system: SystemConfig,
    names: list[str] | None = None,
    accesses_per_set: int = 1200,
    processes: int | None = None,
    cache_dir: str | None = None,
) -> SimulationDatabase:
    """Run the detailed-simulation step for ``names`` (default: full suite).

    Per-benchmark work (SimPoint + per-phase characterisation) is independent
    and fanned out over worker processes, mirroring the paper's observation
    that this step parallelises trivially.  With ``cache_dir`` set, the
    finished database is pickled to disk and reused across runs; a cache
    file that cannot be loaded is quarantined and rebuilt.
    """
    from repro.simulation.detailed import analyze_benchmark  # local: avoid cycle

    all_names = tuple(sorted(names if names is not None else BENCHMARKS))
    for n in all_names:
        get_benchmark(n)  # fail fast on unknown names

    cache_path = None
    if cache_dir:
        cache_path = database_cache_path(system, all_names, accesses_per_set, cache_dir)
        db = _load_cached(cache_path)
        if db is not None:
            return db

    work = [(name, system, accesses_per_set) for name in all_names]
    results = parallel_map(_analyze_one, work, processes=processes)

    records: dict[str, dict[int, PhaseRecord]] = {}
    traces: dict[str, tuple[int, ...]] = {}
    for name, recs, trace in results:
        records[name] = recs
        traces[name] = trace
    db = SimulationDatabase(
        system=system,
        records=records,
        traces=traces,
        build_params={"accesses_per_set": accesses_per_set},
    )
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = cache_path + f".tmp{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(db, fh)
        os.replace(tmp, cache_path)
    return db


def _analyze_one(args: tuple) -> tuple:
    """Picklable worker wrapper for :func:`parallel_map`."""
    from repro.simulation.detailed import analyze_benchmark

    name, system, accesses_per_set = args
    recs, trace = analyze_benchmark(system, name, accesses_per_set=accesses_per_set)
    return name, recs, trace
