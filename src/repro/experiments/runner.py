"""Shared experiment machinery: databases, baselines and batched runs.

An :class:`ExperimentContext` owns the simulation database for a system size
and memoises baseline runs (the paper's framework reuses one database for all
experiments).  ``run_matrix`` fans (workload x manager) runs out over worker
processes; results are deterministic regardless of the process count.

On top of the in-memory memo, a context built by :func:`get_context` carries
a persistent :class:`~repro.simulation.results_store.ResultsStore` under
``<cache_dir>/results/``: every finished run is content-addressed by
(database digest, workload/scenario, manager spec, ``max_slices``) and
repeated experiment or benchmark invocations load it from disk instead of
re-simulating.  Disable with ``REPRO_NO_RESULT_CACHE=1`` or the CLI's
``--no-result-cache`` flag.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.config import SystemConfig, default_system
from repro.core.managers import (
    CoordinatedManager,
    StaticBaselineManager,
)
from repro.scenarios.events import Scenario
from repro.simulation.database import SimulationDatabase, build_database
from repro.simulation.metrics import RunResult, WorkloadComparison, compare_runs
from repro.simulation.results_store import ResultsStore, run_key_from_prefix, run_key_prefix
from repro.simulation.rma_sim import simulate_scenario, simulate_workload
from repro.util.parallel import parallel_map
from repro.workloads.mixes import Workload

__all__ = [
    "ExperimentContext",
    "get_context",
    "ManagerSpec",
    "DEFAULT_CACHE_DIR",
    "set_result_cache",
    "result_cache_enabled",
]

# Normalised so the on-disk cache is one stable location regardless of the
# process's working directory or how the package path was assembled.
DEFAULT_CACHE_DIR = os.path.normpath(
    os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "..", ".sim_cache")
    )
)

#: Experiment fidelity knobs; EXPERIMENTS.md records the values used.
ACCESSES_PER_SET = int(os.environ.get("REPRO_ACCESSES_PER_SET", "600"))
MAX_SLICES_ENV = os.environ.get("REPRO_MAX_SLICES", "")
MAX_SLICES: int | None = int(MAX_SLICES_ENV) if MAX_SLICES_ENV else None

#: Result-store kill switch (``--no-result-cache`` flips it at runtime).
_RESULT_CACHE_ENABLED = os.environ.get(
    "REPRO_NO_RESULT_CACHE", ""
).strip().lower() not in ("1", "true", "yes", "on")


def set_result_cache(enabled: bool) -> None:
    """Enable/disable the persistent run-results store for new contexts."""
    global _RESULT_CACHE_ENABLED
    _RESULT_CACHE_ENABLED = bool(enabled)


def result_cache_enabled() -> bool:
    return _RESULT_CACHE_ENABLED


@dataclass(frozen=True)
class ManagerSpec:
    """Picklable description of a manager (factories are reconstructed in
    worker processes)."""

    kind: str                 # "baseline" | "coordinated" | "independent"
    name: str = ""
    control_dvfs: bool = True
    control_core_size: bool = False
    control_partitioning: bool = True
    mlp_model: str = "model2"
    oracle: bool = False
    # A non-None cluster size adds the coordinated manager's cluster tier
    # (per-cluster capped reduction stages + second-level combine);
    # overprovision scales the per-cluster way cap.
    cluster_size: int | None = None
    overprovision: float = 2.0

    def build(self):
        """Reconstruct the described manager (used inside worker processes)."""
        if self.kind == "baseline":
            return StaticBaselineManager()
        if self.kind == "independent":
            from repro.core.managers import IndependentManager

            return IndependentManager(mlp_model=self.mlp_model)
        if self.kind == "history":
            from repro.core.history import HistoryAwareManager

            return HistoryAwareManager(
                name=self.name or "rm2-history",
                control_core_size=self.control_core_size,
                mlp_model=self.mlp_model,
            )
        return CoordinatedManager(
            name=self.name,
            control_dvfs=self.control_dvfs,
            control_core_size=self.control_core_size,
            control_partitioning=self.control_partitioning,
            mlp_model=self.mlp_model,
            oracle=self.oracle,
            cluster_size=self.cluster_size,
            overprovision=self.overprovision,
        )


BASELINE = ManagerSpec(kind="baseline", name="baseline")
RM1 = ManagerSpec(kind="coordinated", name="rm1-partitioning", control_dvfs=False)
RM2 = ManagerSpec(kind="coordinated", name="rm2-combined")
RM3 = ManagerSpec(
    kind="coordinated", name="rm3-core-adaptive", control_core_size=True, mlp_model="model3"
)
DVFS_ONLY = ManagerSpec(kind="coordinated", name="dvfs-only", control_partitioning=False)


def rm2_oracle() -> ManagerSpec:
    """Spec for RM2 under perfect ("oracle") models."""
    return ManagerSpec(kind="coordinated", name="rm2-oracle", oracle=True)


def rm2_clustered(cluster_size: int = 8, overprovision: float = 2.0) -> ManagerSpec:
    """Spec for the hierarchical RM2 variant (the many-core cluster tier)."""
    return ManagerSpec(
        kind="coordinated",
        name=f"rm2-combined-c{cluster_size}",
        cluster_size=cluster_size,
        overprovision=overprovision,
    )


def rm3_with_model(model: str) -> ManagerSpec:
    return ManagerSpec(
        kind="coordinated",
        name=f"rm3-{model}",
        control_core_size=True,
        mlp_model=model,
    )


# Worker context.  Under the fork start method it is inherited; under spawn
# the workers start clean, so every fan-out passes ``_init_worker`` as the
# pool initializer, which rebuilds this state from pickled initargs in each
# worker (and in-process on the serial path).  It is a *thread local*, not a
# plain dict: pool worker processes run initializer and tasks on one thread,
# but the replay service drives serial-path fan-outs from several threads at
# once, and a shared mapping would let one thread's context (say, the 16-core
# system) leak into another thread's 4-core job.
_WORKER = threading.local()


def _init_worker(ctx: "ExperimentContext") -> None:
    """Pool initializer: install the experiment context in this worker."""
    _WORKER.ctx = ctx


def _worker_ctx() -> "ExperimentContext":
    ctx = getattr(_WORKER, "ctx", None)
    if ctx is None:
        raise RuntimeError(
            "worker has no experiment context; fan out through parallel_map "
            "with initializer=_init_worker (required under the spawn start "
            "method, where module state is not inherited)"
        )
    return ctx


def _run_one(task: tuple) -> RunResult:
    workload, spec, max_slices = task
    ctx = _worker_ctx()
    return simulate_workload(
        ctx.system, ctx.db, workload, spec.build(), max_slices=max_slices
    )


def _run_one_scenario(task: tuple) -> RunResult:
    scenario, spec, max_slices = task
    ctx = _worker_ctx()
    return simulate_scenario(
        ctx.system, ctx.db, scenario, spec.build(), max_slices=max_slices
    )


@dataclass
class ExperimentContext:
    """Database + memoised baseline runs for one system size."""

    system: SystemConfig
    db: SimulationDatabase
    max_slices: int | None = MAX_SLICES
    results_store: ResultsStore | None = None
    _baselines: dict[str, RunResult] = field(default_factory=dict)
    #: ``((system, db, max_slices), run_key_prefix)`` of the last key.
    _key_prefix: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # ---- results-store plumbing ---------------------------------------------
    def run_key(self, item: Workload | Scenario, spec: ManagerSpec) -> str:
        """The results-store key of replaying ``item`` under ``spec`` here.

        Equal to :func:`~repro.simulation.results_store.run_key`.  The part
        this context fixes (database digest, ``repr(system)``, fidelity) is
        derived once and reused while those stay the same objects.
        """
        basis = (self.system, self.db, self.max_slices)
        cached = self._key_prefix
        if cached is None or any(a is not b for a, b in zip(cached[0], basis)):
            cached = self._key_prefix = (basis, run_key_prefix(*basis))
        return run_key_from_prefix(cached[1], item, spec)

    def _key(self, item: Workload | Scenario, spec: ManagerSpec) -> str | None:
        if self.results_store is None:
            return None
        return self.run_key(item, spec)

    def _lookup(self, key: str | None) -> RunResult | None:
        if key is None:
            return None
        return self.results_store.get(key)

    def _resolve(
        self,
        items: list[tuple[Workload | Scenario, ManagerSpec]],
        worker,
        processes: int | None,
    ) -> list[RunResult]:
        """Serve each (item, spec) pair from the results store where possible;
        fan the misses out over worker processes and persist them."""
        keys = [self._key(item, spec) for item, spec in items]
        results: list[RunResult | None] = [self._lookup(k) for k in keys]
        todo = [i for i, r in enumerate(results) if r is None]
        tasks = [(items[i][0], items[i][1], self.max_slices) for i in todo]
        fresh = parallel_map(
            worker, tasks, processes=processes,
            initializer=_init_worker, initargs=(self,),
        )
        for i, run in zip(todo, fresh):
            results[i] = run
            if keys[i] is not None:
                self.results_store.put(keys[i], run)
        return results

    @staticmethod
    def _baseline_memo_key(workload: Workload) -> str:
        return workload.name + "/" + ",".join(workload.apps)

    # ---- single runs --------------------------------------------------------
    def baseline_run(self, workload: Workload) -> RunResult:
        key = self._baseline_memo_key(workload)
        if key not in self._baselines:
            self._baselines[key] = self.run(workload, BASELINE)
        return self._baselines[key]

    def run(self, workload: Workload, spec: ManagerSpec) -> RunResult:
        return self._resolve([(workload, spec)], _run_one, processes=1)[0]

    def compare(self, workload: Workload, spec: ManagerSpec) -> WorkloadComparison:
        return compare_runs(self.baseline_run(workload), self.run(workload, spec))

    def run_scenario(self, scenario: Scenario, spec: ManagerSpec) -> RunResult:
        """Simulate one dynamic scenario under one manager."""
        return self._resolve([(scenario, spec)], _run_one_scenario, processes=1)[0]

    # ---- batched runs -------------------------------------------------------
    def run_many(
        self,
        workloads: list[Workload],
        spec: ManagerSpec,
        processes: int | None = None,
    ) -> list[RunResult]:
        """Run one manager over many workloads in parallel (raw results)."""
        return self._resolve([(wl, spec) for wl in workloads], _run_one, processes)

    def run_scenarios(
        self,
        scenarios: list[Scenario],
        specs: list[ManagerSpec],
        processes: int | None = None,
    ) -> dict[tuple[str, str], RunResult]:
        """Run every (scenario, manager) pair in parallel.

        Returns ``{(scenario name, manager name): RunResult}``.  Scenario
        runs execute a fixed interval horizon, so comparisons against the
        baseline manager's run of the same scenario are energy at equal
        instruction counts (wall-clock event exposure follows each run's own
        timeline, as in a real open system); results are bit-identical for
        any ``processes`` count because the event streams are pre-generated
        and the replay is deterministic.
        """
        pairs = [(sc, spec) for sc in scenarios for spec in specs]
        results = self._resolve(pairs, _run_one_scenario, processes)
        return {
            (sc.name, spec.name): run for (sc, spec), run in zip(pairs, results)
        }

    def run_matrix(
        self,
        workloads: list[Workload],
        specs: list[ManagerSpec],
        processes: int | None = None,
    ) -> dict[tuple[str, str], WorkloadComparison]:
        """Run every (workload, manager) pair, plus baselines, in parallel.

        Baselines already memoised (from earlier ``baseline_run`` /
        ``run_matrix`` calls) or present in the results store are reused
        rather than re-simulated.  Returns ``{(workload name, manager name):
        comparison}``.
        """
        pairs: list[tuple[Workload, ManagerSpec]] = [
            (wl, BASELINE)
            for wl in workloads
            if self._baseline_memo_key(wl) not in self._baselines
        ]
        pairs += [(wl, spec) for wl in workloads for spec in specs]
        results = self._resolve(pairs, _run_one, processes)

        for (wl, spec), run in zip(pairs, results):
            if spec.kind == "baseline":
                self._baselines.setdefault(self._baseline_memo_key(wl), run)
        out: dict[tuple[str, str], WorkloadComparison] = {}
        for (wl, spec), run in zip(pairs, results):
            if spec.kind == "baseline":
                continue
            base = self._baselines[self._baseline_memo_key(wl)]
            out[(wl.name, spec.name)] = compare_runs(base, run)
        return out


# Contexts are memoised per (ncores, cache directory): a second call with a
# different cache_dir builds against *that* cache instead of silently
# reusing a context keyed to the first one.
_CONTEXTS: dict[tuple[int, str | None], ExperimentContext] = {}


def _normalize_dir(path: str | None) -> str | None:
    return os.path.normpath(os.path.abspath(path)) if path else None


def get_context(
    ncores: int = 4,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    names: list[str] | None = None,
) -> ExperimentContext:
    """Build (or reuse) the experiment context for an ``ncores`` system."""
    cache_key = (ncores, _normalize_dir(cache_dir))
    if names is None and cache_key in _CONTEXTS:
        return _CONTEXTS[cache_key]
    system = default_system(ncores)
    db = build_database(
        system,
        names=names,
        accesses_per_set=ACCESSES_PER_SET,
        cache_dir=cache_dir,
    )
    store = None
    if cache_dir and result_cache_enabled():
        store = ResultsStore(os.path.join(_normalize_dir(cache_dir), "results"))
    ctx = ExperimentContext(system=system, db=db, results_store=store)
    if names is None:
        _CONTEXTS[cache_key] = ctx
    return ctx
