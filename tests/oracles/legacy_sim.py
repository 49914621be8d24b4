"""Frozen pre-refactor RMA simulator (golden reference).

This is the monolithic event loop that :mod:`repro.simulation.engine`
replaced, kept verbatim as the executable specification of the accounting
semantics.  The golden equivalence suite
(``tests/test_engine_equivalence.py``) replays fixed workloads and dynamic
scenarios through both implementations and asserts bit-identical
:class:`~repro.simulation.metrics.RunResult` numbers, and
``tools/bench_engine_speedup.py`` measures the engine's speedup against it.

Do not "fix" or optimise this module: its value is that it never changes.
New behaviour belongs in :mod:`repro.simulation.engine`; if semantics must
change, update the engine and regenerate the golden expectations in one
reviewed step.  The only additions since the freeze are the batched
read-only accessors of the manager bridge (``active_core_ids``,
``upcoming_records``), each a plain composition of the per-core
accessors, so the managers drive this simulator through the same surface
as the engine's bridge.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

from repro.config import Allocation, SystemConfig
from repro.core.managers import ResourceManager, StaticBaselineManager
from repro.scenarios.events import Scenario, ScenarioEvent
from repro.simulation.database import PhaseRecord, SimulationDatabase
from repro.simulation.metrics import AppResult, IntervalSample, RunResult
from repro.simulation.overheads import WARMUP_MLP, transition_cost
from repro.util.validation import require
from repro.workloads.mixes import Workload

__all__ = ["LegacyRMASimulator"]

#: Hard cap on simulated events (runaway-manager guard).
MAX_EVENTS = 1_000_000

#: Completion tolerance (instructions) absorbing float accumulation error.
EPS_INSTR = 1e-3


@dataclass
class _CoreRun:
    """Mutable execution state of one core."""

    core_id: int
    app: str
    seq: tuple[int, ...]
    slack: float
    alloc: Allocation
    slice_idx: int = 0
    instr_done: float = 0.0
    pending_stall_ns: float = 0.0
    energy_nj: float = 0.0
    intervals: int = 0
    rounds: int = 0
    interval_start_ns: float = 0.0
    first_round_time_ns: float | None = None
    first_round_energy_nj: float | None = None
    last_snapshot: object = None
    last_record: PhaseRecord | None = None
    active: bool = True
    energy_interval_start_nj: float = 0.0

    @property
    def done_first_round(self) -> bool:
        return self.first_round_time_ns is not None


class LegacyRMASimulator:
    """The pre-refactor monolithic simulator (reference semantics)."""

    def __init__(
        self,
        system: SystemConfig,
        db: SimulationDatabase,
        workload: Workload,
        manager: ResourceManager,
        max_slices: int | None = None,
        collect_interval_samples: bool = True,
        scenario: Scenario | None = None,
    ) -> None:
        require(workload.ncores == system.ncores, "workload size must match core count")
        for app in workload.apps:
            require(app in db.records, f"database has no benchmark {app!r}")
        if scenario is not None:
            require(scenario.workload == workload,
                    "scenario workload must match the workload being simulated")
            for ev in scenario.events:
                if ev.kind == "swap":
                    require(ev.app in db.records,
                            f"database has no benchmark {ev.app!r} (scenario event)")
        self.system = system
        self.db = db
        self.workload = workload
        self.manager = manager
        self.collect_interval_samples = collect_interval_samples
        self.scenario = scenario
        self.max_slices = max_slices
        base = system.baseline_allocation()
        self.cores: list[_CoreRun] = []
        for j, app in enumerate(workload.apps):
            seq = db.phase_sequence(app)
            if max_slices is not None:
                seq = seq[:max_slices]
            active = scenario.active[j] if scenario is not None else True
            self.cores.append(
                _CoreRun(core_id=j, app=app, seq=seq, slack=workload.slack[j],
                         alloc=base, active=active)
            )
        self._pending: list[deque[ScenarioEvent]] = [
            deque(scenario.events_for(j)) if scenario is not None else deque()
            for j in range(system.ncores)
        ]
        self.time_ns = 0.0
        self.total_intervals = 0
        self.interval_samples: list[IntervalSample] = []

    # ---- manager-facing API -------------------------------------------------
    def slack(self, core_id: int) -> float:
        return self.cores[core_id].slack

    def current_alloc(self, core_id: int) -> Allocation:
        return self.cores[core_id].alloc

    def is_active(self, core_id: int) -> bool:
        return self.cores[core_id].active

    def completed_snapshot(self, core_id: int):
        return self.cores[core_id].last_snapshot

    def completed_record(self, core_id: int) -> PhaseRecord:
        rec = self.cores[core_id].last_record
        require(rec is not None, "no completed interval yet")
        return rec

    def upcoming_record(self, core_id: int) -> PhaseRecord:
        core = self.cores[core_id]
        return self.db.record(core.app, core.seq[core.slice_idx])

    # ---- batched accessors (compositions of the per-core ones) ---------------
    def active_core_ids(self) -> list[int]:
        return [j for j in range(self.system.ncores) if self.is_active(j)]

    def upcoming_records(self, core_ids: list[int]) -> list[PhaseRecord]:
        return [self.upcoming_record(j) for j in core_ids]

    # ---- internals -----------------------------------------------------------
    def _current_record(self, core: _CoreRun) -> PhaseRecord:
        return self.db.record(core.app, core.seq[core.slice_idx])

    def _remaining_ns(self, core: _CoreRun) -> float:
        if not core.active:
            return math.inf
        tpi = self._current_record(core).tpi_at(core.alloc)
        left = self.system.interval_instructions - core.instr_done
        return core.pending_stall_ns + left * tpi

    def _advance(self, core: _CoreRun, dt: float) -> None:
        if dt <= 0.0 or not core.active:
            return
        if core.pending_stall_ns > 0.0:
            served = min(core.pending_stall_ns, dt)
            core.pending_stall_ns -= served
            dt -= served
            if dt <= 0.0:
                return
        rec = self._current_record(core)
        tpi = rec.tpi_at(core.alloc)
        instr = dt / tpi
        core.instr_done += instr
        core.energy_nj += instr * rec.epi_at(core.alloc)

    def _complete_interval(self, core: _CoreRun) -> None:
        system = self.system
        rec = self._current_record(core)
        core.instr_done = 0.0
        core.intervals += 1
        core.last_record = rec
        core.last_snapshot = rec.observe(system, core.alloc)

        if self.collect_interval_samples and (self.scenario is not None or core.rounds == 0):
            duration = self.time_ns - core.interval_start_ns
            baseline_ns = system.interval_instructions * rec.tpi_at(
                system.baseline_allocation()
            )
            self.interval_samples.append(
                IntervalSample(
                    core=core.core_id,
                    phase_key=core.seq[core.slice_idx],
                    duration_ns=duration,
                    baseline_ns=baseline_ns,
                    slack=core.slack,
                )
            )
        core.interval_start_ns = self.time_ns
        core.energy_interval_start_nj = core.energy_nj

        core.slice_idx += 1
        if core.slice_idx >= len(core.seq):
            if core.rounds == 0:
                core.first_round_time_ns = self.time_ns
                core.first_round_energy_nj = core.energy_nj
            core.rounds += 1
            core.slice_idx = 0

    def _apply(self, allocations: dict[int, Allocation]) -> None:
        system = self.system
        total = sum(a.ways for a in allocations.values())
        missing = [c for c in self.cores if c.core_id not in allocations]
        total += sum(c.alloc.ways for c in missing)
        require(
            total == system.llc.ways,
            f"manager allocated {total} ways, LLC has {system.llc.ways}",
        )
        for j, new in allocations.items():
            core = self.cores[j]
            if new == core.alloc:
                continue
            if not core.active:
                core.alloc = new
                continue
            cost = transition_cost(system, core.alloc, new)
            core.pending_stall_ns += cost.stall_ns
            core.energy_nj += cost.energy_nj
            core.alloc = new

    # ---- scenario event application -----------------------------------------
    def _apply_event(self, core: _CoreRun, ev: ScenarioEvent) -> None:
        if ev.kind == "slack":
            core.slack = float(ev.slack)
            return
        if ev.kind == "depart":
            core.active = False
            core.instr_done = 0.0
            core.pending_stall_ns = 0.0
            core.last_record = None
            core.last_snapshot = None
            self.manager.on_scenario_event(core.core_id, "depart")
            return
        seq = self.db.phase_sequence(ev.app)
        if self.max_slices is not None:
            seq = seq[: self.max_slices]
        core.app = ev.app
        core.seq = seq
        core.slice_idx = 0
        core.instr_done = 0.0
        core.rounds = 0
        core.active = True
        core.interval_start_ns = self.time_ns
        core.energy_interval_start_nj = core.energy_nj
        core.last_record = None
        core.last_snapshot = None
        misses = self.system.overheads.warmup_extra_misses(core.alloc.ways)
        core.pending_stall_ns += misses * self.system.mem.latency_ns / WARMUP_MLP
        core.energy_nj += misses * self.system.mem.energy_per_access_nj
        self.manager.on_scenario_event(core.core_id, "swap")

    def _apply_due_events(self, completed_core: int | None) -> bool:
        now = self.time_ns
        tenancy_changed = False
        for k, queue in enumerate(self._pending):
            core = self.cores[k]
            while queue and queue[0].time_ns <= now and (
                k == completed_core or not core.active
            ):
                ev = queue.popleft()
                self._apply_event(core, ev)
                if k == completed_core and ev.kind in ("swap", "depart"):
                    tenancy_changed = True
        return tenancy_changed

    def _finished(self) -> bool:
        if self.scenario is not None:
            return self.total_intervals >= self.scenario.horizon_intervals
        return all(c.done_first_round for c in self.cores)

    def run(self) -> RunResult:
        t0 = time.perf_counter()
        self.manager.attach(self)
        events = 0
        while not self._finished():
            events += 1
            require(events <= MAX_EVENTS, "event cap exceeded (manager thrashing?)")
            if self.scenario is not None and not any(c.active for c in self.cores):
                heads = [q[0].time_ns for q in self._pending if q]
                require(bool(heads), "all cores idle with no pending scenario events")
                self.time_ns = max(self.time_ns, min(heads))
                self._apply_due_events(completed_core=None)
                continue
            remaining = [self._remaining_ns(c) for c in self.cores]
            j = min(range(len(remaining)), key=remaining.__getitem__)
            dt = remaining[j]
            for core in self.cores:
                if core.core_id == j:
                    rec = self._current_record(core)
                    left = self.system.interval_instructions - core.instr_done
                    core.energy_nj += left * rec.epi_at(core.alloc)
                    core.pending_stall_ns = 0.0
                else:
                    self._advance(core, dt)
            self.time_ns += dt
            core = self.cores[j]
            self._complete_interval(core)
            self.total_intervals += 1
            invoke_manager = True
            if self.scenario is not None:
                invoke_manager = not self._apply_due_events(completed_core=j)
            if invoke_manager:
                new_allocs = self.manager.on_interval(j)
                if new_allocs:
                    self._apply(new_allocs)

        if self.scenario is not None:
            apps = [
                AppResult(
                    app=c.app,
                    core=c.core_id,
                    time_ns=self.time_ns,
                    energy_nj=c.energy_interval_start_nj,
                    intervals=c.intervals,
                    slack=c.slack,
                )
                for c in self.cores
            ]
            run_name = self.scenario.name
        else:
            apps = [
                AppResult(
                    app=c.app,
                    core=c.core_id,
                    time_ns=float(c.first_round_time_ns),
                    energy_nj=float(c.first_round_energy_nj),
                    intervals=len(c.seq),
                    slack=c.slack,
                )
                for c in self.cores
            ]
            run_name = self.workload.name
        return RunResult(
            workload=run_name,
            manager=self.manager.name,
            apps=apps,
            interval_samples=self.interval_samples,
            rma_invocations=self.manager.meter.invocations,
            rma_instructions=self.manager.meter.instructions,
            sim_wall_s=time.perf_counter() - t0,
        )
