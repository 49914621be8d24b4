"""The simulation kernel: the event loop over the layered components.

One iteration = one global event = the earliest completion of a
100 M-instruction interval on any core:

1. the :class:`~repro.simulation.engine.scheduler.CompletionScheduler`
   writes the lanes of the cores invalidated since the last event from
   their rate entries (one per (phase record, allocation) pair of the run,
   built on first use -- no database lookups for unchanged cores or
   recurring pairs), and the step names the completing core and the span
   ``dt``;
2. every other active core advances by ``dt`` (stall served first, then
   instructions retire and charge energy at the lane rates);
3. the completing core retires its interval's remaining instructions
   exactly, records its counter snapshot and interval sample (both read
   from its rate entry), and moves to the next phase slice;
4. due scenario requests are applied at this boundary by the
   :class:`~repro.simulation.engine.tenancy.TenancyModel`;
5. unless this boundary changed the completing core's tenancy (the
   completed statistics would describe a departed app), the resource
   manager is invoked through the
   :class:`~repro.simulation.engine.bridge.ManagerBridge` and the
   allocations it returns -- for the coordinated managers, only the
   cores their reduction's walk rewrote -- are applied with transition
   overheads, each evaluated once per distinct (old, new) allocation
   pair of the run (:func:`~repro.simulation.overheads.transition_cost`
   is pure).

Accounting is bit-identical to ``tests/oracles/legacy_sim.py``, the
frozen pre-refactor reference; the golden equivalence suite enforces it.

The per-event hot path is one fused step over the struct-of-arrays core
state (:class:`~repro.simulation.engine.core_state.CoreArrays`), the same
at every core count: after the scheduler refreshes the rate entries of
the cores invalidated since the last event, steps 1 and 2 and the retire
of step 3 are one call into the compiled library
(``CoreArrays.step``: a padded argmin, then one advance of every active
lane -- the completing core included, whose energy and stall the retire
then overwrites); that call is the step's one implementation, so a
working C compiler is required.  Its lane arithmetic is the scalar
reference step's (``tests/oracles/engine_step.py``) operation for
operation.  Per-event
bookkeeping that used to scan every core (the all-idle check, the
every-core-finished check) reads counters maintained incrementally by the
tenancy model and the completion bookkeeping, and the way-budget audit of
:meth:`SimulationKernel._apply` runs off a cached total updated by deltas
-- the fixed per-event Python cost is independent of the core count.
Scenario tenancy changes reach managers through per-core
:meth:`~repro.core.managers.ResourceManager.on_scenario_event` calls; the
coordinated managers re-install only the reduction leaves those calls and
the invoking core touched, so a swap or departure splices only that
leaf's ``O(log)`` path.
"""

from __future__ import annotations

import os
import time

from repro.config import Allocation, SystemConfig
from repro.core.managers import ResourceManager
from repro.scenarios.events import Scenario
from repro.simulation.database import SimulationDatabase
from repro.simulation.engine.bridge import ManagerBridge
from repro.simulation.engine.core_state import CoreArrays, CoreRun
from repro.simulation.engine.scheduler import CompletionScheduler
from repro.simulation.engine.tenancy import TenancyModel
from repro.simulation.metrics import AppResult, IntervalSamples, RunResult
from repro.simulation.overheads import TransitionCost, transition_cost
from repro.util.validation import require
from repro.workloads.mixes import Workload

__all__ = ["SimulationKernel", "MAX_EVENTS"]

#: Hard cap on simulated events (runaway-manager guard).
MAX_EVENTS = 1_000_000

#: Debug mode: recount every core's ways from scratch after each manager
#: reallocation and assert it matches the delta-maintained total (set the
#: REPRO_WAYS_AUDIT environment variable, or monkeypatch in tests).
_WAYS_AUDIT = os.environ.get("REPRO_WAYS_AUDIT", "") not in ("", "0")


class SimulationKernel:
    """Drives one workload under one resource manager."""

    def __init__(
        self,
        system: SystemConfig,
        db: SimulationDatabase,
        workload: Workload,
        manager: ResourceManager,
        max_slices: int | None = None,
        scenario: Scenario | None = None,
    ) -> None:
        require(workload.ncores == system.ncores, "workload size must match core count")
        for app in workload.apps:
            require(app in db.records, f"database has no benchmark {app!r}")
        if scenario is not None:
            require(
                scenario.workload == workload,
                "scenario workload must match the workload being simulated",
            )
            for ev in scenario.events:
                if ev.kind == "swap":
                    require(
                        ev.app in db.records,
                        f"database has no benchmark {ev.app!r} (scenario event)",
                    )
        self.system = system
        self.db = db
        self.workload = workload
        self.manager = manager
        self.scenario = scenario
        self.max_slices = max_slices
        base = system.baseline_allocation()
        self.arrays = CoreArrays(system.ncores)
        self.cores: list[CoreRun] = []
        for j, app in enumerate(workload.apps):
            seq = db.phase_sequence(app)
            if max_slices is not None:
                seq = seq[:max_slices]
            active = scenario.active[j] if scenario is not None else True
            core = CoreRun(
                self.arrays,
                core_id=j,
                app=app,
                seq=seq,
                slack=workload.slack[j],
                alloc=base,
                active=active,
            )
            self.cores.append(core)
        self.scheduler = CompletionScheduler(system, db, self.cores, self.arrays)
        self.tenancy = TenancyModel(
            system, db, self.cores, self.scheduler, manager, scenario, max_slices
        )
        self.bridge = ManagerBridge(self)
        self.time_ns = 0.0
        self.total_intervals = 0
        # (core, phase_key, duration_ns, baseline_ns, slack) rows; run()
        # packs them into columns once and keeps only the columns.
        self.interval_samples: list[tuple] | IntervalSamples = []
        # Cores that have completed their first trace round, maintained in
        # _complete_interval so _finished() is O(1) at any core count.
        self._first_rounds_done = 0
        # Sum of every core's allocated ways, maintained by deltas in
        # _apply so the per-reallocation way-budget audit needs no O(N)
        # recount (debug mode recounts and asserts, see _WAYS_AUDIT).
        self._ways_total = sum(c.alloc.ways for c in self.cores)
        # transition_cost is pure in (system, old, new): one evaluation per
        # distinct (old, new) pair of the run, keyed by content.
        self._transitions: dict[tuple[Allocation, Allocation], TransitionCost] = {}
        #: Global events simulated by the last run() (replay throughput
        #: denominator for the scaling benchmarks).
        self.events_simulated = 0

    # ---- internals -----------------------------------------------------------
    def _complete_interval(self, core: CoreRun) -> None:
        entry = self.scheduler.entry(core.core_id)
        core.instr_done = 0.0
        core.intervals += 1
        core.last_record = entry.rec
        core.last_snapshot = entry.observe(self.system)

        if self.scenario is not None or core.rounds == 0:
            duration = self.time_ns - core.interval_start_ns
            # Baseline interval time under *this* system's QoS anchor (the
            # anchor may differ from the database's nominal, e.g. in the
            # baseline-VF sensitivity experiment); held by the rate entry.
            self.interval_samples.append(
                (core.core_id, core.seq[core.slice_idx], duration, entry.baseline_ns, core.slack)
            )
        core.interval_start_ns = self.time_ns
        core.energy_interval_start_nj = core.energy_nj

        core.slice_idx += 1
        if core.slice_idx >= len(core.seq):
            if core.rounds == 0:
                # A scenario swap resets rounds without clearing the first
                # tenant's mark; count each core once, matching the
                # done-first-round predicate exactly.
                if core.first_round_time_ns is None:
                    self._first_rounds_done += 1
                core.first_round_time_ns = self.time_ns
                core.first_round_energy_nj = core.energy_nj
            core.rounds += 1
            core.slice_idx = 0
        self.scheduler.invalidate(core.core_id)

    def _apply(self, allocations: dict[int, Allocation]) -> None:
        system = self.system
        cores = self.cores
        # One scan finds the entries that differ from the current setting
        # (the coordinated managers return only the cores their walk
        # rewrote, as identity-cached Allocation objects, so an unchanged
        # core fails the `is not` probe) and audits the way budget off the
        # maintained total plus their deltas: no per-core recount, a map of
        # any subset of the cores is checked against the whole LLC, and
        # (like the reference) the check fires before any allocation is
        # mutated.  Entries equal in value but not identity contribute a
        # zero delta either way.
        total = self._ways_total
        changed: list[tuple[int, Allocation]] = []
        for j, new in allocations.items():
            cur = cores[j].alloc
            if new is cur or new == cur:
                continue
            total += new.ways - cur.ways
            changed.append((j, new))
        require(
            total == system.llc.ways,
            f"manager allocated {total} ways, LLC has {system.llc.ways}",
        )
        costs = self._transitions
        for j, new in changed:
            core = cores[j]
            # Reconfiguring an idle (power-gated) core is free: there is
            # nothing to stall and nothing executing to charge.
            if core.active:
                old = core.alloc
                cost = costs.get((old, new))
                if cost is None:
                    cost = costs[old, new] = transition_cost(system, old, new)
                core.pending_stall_ns += cost.stall_ns
                core.energy_nj += cost.energy_nj
            core.alloc = new
            self.scheduler.invalidate(j)
        self._ways_total = total
        if _WAYS_AUDIT:
            recount = sum(c.alloc.ways for c in cores)
            assert recount == self._ways_total, (
                f"way-budget audit drift: recount {recount} != "
                f"maintained total {self._ways_total}"
            )

    def _step(self) -> tuple[int, float]:
        """Advance the system to the next interval completion: ``(j, dt)``.

        Refreshes the stale active rate entries, then makes one
        :meth:`CoreArrays.step <repro.simulation.engine.core_state.CoreArrays.step>`:
        every active core advances by ``dt``, and the completing core
        ``j`` instead retires its interval's remaining instructions
        exactly and charges their energy directly.
        """
        self.scheduler.refresh_stale()
        return self.arrays.step(self.system.interval_instructions)

    def _finished(self) -> bool:
        """Whether the run reached its horizon (scenario) or first rounds."""
        if self.scenario is not None:
            return self.total_intervals >= self.scenario.horizon_intervals
        return self._first_rounds_done >= len(self.cores)

    def run(self) -> RunResult:
        """Drive the event loop to completion and score the run."""
        t0 = time.perf_counter()
        self.manager.attach(self.bridge)
        tenancy = self.tenancy
        cores = self.cores
        step = self._step
        events = 0
        cap = MAX_EVENTS
        while not self._finished():
            events += 1
            if events > cap:
                raise ValueError("event cap exceeded (manager thrashing?)")
            if self.scenario is not None and tenancy.n_active == 0:
                # Every core idles: jump to the next pending request (which
                # must exist, or the scenario can never reach its horizon).
                head = tenancy.next_pending_ns()
                require(head != float("inf"), "all cores idle with no pending scenario events")
                self.time_ns = max(self.time_ns, head)
                tenancy.apply_due(self.time_ns, completed_core=None)
                continue
            j, dt = step()
            self.time_ns += dt
            core = cores[j]
            self._complete_interval(core)
            self.total_intervals += 1
            invoke_manager = True
            if self.scenario is not None:
                # If this boundary swapped or departed the tenant, the
                # completed-interval statistics belong to the departed app;
                # skip the invocation rather than optimise for a ghost.
                invoke_manager = not tenancy.apply_due(self.time_ns, completed_core=j)
            if invoke_manager:
                new_allocs = self.manager.on_interval(j)
                if new_allocs:
                    self._apply(new_allocs)
        self.events_simulated = events

        if self.scenario is not None:
            # Score completed intervals only: energy accrued by in-flight
            # partial intervals at the horizon differs between managers and
            # would bias the equal-work comparison.
            apps = [
                AppResult(
                    app=c.app,
                    core=c.core_id,
                    time_ns=self.time_ns,
                    energy_nj=c.energy_interval_start_nj,
                    intervals=c.intervals,
                    slack=c.slack,
                )
                for c in cores
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
                for c in cores
            ]
            run_name = self.workload.name
        self.interval_samples = IntervalSamples(self.interval_samples)
        return RunResult(
            workload=run_name,
            manager=self.manager.name,
            apps=apps,
            interval_samples=self.interval_samples,
            rma_invocations=self.manager.meter.invocations,
            rma_instructions=self.manager.meter.instructions,
            sim_wall_s=time.perf_counter() - t0,
        )
