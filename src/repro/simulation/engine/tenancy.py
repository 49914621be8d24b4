"""Tenancy and scenario-event application.

Owns the per-core pending-event queues of a dynamic
:class:`~repro.scenarios.events.Scenario` and applies the requests --
``swap`` / ``depart`` / ``slack`` -- under the boundary discipline the
scenario engine documents: a busy core picks requests up only at its own
interval boundary; an idle core (which has no boundaries) picks them up at
any global event.

Every applied event invalidates the core's entry in the
:class:`~repro.simulation.engine.scheduler.CompletionScheduler`: swaps and
departures change tenancy, allocation-independent slack changes are
invalidated too so the cached view is never stale relative to the core
state (the recomputation is a no-op numerically).

Many-core scale: the model keeps an index of cores with *non-empty*
pending queues and a live count of active cores, so the per-event work of
:meth:`TenancyModel.apply_due` and the kernel's all-idle check is
proportional to the number of cores that still have scenario requests --
not to the system size.  Event application mutates core state through the
:class:`~repro.simulation.engine.core_state.CoreRun` views (boundary-rate
work), which keeps the struct-of-arrays vectors the hot path reads -- the
active mask, pending stall, retirement progress -- consistent without any
separate synchronisation step.  At 4 cores that is noise; at 256 cores the
previous every-core scans were a per-event tax on every manager.
Flat and hierarchical (clustered) managers receive the same per-core
``on_scenario_event`` notifications and mark the core's reduction leaf
for re-installation at their next decision.
"""

from __future__ import annotations

import math
from collections import deque

from repro.scenarios.events import Scenario, ScenarioEvent
from repro.simulation.engine.core_state import CoreRun
from repro.simulation.engine.scheduler import CompletionScheduler
from repro.simulation.overheads import WARMUP_MLP

__all__ = ["TenancyModel"]


class TenancyModel:
    """Pending scenario requests plus their application to core state."""

    def __init__(
        self,
        system,
        db,
        cores: list[CoreRun],
        scheduler: CompletionScheduler,
        manager,
        scenario: Scenario | None,
        max_slices: int | None,
    ) -> None:
        """Queue each core's scenario requests and index the non-empty queues."""
        self.system = system
        self.db = db
        self.cores = cores
        self.scheduler = scheduler
        self.manager = manager
        self.scenario = scenario
        self.max_slices = max_slices
        self.pending: list[deque[ScenarioEvent]] = [
            deque(scenario.events_for(j)) if scenario is not None else deque()
            for j in range(system.ncores)
        ]
        # Cores whose queues still hold requests, ascending; apply_due walks
        # only these instead of every core on every global event.
        self._pending_cores: list[int] = sorted(k for k, q in enumerate(self.pending) if q)
        self.n_active: int = int(scheduler.arrays.active.sum())
        # Earliest head-of-queue time over *idle* pending cores.  Idle cores
        # are the only ones whose requests any global event can apply, so
        # while ``now`` is below this mark the scan in :meth:`apply_due` can
        # only touch ``completed_core`` -- and a cheap head peek covers that.
        # Active/idle status only changes inside :meth:`apply_event`, i.e.
        # inside a scan, so the mark recomputed after each scan stays valid
        # between scans.  Start at ``-inf``: the first call always scans and
        # establishes the mark from live core state.
        self._idle_due_ns: float = -math.inf

    def next_pending_ns(self) -> float:
        """Earliest pending request time, ``inf`` if none remain."""
        heads = [self.pending[k][0].time_ns for k in self._pending_cores]
        return min(heads) if heads else math.inf

    def apply_event(self, core: CoreRun, ev: ScenarioEvent, now: float) -> None:
        """Apply one request to ``core`` at wall-clock ``now``."""
        if ev.kind == "slack":
            core.slack = float(ev.slack)
            self.scheduler.invalidate(core.core_id)
            return
        if ev.kind == "depart":
            if core.active:
                self.n_active -= 1
            core.active = False
            core.instr_done = 0.0
            core.pending_stall_ns = 0.0
            core.last_record = None
            core.last_snapshot = None
            self.scheduler.invalidate(core.core_id)
            self.manager.on_scenario_event(core.core_id, "depart")
            return
        # swap: the new tenant restarts its phase trace on this core.
        seq = self.db.phase_sequence(ev.app)
        if self.max_slices is not None:
            seq = seq[: self.max_slices]
        core.app = ev.app
        core.seq = seq
        core.slice_idx = 0
        core.instr_done = 0.0
        core.rounds = 0
        if not core.active:
            self.n_active += 1
        core.active = True
        core.interval_start_ns = now
        core.energy_interval_start_nj = core.energy_nj
        core.last_record = None
        core.last_snapshot = None
        # Cold-start: the incoming tenant warms its entire partition.
        misses = self.system.overheads.warmup_extra_misses(core.alloc.ways)
        core.pending_stall_ns += misses * self.system.mem.latency_ns / WARMUP_MLP
        core.energy_nj += misses * self.system.mem.energy_per_access_nj
        self.scheduler.invalidate(core.core_id)
        self.manager.on_scenario_event(core.core_id, "swap")

    def apply_due(self, now: float, completed_core: int | None) -> bool:
        """Apply every due request; True if ``completed_core`` changed tenancy.

        A busy core only picks up requests at its own interval boundary
        (``completed_core``); idle cores, which have no boundaries, pick
        theirs up at any global event.  Only cores with non-empty queues are
        visited, in ascending core order -- the same application order as a
        full scan, so replays stay bit-identical.
        """
        if now < self._idle_due_ns:
            # No idle core's head is due, and busy cores other than
            # ``completed_core`` never pick up requests here: the full scan
            # could only apply the completed core's head, so peek at it.
            q = self.pending[completed_core] if completed_core is not None else ()
            if not q or q[0].time_ns > now:
                return False
        tenancy_changed = False
        drained = False
        for k in self._pending_cores:
            queue = self.pending[k]
            core = self.cores[k]
            while queue and queue[0].time_ns <= now and (k == completed_core or not core.active):
                ev = queue.popleft()
                self.apply_event(core, ev, now)
                if k == completed_core and ev.kind in ("swap", "depart"):
                    tenancy_changed = True
            drained = drained or not queue
        if drained:
            self._pending_cores = [k for k in self._pending_cores if self.pending[k]]
        active = self.scheduler.arrays.active
        mark = math.inf
        for k in self._pending_cores:
            if not active[k]:
                t = self.pending[k][0].time_ns
                if t < mark:
                    mark = t
        self._idle_due_ns = mark
        return tenancy_changed
