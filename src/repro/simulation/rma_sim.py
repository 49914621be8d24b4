"""The event-driven RMA simulator (Figure 2.2 of the thesis) -- facade.

Replays the full multi-programmed execution of a workload against the
simulation-results database under the control of a resource manager:

* every core advances through its application's operational phase trace;
* the next *global event* is the earliest completion of a 100 M-instruction
  interval on any core;
* at the event, the RMA is invoked on that core; the new system-wide
  resource setting (if any) is applied to all cores with the corresponding
  transition overheads;
* the simulation runs until every application has executed at least one
  complete round; applications that finish early restart to keep resource
  pressure realistic, but are scored on their first round.

This replays thousands of 100 M-instruction intervals -- the paper's
"thousands of billions of instructions" -- in seconds, because all detailed
simulation happened once, up front, into the database.

The implementation lives in the layered kernel package
(:mod:`repro.simulation.engine`): per-core state, an incremental
next-completion scheduler, the tenancy/scenario component and the manager
bridge.  :class:`RMASimulator` is the stable public face over that kernel;
its accounting is bit-identical to the frozen pre-refactor reference
(``tests/oracles/legacy_sim.py``), as the golden equivalence suite
asserts.

**Dynamic scenarios.**  With a :class:`~repro.scenarios.events.Scenario`
attached, the simulator additionally applies the scenario's timed event
stream -- app swaps, departures (the core idles, power-gated) and QoS-slack
changes -- each at the target core's first interval boundary at or after the
event time (idle cores pick requests up at the next global event).  A
scenario run executes a fixed total number of intervals
(``horizon_intervals``) instead of one round per app, so different managers
simulate the same number of instructions and energy totals compare at equal
work.  Events fire at wall-clock times on each run's own timeline -- as in
a real open system, a slower run absorbs more of the arrival stream before
completing the same work, so event *exposure* may differ slightly between
managers (bounded by the QoS slack, which caps their relative slowdown).
Interval samples are collected for every interval.  The manager
is notified of tenancy changes (:meth:`ResourceManager.on_scenario_event`)
so it discards statistics and energy curves derived from departed tenants.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.managers import ResourceManager, StaticBaselineManager
from repro.scenarios.events import Scenario
from repro.simulation.database import SimulationDatabase
from repro.simulation.engine import MAX_EVENTS, SimulationKernel
from repro.simulation.metrics import RunResult
from repro.workloads.mixes import Workload

__all__ = ["RMASimulator", "simulate_workload", "simulate_scenario", "MAX_EVENTS"]

class RMASimulator(SimulationKernel):
    """Drives one workload under one resource manager.

    A thin facade over :class:`~repro.simulation.engine.SimulationKernel`
    that keeps the historical surface stable: construction signature, the
    ``run()`` entry point, the ``bridge`` managers read (a
    :class:`~repro.simulation.engine.bridge.ManagerBridge`) and the
    introspectable ``cores`` / ``time_ns`` / ``interval_samples`` state.
    """


def simulate_workload(
    system: SystemConfig,
    db: SimulationDatabase,
    workload: Workload,
    manager: ResourceManager | None = None,
    max_slices: int | None = None,
) -> RunResult:
    """Convenience wrapper: simulate one workload (baseline by default)."""
    mgr = manager if manager is not None else StaticBaselineManager()
    sim = RMASimulator(system, db, workload, mgr, max_slices=max_slices)
    return sim.run()


def simulate_scenario(
    system: SystemConfig,
    db: SimulationDatabase,
    scenario: Scenario,
    manager: ResourceManager | None = None,
    max_slices: int | None = None,
) -> RunResult:
    """Simulate one dynamic scenario to its interval horizon.

    The returned :class:`RunResult` scores exactly
    ``scenario.horizon_intervals`` *completed* intervals of work: per-core
    energies exclude whatever partial interval each core had in flight when
    the horizon hit (that residue differs between managers and would bias
    equal-work comparisons).  ``interval_samples`` cover every completed
    interval, so
    :func:`repro.simulation.metrics.interval_violation_stats` scores QoS
    under tenancy churn where whole-run app slowdowns are undefined.
    """
    mgr = manager if manager is not None else StaticBaselineManager()
    sim = RMASimulator(
        system, db, scenario.workload, mgr, max_slices=max_slices, scenario=scenario
    )
    return sim.run()
