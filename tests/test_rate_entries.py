"""The engine's per-run memos serve exactly what the database and the
overhead model would compute afresh.

The :class:`~repro.simulation.engine.scheduler.CompletionScheduler` keeps
one rate entry per (phase record, allocation) pair of a run, and the
kernel one transition cost per (old, new) allocation pair.  These tests
replay churn scenarios -- swaps, departures, idle gaps, slack ramps and
the manager's reallocations -- and check, at every event, every number
the engine reads from a memo against a fresh computation:

* every active lane's ``tpi``/``epi`` when the step reads them equals the
  current record's grid at the core's current allocation;
* every completed interval's counter snapshot equals the record's
  ``observe`` at the allocation it ran at, and its sample's QoS-anchor
  time equals ``interval_instructions * rec.tpi_at(baseline)``;
* every charged reconfiguration equals ``transition_cost(system, old,
  new)``, bit for bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import Allocation
from repro.core.managers import ResourceManager, rm2_combined
from repro.scenarios import Scenario, churn, cluster_churn, qos_ramp
from repro.simulation.database import SimulationDatabase
from repro.simulation.engine import kernel as engine_kernel
from repro.simulation.overheads import transition_cost
from repro.simulation.rma_sim import RMASimulator
from tests.conftest import TEST_BENCHMARKS


def _with_slack_ramp(sc: Scenario) -> Scenario:
    """``sc`` with a slack ramp on every core merged into its events."""
    ncores = sc.workload.ncores
    ramp = qos_ramp(f"{sc.name}-ramp", ncores, TEST_BENCHMARKS, 0.3, 0.0, steps=3,
                    horizon_intervals=sc.horizon_intervals)
    events = sorted(sc.events + ramp.events, key=lambda ev: ev.time_ns)
    return dataclasses.replace(sc, events=tuple(events))


def _s3(ncores: int, seed: int = 0) -> Scenario:
    """S3's shape: churn with idle gaps between tenants, plus a slack ramp."""
    return _with_slack_ramp(
        churn(f"s3-{ncores}-{seed}", ncores, TEST_BENCHMARKS, cycles=2 * ncores,
              idle_intervals=1.5, horizon_intervals=24 * ncores, seed=seed)
    )


def _s5(ncores: int, seed: int = 0) -> Scenario:
    """S5's shape: whole clusters drain and refill, plus a slack ramp."""
    return _with_slack_ramp(
        cluster_churn(f"s5-{ncores}-{seed}", ncores, TEST_BENCHMARKS, cluster_size=4,
                      cycles=max(4, ncores // 4), idle_intervals=1.5,
                      horizon_intervals=24 * ncores, seed=seed)
    )


class _Audit:
    """Checks a live simulator's memo reads against fresh computations."""

    def __init__(self, sim: RMASimulator) -> None:
        self.sim = sim
        self.refreshes = self.completions = self.samples = 0
        scheduler = sim.scheduler
        refresh = scheduler.refresh_stale
        complete = sim._complete_interval

        def audited_refresh():
            refresh()
            self.check_lanes()

        def audited_complete(core):
            self.check_completion(core, complete)

        scheduler.refresh_stale = audited_refresh
        sim._complete_interval = audited_complete

    def check_lanes(self) -> None:
        """Every active lane holds its current record's rates."""
        sim = self.sim
        self.refreshes += 1
        for core in sim.cores:
            if not core.active:
                continue
            j = core.core_id
            rec = sim.db.record(core.app, core.seq[core.slice_idx])
            assert sim.arrays.tpi[j] == rec.tpi_at(core.alloc), f"core {j}: stale tpi"
            assert sim.arrays.epi[j] == rec.epi_at(core.alloc), f"core {j}: stale epi"
            assert sim.scheduler.record(j) is rec, f"core {j}: stale record"

    def check_completion(self, core, complete) -> None:
        """The completed interval's snapshot and QoS-anchor time are fresh."""
        sim = self.sim
        rec = sim.db.record(core.app, core.seq[core.slice_idx])
        alloc = core.alloc
        nsamples = len(sim.interval_samples)
        complete(core)
        self.completions += 1
        assert core.last_record is rec
        assert core.last_snapshot == rec.observe(sim.system, alloc)
        if len(sim.interval_samples) > nsamples:
            self.samples += 1
            baseline = sim.system.baseline_allocation()
            want = sim.system.interval_instructions * rec.tpi_at(baseline)
            assert sim.interval_samples[-1][3] == want


def _audited_run(system, db, scenario, manager):
    sim = RMASimulator(system, db, scenario.workload, manager, max_slices=6, scenario=scenario)
    audit = _Audit(sim)
    run = sim.run()
    assert audit.refreshes == sim.events_simulated
    assert audit.completions == audit.samples == sim.total_intervals
    return sim, run


@pytest.mark.parametrize("shape", [_s3, _s5])
def test_rate_entries_are_never_stale_at_8_cores(system8, db8, shape):
    sc = shape(8)
    kinds = {ev.kind for ev in sc.events}
    assert kinds == {"swap", "depart", "slack"}
    sim, _ = _audited_run(system8, db8, sc, rm2_combined())
    # The replay reallocated, and the entries are fewer than the lane refreshes.
    assert sim._transitions
    assert len(sim.scheduler._entries) < sim.events_simulated


@pytest.mark.parametrize("shape", [_s3, _s5])
def test_rate_entries_are_never_stale_at_16_cores(system16, db16, shape):
    sc = shape(16, seed=1)
    sim, _ = _audited_run(system16, db16, sc, rm2_combined(cluster_size=8))
    assert sim._transitions


def _regridded(db: SimulationDatabase) -> SimulationDatabase:
    """A database with ``db``'s (bench, phase_key) identities and traces but
    different rate grids (every tpi and epi scaled)."""
    records = {
        bench: {
            key: dataclasses.replace(rec, tpi=rec.tpi * 1.25, epi=rec.epi * 0.75)
            for key, rec in recs.items()
        }
        for bench, recs in db.records.items()
    }
    return dataclasses.replace(db, records=records)


def test_two_databases_with_shared_identities_share_no_entries(system8, db8):
    """The memo is per run: a replay on a database whose records carry the
    same (bench, phase_key) identities as an earlier replay's, but other
    grids, reads its own database's rates."""
    other = _regridded(db8)
    sc = _s3(8, seed=2)
    first, run_a = _audited_run(system8, db8, sc, rm2_combined())
    second, run_b = _audited_run(system8, other, sc, rm2_combined())
    shared = first.scheduler._entries.keys() & second.scheduler._entries.keys()
    assert shared  # the same (bench, phase_key, alloc) keys ...
    for key in shared:  # ... hold each database's own numbers
        a, b = first.scheduler._entries[key], second.scheduler._entries[key]
        assert a.rec is db8.record(*key[:2]) and b.rec is other.record(*key[:2])
        assert (b.tpi, b.epi) == (a.tpi * 1.25, a.epi * 0.75)
    assert run_a.apps != run_b.apps


class _Alternating(ResourceManager):
    """Moves one way between cores 0 and 1 and toggles core 0's VF on every
    decision, so the run charges the same two (old, new) pairs per core
    over and over."""

    name = "alternating"

    def attach(self, sim) -> None:
        super().attach(sim)
        self.flip = False

    def on_interval(self, core_id: int) -> dict[int, Allocation]:
        base = self.sim.system.baseline_allocation()
        self.flip = not self.flip
        d = 1 if self.flip else 0
        return {
            0: Allocation(core=base.core, freq=base.freq - d, ways=base.ways + d),
            1: Allocation(core=base.core, freq=base.freq, ways=base.ways - d),
        }


def test_charged_transitions_equal_transition_cost(system8, db8, monkeypatch):
    sim = RMASimulator(system8, db8, _s3(8).workload, _Alternating(), max_slices=6)
    evaluated = []
    cost = engine_kernel.transition_cost

    def counted(system, old, new):
        evaluated.append((old, new))
        return cost(system, old, new)

    monkeypatch.setattr(engine_kernel, "transition_cost", counted)
    apply = sim._apply
    charged = 0

    def audited_apply(allocations):
        nonlocal charged
        before = [(c.alloc, c.pending_stall_ns, c.energy_nj) for c in sim.cores]
        apply(allocations)
        for core, (old, stall, energy) in zip(sim.cores, before):
            if core.alloc == old:
                assert (core.pending_stall_ns, core.energy_nj) == (stall, energy)
                continue
            want = transition_cost(system8, old, core.alloc)
            assert core.pending_stall_ns == stall + want.stall_ns
            assert core.energy_nj == energy + want.energy_nj
            charged += 1

    sim._apply = audited_apply
    sim.run()
    # Two cores, two directions: four distinct pairs, each evaluated once.
    assert len(evaluated) == len(set(evaluated)) == 4
    assert charged > 4 * 10
