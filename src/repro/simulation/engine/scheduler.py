"""Incremental next-completion scheduler over per-run rate entries.

The reference loop re-derived every core's remaining interval time from the
database on every event: two dict lookups plus two NumPy grid indexings per
core per event (`db.record(app, key)`, ``rec.tpi_at(alloc)``,
``rec.epi_at(alloc)``), repeated millions of times over a long scenario
horizon.  Those lookups only ever change when a core's *allocation*,
*tenancy* (swap/depart/activation) or *phase slice* changes -- a handful of
times per interval, not per event.  And what they read is a pure function
of the (phase record, allocation) pair, which recurs: a pass over the
8-core paper workload refreshes lanes ~87k times over ~1.1k distinct pairs.

:class:`CompletionScheduler` therefore keeps one :class:`RateEntry` per
(phase record, allocation) pair for the whole run -- keyed by content,
``(bench, phase_key, alloc)``, built on first use -- holding the pair's
``tpi``, ``epi``, the phase's interval time at the QoS anchor and, once
first asked for, its counter snapshot.  Each core points at the entry of its
current slice and allocation; :meth:`invalidate` records the core in a
stale set when its alloc, tenancy or slice changed.  The tpi/epi values
live in the shared
:class:`~repro.simulation.engine.core_state.CoreArrays` lane buffer, so
before each event the kernel calls :meth:`refresh_stale` -- one loop over
the handful of cores invalidated since the previous event, each active
one's lane written straight from its entry -- and then one
:meth:`CoreArrays.step
<repro.simulation.engine.core_state.CoreArrays.step>`, a call into the
compiled library, finds the completion as the first minimum of
``(interval_instructions - instr_done) * tpi + pending_stall_ns +
idle_pad`` and advances every core.  The remaining-time formula and the
first-minimum tie-break reproduce the scalar reference arithmetic exactly
(``tests/oracles/engine_step.py``), and an entry's values are the very
floats the database reads return, so replay results are bit-identical --
the entries and the fused step remove lookup and interpreter work, never
change values.
"""

from __future__ import annotations

from repro.simulation.database import PhaseRecord, SimulationDatabase
from repro.simulation.engine.core_state import CoreArrays, CoreRun

__all__ = ["CompletionScheduler", "RateEntry"]


class RateEntry:
    """What the engine reads of one (phase record, allocation) pair.

    ``tpi``/``epi`` are the record's grids at the allocation and
    ``baseline_ns`` the phase's interval time at the system's QoS anchor;
    :meth:`observe` builds the counter snapshot at the allocation on first
    use.  Every field is a pure function of the pair and the run's system.
    """

    __slots__ = ("rec", "alloc", "tpi", "epi", "baseline_ns", "_snapshot")

    def __init__(self, rec: PhaseRecord, alloc, baseline_ns: float) -> None:
        self.rec = rec
        self.alloc = alloc
        self.tpi = rec.tpi_at(alloc)
        self.epi = rec.epi_at(alloc)
        self.baseline_ns = baseline_ns
        self._snapshot = None

    def observe(self, system):
        """Counter snapshot of the phase at the allocation (built once).

        :func:`repro.cpu.counters.observe_counters` is deterministic (its
        calibration bias is seeded from the phase identity), so the
        snapshot built on first use is the one every later call returns.
        """
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = self.rec.observe(system, self.alloc)
        return snap


class CompletionScheduler:
    """Per-core rate entries with incremental invalidation."""

    def __init__(
        self,
        system,
        db: SimulationDatabase,
        cores: list[CoreRun],
        arrays: CoreArrays,
    ) -> None:
        self.system = system
        self.db = db
        self.cores = cores
        self.arrays = arrays
        n = len(cores)
        # Each core's current entry (meaningful while the core is not stale).
        self._entry: list[RateEntry | None] = [None] * n
        # Cores whose current entry is out of date (every core to begin with).
        self._stale: set[int] = set(range(n))
        # The QoS anchor is immutable per system.
        self._baseline_alloc = system.baseline_allocation()
        # The run's entries, keyed by (bench, phase_key, alloc).
        self._entries: dict[tuple, RateEntry] = {}

    # ---- entries -------------------------------------------------------------
    def _new_entry(self, key: tuple) -> RateEntry:
        """Build and keep the entry of ``key = (bench, phase_key, alloc)``."""
        bench, phase_key, alloc = key
        rec = self.db.record(bench, phase_key)
        base_ns = self.system.interval_instructions * rec.tpi_at(self._baseline_alloc)
        entry = self._entries[key] = RateEntry(rec, alloc, base_ns)
        return entry

    # ---- cache maintenance --------------------------------------------------
    def invalidate(self, core_id: int) -> None:
        """Mark the core's entry out of date: its alloc, tenancy or slice changed."""
        self._stale.add(core_id)

    def _refresh(self, core_id: int) -> RateEntry:
        """Point one core at its current entry and write its lane."""
        core = self.cores[core_id]
        key = (core.app, core.seq[core.slice_idx], core.alloc)
        entry = self._entries.get(key) or self._new_entry(key)
        self._entry[core_id] = entry
        self.arrays.tpi[core_id] = entry.tpi
        self.arrays.epi[core_id] = entry.epi
        self._stale.discard(core_id)
        return entry

    def refresh_stale(self) -> None:
        """Write every invalidated active lane from its entry (once per event).

        Exactly the set of cores the scalar reference would have lazily
        refreshed during its next-completion and advance walks; idle cores
        stay stale and untouched (the idle pad sends their lanes to ``inf``
        and the advance leaves them unchanged).
        """
        stale = self._stale
        if not stale:
            return
        arrays = self.arrays
        active, tpi, epi = arrays.active, arrays.tpi, arrays.epi
        cores, current, entries = self.cores, self._entry, self._entries
        self._stale = idle = set()
        for j in stale:
            if not active[j]:
                idle.add(j)
                continue
            core = cores[j]
            key = (core.app, core.seq[core.slice_idx], core.alloc)
            entry = entries.get(key) or self._new_entry(key)
            current[j] = entry
            tpi[j] = entry.tpi
            epi[j] = entry.epi

    # ---- current-entry views -----------------------------------------------
    def entry(self, core_id: int) -> RateEntry:
        """The entry of the core's current slice at its allocation."""
        if core_id in self._stale:
            return self._refresh(core_id)
        return self._entry[core_id]

    def record(self, core_id: int) -> PhaseRecord:
        """The record of the slice the core is currently executing."""
        return self.entry(core_id).rec

    def baseline_interval_ns(self, core_id: int) -> float:
        """Interval time of the core's current slice at the QoS anchor."""
        return self.entry(core_id).baseline_ns
