"""The resource managers evaluated in the papers.

All managers share one engine (:class:`CoordinatedManager`): analytical
models -> QoS-pruned local optimisation -> global curve reduction.  The
papers' schemes are restrictions of its dimension set:

* ``rm1_partitioning_only`` -- LLC partitioning at fixed baseline VF/core
  (Paper I's "Partitioning RMA" / Paper II's RM1);
* ``rm2_combined`` -- per-core DVFS + LLC partitioning (Paper I's proposal,
  Paper II's RM2);
* ``rm3_core_adaptive`` -- core size + DVFS + LLC partitioning (Paper II's
  proposal, RM3);
* ``dvfs_only`` -- per-core DVFS at the fixed equal LLC split (the scheme
  the paper notes "cannot save energy without degrading the performance"
  under strict QoS);
* :class:`StaticBaselineManager` -- the QoS anchor: never reconfigures.

Realistic managers decide from the invoking core's last-interval counters and
sampled ATD readings, holding other cores' curves from their own last
invocations (exactly the paper's protocol, including keeping the baseline
setting until a core has statistics).  ``oracle=True`` gives every decision
error-free statistics for the *upcoming* interval of every core -- the
paper's "perfect models" configuration.

Every decision runs one pipeline: curve construction goes through
:mod:`repro.core.batch_opt`'s stacked ``(N, C, F, W)`` tensors, curves
are memoized in one table keyed on content alone (counter snapshot, ATD
miss curve, QoS slack) and shared by every core, and the global reduction
is a persistent
:class:`~repro.core.packed_tree.PackedReduction` into which each decision
re-installs only the leaves that can have changed (the invoking core's and
those of cores touched by scenario events) and which only re-combines the
root paths of leaves that actually changed.  A decision returns only
what the reduction's back-track walk rewrote: the walked cores'
allocations, or None when the walk did not run.  The recompute-everything
pipeline it replaced -- fresh curves and a from-scratch reduction on every
invocation -- is kept as an executable specification in
``tests/oracles/reference_manager.py``: ``tests/test_engine_equivalence.py``
replays both and compares with ``==`` on every number, including the
metered RMA overhead, and ``tools/bench_manager_overhead.py`` measures the
speedup against it.

For many-core systems (64-256 cores) the flat global reduction itself is
the scaling wall: the top combines of the min-plus tree widen with the full
LLC associativity, so every invocation pays a superlinear cost in the core
count.  The same manager's ``cluster_size`` adds a hierarchical tier to the
same reduction: cores are partitioned into contiguous clusters, each
cluster's combines are capped at its way budget, and a second-level stage
combines the per-cluster aggregate curves to redistribute LLC ways -- and
with them the power/slack headroom the QoS-pruned curves encode -- across
clusters.  The flat manager is the one-cluster plan; with many clusters
the manager trades a bounded energy gap (the cluster way caps) for
per-invocation work that scales with the cluster size instead of the
system size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.config import Allocation, SystemConfig
from repro.core.batch_opt import analytical_curves_batch, oracle_curves_batch
from repro.core.curves import EnergyCurve
from repro.core.global_opt import cluster_way_caps, partition_clusters
from repro.core.local_opt import DimSpec
from repro.core.models import MLP_MODELS
from repro.core.packed_tree import PackedReduction
from repro.core.overhead_meter import OverheadMeter

__all__ = [
    "ResourceManager",
    "StaticBaselineManager",
    "CoordinatedManager",
    "IndependentManager",
    "rm1_partitioning_only",
    "rm2_combined",
    "rm3_core_adaptive",
    "dvfs_only",
]


class ResourceManager(ABC):
    """Interface the RMA simulator drives.

    ``attach`` is called once per simulation run and must reset all run
    state; ``on_interval`` is called on the core that just completed an
    execution interval and returns the allocations to apply.
    """

    name: str = "manager"

    def __init__(self) -> None:
        self.meter = OverheadMeter()
        self.sim = None

    def attach(self, sim) -> None:
        """Bind the manager to a simulator run and reset its run state."""
        self.sim = sim
        self.meter = OverheadMeter()

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """The co-location set changed on ``core_id`` (scenario swap/depart).

        Managers holding per-core state derived from the departed tenant --
        energy curves, phase history, cache profiles -- must discard it here
        and re-derive from the new tenant's statistics.
        """
        return None

    @abstractmethod
    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """Decide new allocations after ``core_id`` finished an interval.

        Returns ``{core: allocation}`` for any subset of the cores -- every
        core left out keeps its current allocation, and an entry equal to
        the current one is a no-op -- or None to change nothing.  The
        settings after applying it must fill the LLC exactly.
        """


class StaticBaselineManager(ResourceManager):
    """The baseline: every core keeps the baseline allocation forever."""

    name = "baseline"

    def on_interval(self, core_id: int) -> None:
        """Never reconfigure: the QoS anchor holds the baseline setting."""
        return None


#: Curve-memo entries per manager before the table is dropped wholesale at
#: the start of a decision (phases x allocations x slack levels stays far
#: below this in practice).
MEMO_CAP = 8192


class CoordinatedManager(ResourceManager):
    """The paper's coordinated RMA engine (configurable dimensions).

    ``cluster_size`` partitions the cores into contiguous clusters whose
    reduction stages are capped at ``overprovision`` times their
    proportional LLC share (:func:`~repro.core.global_opt.cluster_way_caps`);
    a second-level stage over the cluster roots decides each cluster's
    ways, and one back-track walk yields every core's setting.  ``None``
    plans one cluster of every core capped at the full associativity --
    the flat reduction -- and so does any ``cluster_size >= ncores``, bit
    for bit (``tests/test_clustered.py``).
    """

    def __init__(
        self,
        name: str,
        control_dvfs: bool = True,
        control_core_size: bool = False,
        control_partitioning: bool = True,
        mlp_model: str = "model2",
        oracle: bool = False,
        cluster_size: int | None = None,
        overprovision: float = 2.0,
    ) -> None:
        super().__init__()
        self.name = name
        self.control_dvfs = control_dvfs
        self.control_core_size = control_core_size
        self.control_partitioning = control_partitioning
        self.model = MLP_MODELS[mlp_model]
        self.oracle = oracle
        self.cluster_size = None if cluster_size is None else int(cluster_size)
        self.overprovision = float(overprovision)
        self._clusters: tuple[tuple[int, ...], ...] = ()
        self.curves: dict[int, EnergyCurve] = {}
        self._tree: PackedReduction | None = None
        self._memo: dict = {}
        self._pinned_leaf: EnergyCurve | None = None
        self._idle_leaf: EnergyCurve | None = None
        self._alloc_cache: dict[tuple[int, int, int], Allocation] = {}
        self._rec_digests: dict[tuple, tuple[bytes, bytes]] = {}
        # The invoking core's last (snapshot, record, slack, curve, grid
        # points): a repeat of the same objects is served without a key.
        self._repeat: dict[int, tuple] = {}
        self._dimspec: DimSpec | None = None
        # Leaf slots whose installed curve may be out of date: the invoking
        # core and every core a scenario event touched (see _install_leaves).
        self._stale_leaves: set[int] = set()

    def attach(self, sim) -> None:
        """Reset all run state and (re)build the persistent reduction."""
        super().attach(sim)
        system = sim.system
        self.curves = {}
        self._memo = {}
        # Run constants, one object each for every slot, so the reduction's
        # identity check recognises an unchanged leaf: the baseline-pinned
        # leaf of a core without statistics yet, and the idle leaf of a
        # power-gated core, which releases all but the minimum ways (idle
        # tenancy is the one case where shrinking a partition is free, so
        # the global optimiser hands the freed capacity to active tenants).
        base = system.baseline_allocation()
        self._pinned_leaf = EnergyCurve.pinned(
            ways=base.ways, core_idx=base.core, freq_idx=base.freq, max_ways=system.llc.ways,
        )
        self._idle_leaf = EnergyCurve.pinned(
            ways=system.min_ways_per_core, core_idx=system.baseline_core_index,
            freq_idx=system.baseline_freq_index, max_ways=system.llc.ways,
        )
        self._alloc_cache = {}
        # Per-run: a reattached manager may face a different database whose
        # records reuse the same (bench, phase) identities.
        self._rec_digests = {}
        self._repeat = {}
        self._dimspec = self._dims(system)
        self._init_trees(system)
        self._stale_leaves = set(range(system.ncores))

    def _init_trees(self, system: SystemConfig) -> None:
        """Plan the persistent reduction: one capped stage per cluster plus
        the second level, in one :class:`PackedReduction`.

        Clusters are contiguous blocks in core order, so leaf slot ``j``
        holds core ``j``'s curve.
        """
        ways, min_ways = system.llc.ways, system.min_ways_per_core
        size = system.ncores if self.cluster_size is None else self.cluster_size
        self._clusters = partition_clusters(system.ncores, size)
        caps = cluster_way_caps(ways, system.ncores, self._clusters, min_ways, self.overprovision)
        self._tree = PackedReduction(
            tuple(len(members) for members in self._clusters), caps, ways, min_ways,
        )

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Drop the departed tenant's curve and splice the reduction leaf.

        The cached curve models the departed tenant; the new one (or the
        idle core) is pinned until fresh statistics arrive.  The reduction's
        leaf is spliced (forced dirty) so the next solve re-combines its
        root path even if the replacement curve compares equal, and marked
        for re-installation by the next decision.
        """
        self.curves.pop(core_id, None)
        self._repeat.pop(core_id, None)
        self._tree.invalidate(core_id)
        self._stale_leaves.add(core_id)

    # -- dimension restrictions ---------------------------------------------
    def _dims(self, system: SystemConfig) -> DimSpec:
        cores = None if self.control_core_size else (system.baseline_core_index,)
        freqs = None if self.control_dvfs else (system.baseline_freq_index,)
        pin = None if self.control_partitioning else system.baseline_ways
        return DimSpec(core_indices=cores, freq_indices=freqs, pin_ways=pin)

    # -- curve construction ---------------------------------------------------
    def _analytical_curve(self, core_id: int) -> EnergyCurve:
        """The invoking core's curve: the batched model chain, batch of one."""
        sim, system = self.sim, self.sim.system
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)
        return analytical_curves_batch(
            system, self.model, [snap], [rec.mpki_sampled],
            [rec.mlp_sampled], [sim.slack(core_id)], self._dimspec, self.meter,
        )[0]

    def _analytical_curve_memo(self, core_id: int) -> EnergyCurve:
        """Memoized `_analytical_curve`: phase-stable cores skip recomputation.

        The curve is a pure function of (counter snapshot, sampled ATD
        curves, QoS slack) for a fixed manager, so the content key fully
        determines it and a hit can never be stale: any QoS-ramp, swap or
        allocation change alters the key.  The table is shared by every
        core (many-core scenario mixes run the same phases at the same
        settings on many cores), so cores with equal content hold the same
        curve object.  Hits replay the modelled grid cost, so the metered
        overhead matches recomputing.  In front of the table, a per-core
        repeat check: when the core's completed snapshot and record are the
        very objects of its last call and the slack is equal, the key is not
        even built -- the held curve is returned with the same replayed grid
        cost.
        """
        sim = self.sim
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)
        slack = sim.slack(core_id)
        last = self._repeat.get(core_id)
        if last is not None and last[0] is snap and last[1] is rec and last[2] == slack:
            self.meter.charge_replay(grid_points=last[4])
            return last[3]
        curve, points = self._curve_by_content(core_id, snap, rec, slack)
        self._repeat[core_id] = (snap, rec, slack, curve, points)
        return curve

    def _curve_by_content(self, core_id: int, snap, rec, slack: float) -> tuple:
        """The content-keyed memo behind the repeat check: ``(curve, grid
        points)``, charging the grid points a hit replays."""
        # Database records are immutable, so their sampled-curve digests are
        # computed once per phase and reused (the key stays content-based:
        # the bytes themselves go into it, not the phase identity).
        digests = self._rec_digests.get((rec.bench, rec.phase_key))
        if digests is None:
            digests = (
                np.asarray(rec.mpki_sampled).tobytes(),
                np.asarray(rec.mlp_sampled).tobytes(),
            )
            self._rec_digests[(rec.bench, rec.phase_key)] = digests
        key = (snap, digests[0], digests[1], slack)
        hit = self._memo.get(key)
        if hit is not None:
            self.meter.charge_replay(grid_points=hit[1])
            return hit
        before = self.meter.grid_points
        curve = self._analytical_curve(core_id)
        hit = self._memo[key] = (curve, self.meter.grid_points - before)
        return hit

    def _oracle_leaves(self) -> dict[int, EnergyCurve]:
        """Oracle curves for every active core: memo hits plus one batched
        pass over the misses (stacked grids, one ``oracle_curves_batch``).

        Cores that miss on the same key build its content once: the later
        ones share the curve and replay its grid points, like a hit.
        """
        sim, system = self.sim, self.sim.system
        ids = sim.active_core_ids()
        recs = sim.upcoming_records(ids)
        leaves: dict[int, EnergyCurve] = {}
        misses: dict[tuple, list[int]] = {}
        miss_recs: list = []
        miss_slacks: list[float] = []
        for j, rec in zip(ids, recs):
            slack = sim.slack(j)
            key = ("oracle", rec.bench, rec.phase_key, slack)
            hit = self._memo.get(key)
            if hit is not None:
                leaves[j] = hit[0]
                self.meter.charge_replay(grid_points=hit[1])
            elif key in misses:
                misses[key].append(j)
            else:
                misses[key] = [j]
                miss_recs.append(rec)
                miss_slacks.append(slack)
        if misses:
            before = self.meter.grid_points
            curves = oracle_curves_batch(
                system, miss_recs, miss_slacks, self._dimspec, self.meter,
            )
            points = (self.meter.grid_points - before) // len(misses)
            for (key, cores), curve in zip(misses.items(), curves):
                self._memo[key] = (curve, points)
                for j in cores:
                    leaves[j] = curve
                if len(cores) > 1:
                    self.meter.charge_replay(grid_points=points * (len(cores) - 1))
        return leaves

    # -- the decision ----------------------------------------------------------
    def _leaf(self, core_id: int, oracle_leaves) -> EnergyCurve:
        """The reduction leaf for ``core_id`` this invocation.

        One selection rule for the flat and clustered managers: the oracle
        curve (or the idle leaf) when running with perfect models,
        otherwise the idle leaf for a power-gated core, the held analytical
        curve, or the baseline-pinned leaf for a core without statistics
        yet.
        """
        if oracle_leaves is not None:
            curve = oracle_leaves.get(core_id)
        elif self.sim.is_active(core_id):
            curve = self.curves.get(core_id)
            if curve is None:
                return self._pinned_leaf
        else:
            curve = None
        return curve if curve is not None else self._idle_leaf

    def _begin_decision(self, core_id: int) -> dict[int, EnergyCurve] | None:
        """Shared invocation prologue: meter, memo cap, curve refresh,
        oracle leaves."""
        self.meter.begin_invocation()
        if len(self._memo) >= MEMO_CAP:
            self._memo.clear()
        if self.oracle:
            return self._oracle_leaves()
        self.curves[core_id] = self._analytical_curve_memo(core_id)
        return None

    def _to_allocations(self, changes) -> dict[int, Allocation] | None:
        """Translate the reduction's change set into allocations to apply.

        ``changes`` is :meth:`PackedReduction.solve
        <repro.core.packed_tree.PackedReduction.solve>`'s walked
        ``(leaf slot, (c, f, w))`` pairs, and slot ``j`` is core ``j``;
        an infeasible (None) or unchanged (``[]``) solve applies nothing.
        Allocation objects are cached per setting, so a walked core whose
        setting did not move hands the kernel the very object it holds
        (after its first decision), which its apply loop skips on identity
        alone.
        """
        if not changes:
            return None
        cache = self._alloc_cache
        out: dict[int, Allocation] = {}
        for j, setting in changes:
            alloc = cache.get(setting)
            if alloc is None:
                c, f, w = setting
                alloc = cache[setting] = Allocation(core=c, freq=f, ways=w)
            out[j] = alloc
        return out

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """Decide new allocations after ``core_id`` finished an interval."""
        oracle_leaves = self._begin_decision(core_id)
        tree = self._tree
        # A repeat has nothing to install: no stale leaf, and the invoking
        # core's leaf already holds its curve (the object itself).
        if (
            oracle_leaves is not None
            or self._stale_leaves
            or not tree.holds(core_id, self.curves[core_id])
        ):
            self._install_leaves(core_id, oracle_leaves)
        return self._to_allocations(tree.solve(self.meter))

    def _install_leaves(self, core_id: int, oracle_leaves) -> None:
        """Install the leaves that can have changed since the last decision.

        A leaf is a pure function of the held/oracle curve and the core's
        activity; outside oracle mode both change only at the invoking core
        (:meth:`_begin_decision`) or through :meth:`on_scenario_event`, so
        only those slots are re-installed.  Oracle curves move with every
        phase boundary, so oracle mode installs every leaf.  Installation
        is identity- and value-checked, so an unchanged curve stays clean.
        """
        leaf = self._leaf
        stale = self._stale_leaves
        if oracle_leaves is not None:
            self._tree.set_leaves(
                [leaf(j, oracle_leaves) for j in range(self.sim.system.ncores)]
            )
        else:
            stale.add(core_id)
            set_leaf = self._tree.set_leaf
            for j in stale:
                set_leaf(j, leaf(j, None))
        stale.clear()


def _variant_name(name: str, cluster_size: int | None) -> str:
    """A factory's manager name: ``<name>``, or ``<name>-c<size>`` when clustered."""
    return name if cluster_size is None else f"{name}-c{cluster_size}"


def rm1_partitioning_only(
    oracle: bool = False,
    mlp_model: str = "model2",
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """RM1: LLC partitioning only, at baseline VF and core size."""
    return CoordinatedManager(
        _variant_name("rm1-partitioning", cluster_size), control_dvfs=False,
        mlp_model=mlp_model, oracle=oracle,
        cluster_size=cluster_size, overprovision=overprovision,
    )


def rm2_combined(
    oracle: bool = False,
    mlp_model: str = "model2",
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """RM2: coordinated per-core DVFS + LLC partitioning (Paper I)."""
    return CoordinatedManager(
        _variant_name("rm2-combined", cluster_size),
        mlp_model=mlp_model, oracle=oracle,
        cluster_size=cluster_size, overprovision=overprovision,
    )


def rm3_core_adaptive(
    oracle: bool = False,
    mlp_model: str = "model3",
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """RM3: core size + DVFS + LLC partitioning (Paper II)."""
    return CoordinatedManager(
        _variant_name("rm3-core-adaptive", cluster_size), control_core_size=True,
        mlp_model=mlp_model, oracle=oracle,
        cluster_size=cluster_size, overprovision=overprovision,
    )


def dvfs_only(
    oracle: bool = False,
    mlp_model: str = "model2",
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """Per-core DVFS at the fixed equal LLC split (ablation)."""
    return CoordinatedManager(
        _variant_name("dvfs-only", cluster_size), control_partitioning=False,
        mlp_model=mlp_model, oracle=oracle,
        cluster_size=cluster_size, overprovision=overprovision,
    )


class IndependentManager(ResourceManager):
    """Uncoordinated controllers: UCP cache partitioning + per-core DVFS.

    The strawman the paper argues against (thesis §3.1): the cache controller
    partitions to *minimise total misses* (Qureshi-Patt UCP) with no notion of
    per-application QoS; a separate DVFS controller then tries to hold each
    core's QoS at whatever allocation it was handed.  When UCP strips a
    cache-sensitive application of its ways, no frequency can recover the lost
    performance (the memory term is frequency-independent) and the QoS
    constraint is violated -- the precise failure mode that motivates
    coordinated management.
    """

    name = "independent-ucp-dvfs"

    def __init__(self, mlp_model: str = "model2") -> None:
        super().__init__()
        self.model = MLP_MODELS[mlp_model]
        self.hit_curves: dict[int, object] = {}
        self.snapshots: dict[int, object] = {}
        self._dims: DimSpec | None = None

    def attach(self, sim) -> None:
        """Reset the per-core UCP profiles for a fresh run."""
        super().attach(sim)
        self.hit_curves = {}
        self.snapshots = {}
        self._dims = DimSpec(core_indices=(sim.system.baseline_core_index,))

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Forget the departed tenant's hit curve and counter snapshot."""
        self.hit_curves.pop(core_id, None)
        self.snapshots.pop(core_id, None)

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """UCP partitioning for misses, then per-core DVFS to hold QoS."""
        from repro.cache.ucp import ucp_lookahead

        sim, system = self.sim, self.sim.system
        self.meter.begin_invocation()
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)
        # per-way hits/kilo-instruction from the sampled ATD
        self.hit_curves[core_id] = rec.apki - np.asarray(rec.mpki_sampled)
        self.snapshots[core_id] = (snap, rec)

        active = [j for j in range(system.ncores) if sim.is_active(j)]
        if any(j not in self.hit_curves for j in active):
            return None  # UCP waits until every active core has a profile

        # Unprofiled (idle) cores keep their current ways; UCP partitions
        # the remainder among the profiled cores.
        order = sorted(self.hit_curves)
        held = sum(
            sim.current_alloc(j).ways
            for j in range(system.ncores)
            if j not in self.hit_curves
        )
        alloc_ways = ucp_lookahead(
            [self.hit_curves[j] for j in order],
            total_ways=system.llc.ways - held,
            min_ways=system.min_ways_per_core,
        )
        self.meter.charge_dp(system.llc.ways * system.ncores)

        # One batched pass over all profiled cores: the DVFS controller's
        # model chain, each core pinned to its UCP partition.
        snaps = [self.snapshots[j][0] for j in order]
        recs = [self.snapshots[j][1] for j in order]
        curves = analytical_curves_batch(
            system, self.model, snaps,
            [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
            [sim.slack(j) for j in order], self._dims, self.meter,
            pin_ways_per_core=list(alloc_ways),
        )
        out: dict[int, Allocation] = {}
        for j, ways, curve in zip(order, alloc_ways, curves):
            if np.isfinite(curve.epi[ways - 1]):
                c, f, w = curve.setting_at(ways)
            else:
                # No frequency can hold QoS at this allocation: run flat out.
                c, f, w = system.baseline_core_index, system.vf.nlevels - 1, ways
            out[j] = Allocation(core=c, freq=f, ways=w)
        return out
