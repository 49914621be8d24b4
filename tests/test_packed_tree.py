"""Bit-identity of the packed reduction.

:class:`~repro.core.packed_tree.PackedReduction` plans an entire clustered
hierarchy -- per-cluster capped combine levels plus the second-level
stage -- into flat plan arrays and solves it in one kernel call that
recombines every dirty row and walks the back-track.  The node-graph
:class:`~tests.oracles.node_graph.ReductionTree` hierarchy is the golden
reference: on every input the packed tree must reproduce its assignment
(including tie-breaks) -- each solve's change set folded into the
settings the previous ones left (``tests/oracles/change_sets.py``) --
its ``None``-ness on infeasible inputs, and its metered RMA overhead
(instructions and DP cells) *exactly* -- the packed path is an
execution-layout change, never a semantics change.

The property tests drive persistent instances through randomized splice /
update sequences over inf-heavy curves (sporadic infeasible entries plus
pinned single-way curves, the shapes idle cores and capped clusters
produce), covering flat trees, odd leaf counts, uneven final clusters and
over-provisioned way caps, from the one-leaf plan up.  Wide-box cases
combine boxes of well over a hundred candidates.  An 8-core
cluster-churn replay through the production clustered manager and through
the node-graph clustered manager oracle pins the manager wiring end to
end.

The one-call traces drive multi-cluster dirty unions, all-``inf`` leaves
(infeasible roots), repeated clean solves and tied energies, and pin the
work counters: each refresh recombines exactly the union of the dirty
root paths.  Every solve must be one ``minplus_solve`` call and every
install that is not an identity repeat of an unmarked leaf one
``leaf_install`` call; the compiled install is held to the Python install
in ``tests/oracles/leaf_install.py`` over random installs, equal-valued
copies (``-0.0`` against ``0.0`` included), one-entry changes, all-``inf``
and short curves, invalidations and solves, and every walked setting to
``EnergyCurve.setting_at``.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.curves import EnergyCurve
from repro.core.global_opt import cluster_way_caps, partition_clusters
from repro.core.managers import rm2_combined
from repro.core.overhead_meter import OverheadMeter
from repro.core import packed_tree
from repro.core.packed_tree import PackedReduction
from repro.scenarios import cluster_churn
from repro.simulation.rma_sim import RMASimulator
from tests.conftest import TEST_BENCHMARKS
from tests.oracles.change_sets import fold
from tests.oracles.leaf_install import ReferenceLeaves, same_curve
from tests.oracles.node_graph import ReductionTree
from tests.oracles.reference_manager import NodeGraphClusteredManager
from tests.test_batch_opt import _StubSim, _stats
from tests.test_clustered import assert_same_numbers


def _random_curves(rng, ncores, ways, inf_p=0.25, ties=False):
    """Inf-heavy random curves; ~15% are pinned to a single way count.
    ``ties`` rounds the energies to whole numbers, so that many splits
    tie and the first-minimum tie-break decides them."""
    curves = []
    for _ in range(ncores):
        epi = np.where(rng.random(ways) < inf_p, np.inf,
                       rng.uniform(0.1, 5.0, size=ways))
        if rng.random() < 0.15:
            epi = np.full(ways, np.inf)
            epi[rng.integers(0, ways)] = rng.uniform(0.1, 5.0)
        if ties:
            epi = np.round(epi)
        curves.append(EnergyCurve(
            epi=epi,
            freq_idx=rng.integers(0, 4, size=ways),
            core_idx=rng.integers(0, 3, size=ways),
        ))
    return curves


def _random_hierarchy(rng, ncores, ways):
    """A random clustered shape: clusters, caps (manager invariants hold)."""
    if rng.random() < 0.35:
        clusters = (tuple(range(ncores)),)
    else:
        csize = int(rng.integers(1, max(2, ncores // 2) + 1))
        clusters = partition_clusters(ncores, csize)
    if len(clusters) == 1:
        # Manager invariant: a single cluster's cap is the full
        # associativity (the second level is a pass-through).
        return clusters, (ways,)
    caps = cluster_way_caps(ways, ncores, clusters, 1,
                            overprovision=float(rng.uniform(1.0, 2.0)))
    return clusters, caps


class _Reference:
    """Persistent node-graph hierarchy mirroring one PackedReduction."""

    def __init__(self, clusters, caps, ways):
        self.clusters = clusters
        self.trees = [ReductionTree(len(m), cap, 1, first_id=m[0])
                      for m, cap in zip(clusters, caps)]
        self.level2 = ReductionTree(len(clusters), ways, 1)

    def solve(self, curves, meter):
        for ci, members in enumerate(self.clusters):
            tree = self.trees[ci]
            for local, j in enumerate(members):
                tree.set_leaf(local, curves[j])
            root, changed = tree.refresh(meter)
            self.level2.set_leaf_node(ci, root, changed)
        return self.level2.solve(meter)

    def invalidate(self, slot):
        for ci, members in enumerate(self.clusters):
            if slot in members:
                self.trees[ci].invalidate(members.index(slot))


def _check_step(tag, ref, got, held, m_ref, m_pk):
    """Compare one solve with the reference's; ``got`` is folded into
    ``held``, the settings the packed reduction's solves left so far."""
    assert (ref is None) == (got is None), f"{tag}: feasibility mismatch"
    if ref is not None:
        assert fold(held, got) == ref, f"{tag}: assignment mismatch"
    assert m_pk.instructions == m_ref.instructions, f"{tag}: meter drift"
    assert m_pk.dp_cells == m_ref.dp_cells, f"{tag}: DP-cell drift"


def _splice_sequences_match_reference(seed, ties=False):
    rng = np.random.default_rng(seed)
    ncores = int(rng.integers(2, 20))
    ways = int(rng.integers(ncores, 3 * ncores + 4))
    clusters, caps = _random_hierarchy(rng, ncores, ways)
    packed = PackedReduction(
        tuple(len(m) for m in clusters), tuple(caps), ways, 1)
    reference = _Reference(clusters, caps, ways)
    m_ref, m_pk = OverheadMeter(), OverheadMeter()
    held = {}

    curves = _random_curves(rng, ncores, ways,
                            inf_p=float(rng.uniform(0.05, 0.6)), ties=ties)
    for step in range(int(rng.integers(3, 8))):
        tag = f"seed={seed} step={step} clusters={clusters} caps={caps}"
        ref = reference.solve(curves, m_ref)
        for j in range(ncores):
            packed.set_leaf(j, curves[j])
        got = packed.solve(m_pk)
        _check_step(tag, ref, got, held, m_ref, m_pk)
        if ref is not None:
            # Nothing changed: the repeat's change set is empty.
            again = packed.solve(m_pk)
            assert again == [], f"{tag}: unchanged root changed settings"
            _check_step(f"{tag} (unchanged)", reference.solve(curves, m_ref),
                        again, held, m_ref, m_pk)
        mode = rng.random()
        if mode < 0.55:  # steady state: one core's curve moves
            j = int(rng.integers(0, ncores))
            curves[j] = _random_curves(rng, j + 1, ways, 0.3, ties)[j]
        elif mode < 0.8:  # a few cores move at once
            for j in rng.choice(ncores, size=min(ncores, 3), replace=False):
                curves[int(j)] = _random_curves(rng, int(j) + 1, ways, 0.4, ties)[int(j)]
        else:  # tenancy splice: forced re-ingest of an unchanged slot
            j = int(rng.integers(0, ncores))
            packed.invalidate(j)
            reference.invalidate(j)


def _flat_tree_matches(seed, ncores):
    """A one-cluster packed plan is the flat ReductionTree, bit for bit."""
    rng = np.random.default_rng(seed)
    ways = 3 * ncores + int(rng.integers(0, 4))
    curves = _random_curves(rng, ncores, ways)
    flat = ReductionTree(ncores, ways, 1)
    for j, c in enumerate(curves):
        flat.set_leaf(j, c)
    packed = PackedReduction((ncores,), (ways,), ways, 1)
    for j, c in enumerate(curves):
        packed.set_leaf(j, c)
    m_ref, m_pk = OverheadMeter(), OverheadMeter()
    want = flat.solve(m_ref)
    got = packed.solve(m_pk)
    _check_step("flat", want, got, {}, m_ref, m_pk)


def _all_idle_is_infeasible_then_recovers():
    """Every leaf pinned over-budget -> None; a feasible splice heals."""
    ncores, ways = 8, 16
    clusters = partition_clusters(ncores, 4)
    caps = cluster_way_caps(ways, ncores, clusters, 1)
    packed = PackedReduction(
        tuple(len(m) for m in clusters), tuple(caps), ways, 1)
    reference = _Reference(clusters, caps, ways)
    pinned = []
    for j in range(ncores):
        epi = np.full(ways, np.inf)
        epi[ways - 1] = 1.0  # all demand the full cache: infeasible
        pinned.append(EnergyCurve(epi=epi,
                                  freq_idx=np.zeros(ways, dtype=int),
                                  core_idx=np.ones(ways, dtype=int)))
    m_ref, m_pk = OverheadMeter(), OverheadMeter()
    for j in range(ncores):
        packed.set_leaf(j, pinned[j])
    assert reference.solve(pinned, m_ref) is None
    assert packed.solve(m_pk) is None
    assert m_pk.instructions == m_ref.instructions

    rng = np.random.default_rng(7)
    healed = [
        EnergyCurve(epi=rng.uniform(0.1, 5.0, size=ways),
                    freq_idx=rng.integers(0, 4, size=ways),
                    core_idx=rng.integers(0, 3, size=ways))
        for _ in range(ncores)
    ]
    for j in range(ncores):
        packed.set_leaf(j, healed[j])
    ref = reference.solve(healed, m_ref)
    got = packed.solve(m_pk)
    assert fold({}, got) == ref
    assert ref is not None
    assert m_pk.instructions == m_ref.instructions


class TestPackedBitIdentity:
    """Packed vs node-graph reference over randomized splice sequences."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_splice_sequences_match_reference(self, seed):
        _splice_sequences_match_reference(seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_tied_splice_sequences_match_reference(self, seed):
        _splice_sequences_match_reference(seed, ties=True)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), ncores=st.integers(1, 31))
    @example(seed=0, ncores=1)  # the one-leaf plan
    @example(seed=0, ncores=31)
    def test_flat_tree_matches(self, seed, ncores):
        _flat_tree_matches(seed, ncores)

    def test_all_idle_is_infeasible_then_recovers(self):
        _all_idle_is_infeasible_then_recovers()

    @pytest.mark.parametrize("cluster_size", [None, 2, 3])
    def test_one_curve_object_in_every_slot(self, cluster_size):
        """Curves carry no core label: one object installed at every slot
        still yields one change per slot, equal to the node-graph
        reference's assignment."""
        ncores, ways = 7, 20
        clusters = partition_clusters(ncores, cluster_size or ncores)
        caps = (ways,) if len(clusters) == 1 else cluster_way_caps(ways, ncores, clusters, 1)
        packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        curve = _finite_leaf(np.random.default_rng(3), ways)
        packed.set_leaves([curve] * ncores)
        m_ref, m_pk = OverheadMeter(), OverheadMeter()
        got = packed.solve(m_pk)
        assert sorted(slot for slot, _ in got) == list(range(ncores))
        assert sum(w for _, (_, _, w) in got) == ways
        ref = _Reference(clusters, caps, ways).solve([curve] * ncores, m_ref)
        _check_step("one object", ref, got, {}, m_ref, m_pk)


class TestChangeSet:
    """A solve returns the walk's changes and nothing else, and a
    coordinated manager's decision hands exactly those to the kernel."""

    def test_first_solve_lists_every_slot(self):
        rng = np.random.default_rng(11)
        ncores, ways = 13, 40
        clusters = partition_clusters(ncores, 4)
        caps = cluster_way_caps(ways, ncores, clusters, 1)
        packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        curves = [_finite_leaf(rng, ways) for _ in range(ncores)]
        packed.set_leaves(curves)
        got = packed.solve()
        assert sorted(slot for slot, _ in got) == list(range(ncores))
        for slot, setting in got:
            assert setting == curves[slot].setting_at(setting[2])
        assert sum(w for _, (_, _, w) in got) == ways

    def test_unchanged_root_gives_an_empty_change_set(self):
        rng = np.random.default_rng(12)
        ncores, ways = 9, 30
        packed = PackedReduction((ncores,), (ways,), ways, 1)
        curves = [_finite_leaf(rng, ways) for _ in range(ncores)]
        packed.set_leaves(curves)
        assert len(packed.solve()) == ncores
        assert packed.solve() == []  # nothing dirty
        packed.set_leaves(list(curves))  # the same curves again: still clean
        assert packed.solve() == []

    def test_repeat_manager_decision_returns_none(self, system4, db4):
        recs, snaps = _stats(system4, db4, seed=21, n=system4.ncores)
        mgr = rm2_combined()
        mgr.attach(_StubSim(system4, recs, snaps, [0.0] * system4.ncores))
        first = mgr.on_interval(0)
        assert sorted(first) == list(range(system4.ncores))
        assert sum(a.ways for a in first.values()) == system4.llc.ways
        assert mgr.on_interval(0) is None  # the same statistics again


class TestPackedClusteredManager:
    """The production clustered manager equals its node-graph oracle."""

    def test_cluster_churn_replay_matches_node_graph_oracle(self, system8, db8):
        """8-core cluster-churn replay: packed hierarchy vs node-graph trees."""
        sc = cluster_churn("packed-eq", 8, TEST_BENCHMARKS, cluster_size=2,
                           cycles=3, idle_intervals=1.0,
                           horizon_intervals=48, seed=5)
        mgr = rm2_combined(cluster_size=2)
        packed = RMASimulator(system8, db8, sc.workload, mgr,
                              max_slices=6, scenario=sc).run()
        assert isinstance(mgr._tree, PackedReduction)

        oracle = NodeGraphClusteredManager(name="rm2-node-graph", cluster_size=2)
        node_graph = RMASimulator(system8, db8, sc.workload, oracle,
                                  max_slices=6, scenario=sc).run()
        assert oracle._tree is None and oracle._level2 is not None  # node graph ran

        assert_same_numbers(packed, node_graph)


def _wide_curve(rng, ways, cap, pinned=False):
    """A leaf whose finite box is 60-140 ways wide with ~10% inf holes
    inside it; ``pinned`` gives a width-1 box."""
    epi = np.full(ways, np.inf)
    if pinned:
        epi[int(rng.integers(0, cap // 4))] = rng.uniform(0.1, 5.0)
    else:
        width = int(rng.integers(60, 141))
        lo = int(rng.integers(0, cap // 4))
        box = rng.uniform(0.1, 5.0, size=width)
        box[1:-1][rng.random(width - 2) < 0.1] = np.inf
        epi[lo : lo + width] = box
    return EnergyCurve(
        epi=epi,
        freq_idx=rng.integers(0, 4, size=ways),
        core_idx=rng.integers(0, 3, size=ways),
    )


def _columns(packed):
    """The plan's per-row columns as int64 arrays, by name."""
    return {name: np.asarray(getattr(packed._cols, name)) for name in packed_tree._COLUMNS}


def _row(packed, cols, r):
    """Row ``r``'s stored cells (ways ``nlo .. nlo + nk - 1``)."""
    return packed._E[cols["off"][r] : cols["off"][r] + cols["nk"][r]]


def _band_sweeps(packed):
    """Geometry of every row the refresh sends through the general band
    combine (both child boxes and the output span wider than one cell):
    (narrower child box width, clipped by the needed range, a hole inside
    a child box), plus whether any child box has width 1."""
    cols = _columns(packed)
    flo, fhi, nlo, nk = cols["flo"], cols["fhi"], cols["nlo"], cols["nk"]
    sweeps, width1 = [], False
    for r in np.flatnonzero(cols["src_a"] >= 0):
        boxes, holes = [], False
        for c in (cols["src_a"][r], cols["src_b"][r]):
            row = _row(packed, cols, c)
            boxes.append((flo[c], fhi[c]))
            holes |= bool(np.isinf(row[flo[c] - nlo[c] : fhi[c] - nlo[c] + 1]).any())
        (aflo, afhi), (bflo, bfhi) = boxes
        width1 |= aflo == afhi or bflo == bfhi
        plo, phi = max(nlo[r], aflo + bflo), min(nlo[r] + nk[r] - 1, afhi + bfhi)
        if aflo < afhi and bflo < bfhi and plo < phi:
            clipped = (plo, phi) != (aflo + bflo, afhi + bfhi)
            sweeps.append((min(afhi - aflo, bfhi - bflo) + 1, clipped, holes))
    return sweeps, width1


def _assert_rows_are_exact_combines(packed):
    """Every stored row equals the min-plus combine of its children's
    stored rows, cell for cell (assignments alone only see the cells the
    optimum path reads)."""
    cols = _columns(packed)
    nlo = cols["nlo"]
    for r in np.flatnonzero(cols["src_a"] >= 0):
        ia, ib = cols["src_a"][r], cols["src_b"][r]
        a, b = _row(packed, cols, ia), _row(packed, cols, ib)
        full = np.full(len(a) + len(b) - 1, np.inf)
        for i, ai in enumerate(a):
            np.minimum(full[i : i + len(b)], ai + b, out=full[i : i + len(b)])
        k0 = nlo[r] - nlo[ia] - nlo[ib]
        want = full[k0 : k0 + cols["nk"][r]]
        assert np.array_equal(_row(packed, cols, r), want), f"row {r} differs"


#: Narrower-box widths above this exceed every combine of the hypothesis
#: cases above, which stay below ~100 ways.
WIDE = 100


class TestWideBoxes:
    """Wide boxes against the node-graph oracle.

    Here leaves hold 60-140-way boxes with inf holes (some pinned to one
    way), so the top combines run candidate axes wider than any of the
    hypothesis cases', and clustered caps clip the outputs by the needed
    range.  Every step (the all-dirty attach, 3-leaf
    splices, single-leaf moves) must match the oracle's assignment and
    meter charges exactly, and every stored row must equal the exact
    min-plus combine of its children.
    """

    @pytest.mark.parametrize(
        "group_size, ncores, ways, overprovision",
        [(16, 16, 1200, 1.0), (4, 16, 1200, 1.5), (5, 13, 1000, 1.3)],
    )
    def test_wide_box_combines_match_reference(self, group_size, ncores, ways, overprovision):
        rng = np.random.default_rng(group_size * 1000 + ncores)
        clusters = partition_clusters(ncores, group_size)
        if len(clusters) == 1:
            caps = (ways,)
        else:
            caps = cluster_way_caps(ways, ncores, clusters, 1, overprovision=overprovision)
        cap_of = {j: cap for members, cap in zip(clusters, caps) for j in members}
        packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        reference = _Reference(clusters, caps, ways)
        m_ref, m_pk = OverheadMeter(), OverheadMeter()
        held = {}

        def leaf(j, pinned=False):
            return _wide_curve(rng, ways, cap_of[j], pinned)

        # Leaves 0 and 1 pinned: a width-1 box at level 1 as well.
        curves = [leaf(j, pinned=j in (0, 1)) for j in range(ncores)]
        wide, clipped, holes, width1 = False, False, False, False
        for step in range(8):
            ref = reference.solve(curves, m_ref)
            packed.set_leaves(curves)
            got = packed.solve(m_pk)
            _check_step(f"{clusters} step={step}", ref, got, held, m_ref, m_pk)
            _assert_rows_are_exact_combines(packed)
            sweeps, has_width1 = _band_sweeps(packed)
            width1 |= has_width1
            for nb, clip, hole in sweeps:
                if nb > WIDE:
                    wide = True
                    clipped |= clip
                    holes |= hole
            if step % 2 == 0:  # a 3-leaf splice: forced re-ingest plus new curves
                for j in rng.choice(ncores, size=3, replace=False):
                    j = int(j)
                    packed.invalidate(j)
                    reference.invalidate(j)
                    curves[j] = leaf(j, pinned=rng.random() < 0.2)
            else:  # the steady state: one leaf moves
                j = int(rng.integers(0, ncores))
                curves[j] = leaf(j)
        assert wide, f"no combine wider than {WIDE} candidates"
        assert clipped, "no wide combine clipped by the needed range"
        assert holes, "no inf hole inside a wide child box"
        assert width1, "no width-1 child box"


# ---- the one-call solve --------------------------------------------------------


def _root_path(cols, slot):
    """Row ids above leaf ``slot`` on its root path."""
    path, up = [], int(cols["parent"][slot])
    while up >= 0:
        path.append(up)
        up = int(cols["parent"][up])
    return path


def _one_leaf(rng, ways, inf_p, ties):
    """A leaf with ``inf`` holes, ~15% of them pinned to the minimum way;
    every leaf is finite there, so most roots stay feasible."""
    epi = np.where(rng.random(ways) < inf_p, np.inf, rng.uniform(0.1, 5.0, size=ways))
    if rng.random() < 0.15:
        epi[1:] = np.inf
    epi[0] = rng.uniform(0.1, 5.0)
    if ties:
        epi = np.round(epi)
    return EnergyCurve(epi=epi,
                       freq_idx=rng.integers(0, 4, size=ways),
                       core_idx=rng.integers(0, 3, size=ways))


def _finite_leaf(rng, ways):
    return EnergyCurve(epi=rng.uniform(0.1, 5.0, size=ways),
                       freq_idx=rng.integers(0, 4, size=ways),
                       core_idx=rng.integers(0, 3, size=ways))


def _all_inf_leaf(ways):
    return EnergyCurve(epi=np.full(ways, np.inf),
                       freq_idx=np.zeros(ways, dtype=int),
                       core_idx=np.zeros(ways, dtype=int))


def _one_call_trace(seed, ties=False, rebuild=False):
    """Drive one reduction through a random splice sequence against the
    node-graph oracle and return its per-solve trace: (settings after the
    solve, changed slots, rows_combined, splits).  With ``rebuild``, every
    step also builds a fresh reduction over the current curves, whose
    assignment and whole stored row buffer the incrementally refreshed one
    must equal.

    Every solve is checked against the oracle, and every stored row against
    the exact combine of its children; the refresh must recombine
    exactly the union of the dirty leaves' root paths, the first walk
    must split every combine row once and list every leaf, a walk-free
    solve (infeasible, or nothing changed) must split nothing, and a
    repeated solve with nothing dirty must return an empty change set.  Steps move leaves in several clusters at once,
    empty a leaf (an all-``inf`` curve makes the root infeasible) and heal
    it, and re-ingest unchanged leaves.
    """
    rng = np.random.default_rng(seed)
    ncores = int(rng.integers(4, 24))
    ways = int(rng.integers(ncores, 3 * ncores + 4))
    clusters, caps = _random_hierarchy(rng, ncores, ways)
    packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
    reference = _Reference(clusters, caps, ways)
    m_ref, m_pk = OverheadMeter(), OverheadMeter()
    cols = _columns(packed)
    combines = len(cols["nlo"]) - ncores
    inf_p = float(rng.uniform(0.05, 0.5))
    curves = [_one_leaf(rng, ways, inf_p, ties) for j in range(ncores)]
    moved, invalidated, held = set(range(ncores)), set(range(ncores)), list(curves)
    settings_held = {}
    walked = False
    trace = []
    for step in range(8):
        tag = f"seed={seed} step={step} clusters={clusters} caps={caps}"
        for j in moved:
            packed.set_leaf(j, curves[j])
        # A leaf is dirty if it was re-ingested or its curve changed value.
        dirty = {j for j in moved if j in invalidated or not same_curve(held[j], curves[j])}
        held = list(curves)
        rows0, splits0 = packed.rows_combined, packed.splits
        ref = reference.solve(curves, m_ref)
        got = packed.solve(m_pk)
        _check_step(tag, ref, got, settings_held, m_ref, m_pk)
        _assert_rows_are_exact_combines(packed)
        if rebuild:
            fresh = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
            fresh.set_leaves(curves)
            want = fresh.solve(OverheadMeter())
            assert (got is None) == (want is None), f"{tag}: rebuild feasibility"
            assert got is None or settings_held == fold({}, want), tag
            assert np.array_equal(packed._E, fresh._E), f"{tag}: rebuilt rows differ"
        union = {r for j in dirty for r in _root_path(cols, j)}
        assert packed.rows_combined - rows0 == len(union), f"{tag}: refresh rows"
        if got is None:
            assert packed.splits == splits0, f"{tag}: an infeasible solve walked"
        elif not walked:
            assert packed.splits - splits0 == combines, f"{tag}: first walk splits"
            assert sorted(slot for slot, _ in got) == list(range(ncores)), tag
            walked = True
        changed = None if got is None else [slot for slot, _ in got]
        trace.append((dict(settings_held), changed, packed.rows_combined, packed.splits))
        if got is not None:
            again = packed.solve(m_pk)
            _check_step(f"{tag} (again)", reference.solve(curves, m_ref), again,
                        settings_held, m_ref, m_pk)
            assert again == [], f"{tag}: unchanged root"
            assert (packed.rows_combined, packed.splits) == trace[-1][2:], tag
        moved, invalidated = set(), set()
        mode = rng.random()
        if mode < 0.4 and len(clusters) > 1:  # leaves of several clusters move
            for members in rng.choice(len(clusters), size=min(3, len(clusters)), replace=False):
                j = int(rng.choice(clusters[int(members)]))
                curves[j] = _one_leaf(rng, ways, inf_p, ties)
                moved.add(j)
        elif mode < 0.55:  # one leaf loses every feasible way (root: None)
            j = int(rng.integers(0, ncores))
            curves[j] = _all_inf_leaf(ways)
            moved.add(j)
        elif mode < 0.75:  # re-ingest unchanged leaves, and heal empty ones
            for j in rng.choice(ncores, size=min(ncores, 2), replace=False):
                packed.invalidate(int(j))
                reference.invalidate(int(j))
                invalidated.add(int(j))
                moved.add(int(j))
            for j, c in enumerate(curves):
                if not np.isfinite(c.epi).any():
                    curves[j] = _one_leaf(rng, ways, inf_p, ties)
                    moved.add(j)
        else:  # the steady state: one leaf moves
            j = int(rng.integers(0, ncores))
            curves[j] = _one_leaf(rng, ways, inf_p, ties)
            moved.add(j)
    return trace


class _CountingKernel:
    """Proxy for the compiled kernel that records every entry point called."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def call(*args):
            self.calls.append(name)
            return fn(*args)

        return call


class TestOneCallSolve:
    """One solve: the refresh, the root checks and the walk in one pass."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_splice_trace_matches_reference(self, seed):
        _one_call_trace(seed)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_tied_splice_trace_matches_reference(self, seed):
        _one_call_trace(seed, ties=True)


class TestCompiledSolve:
    """The compiled path's incremental refresh and its call count."""

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_refresh_equals_rebuild(self, seed, ties):
        _one_call_trace(seed, ties, rebuild=True)

    def test_kernel_call_sequence(self, monkeypatch):
        """One ``leaf_install`` per install that is not an identity repeat
        of an unmarked leaf, none for such a repeat, and one
        ``minplus_solve`` per solve that follows a leaf write or an
        invalidation: a clean solve -- nothing written (an equal-valued
        install writes nothing) or invalidated since the last one --
        returns what the call would, ``[]`` or ``None``, without it."""
        proxy = _CountingKernel(packed_tree._kernel)
        monkeypatch.setattr(packed_tree, "_kernel", proxy)
        rng = np.random.default_rng(3)
        ncores, ways = 24, 64
        clusters = partition_clusters(ncores, 8)
        caps = cluster_way_caps(ways, ncores, clusters, 1)
        packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        curves = [_finite_leaf(rng, ways) for j in range(ncores)]
        packed.set_leaves(curves)
        want = ["leaf_install"] * ncores
        states = [packed.solve()]  # the first solve
        want += ["minplus_solve"]
        packed.set_leaves(curves)  # identity repeats of unmarked leaves: no call
        states.append(packed.solve())  # nothing dirty: clean, no call
        packed.set_leaf(5, _finite_leaf(rng, ways))
        states.append(packed.solve())  # one dirty path
        want += ["leaf_install", "minplus_solve"]
        packed.set_leaf(5, _copy(packed._held[5]))  # equal values: compared, kept
        states.append(packed.solve())  # nothing written: clean, no call
        want += ["leaf_install"]
        packed.invalidate(7)
        states.append(packed.solve())  # an invalidation forces the call
        want += ["minplus_solve"]
        for j in (1, 9, 17):  # a union across three clusters
            packed.set_leaf(j, _finite_leaf(rng, ways))
        packed.invalidate(4)
        packed.set_leaf(4, curves[4])  # a marked leaf: the same object is installed
        states.append(packed.solve())
        want += ["leaf_install"] * 4 + ["minplus_solve"]
        packed.set_leaf(2, _all_inf_leaf(ways))
        states.append(packed.solve())  # infeasible
        want += ["leaf_install", "minplus_solve"]
        states.append(packed.solve())  # clean after an infeasible solve
        assert len(states[0]) == ncores
        assert states[1] == states[3] == states[4] == []
        assert states[-2] is None and states[-1] is None
        assert proxy.calls == want
        assert packed.leaf_writes == ncores + 1 + 3 + 1 + 1

    def test_clean_solve_after_an_infeasible_one_returns_none(self, monkeypatch):
        packed = PackedReduction((4,), (16,), 16, 1)
        packed.set_leaves([_all_inf_leaf(16)] + [EnergyCurve.pinned(4, 0, 0, 16)] * 3)
        assert packed.solve() is None
        proxy = _CountingKernel(packed_tree._kernel)
        monkeypatch.setattr(packed_tree, "_kernel", proxy)
        assert packed.solve() is None and packed.solve() is None
        assert proxy.calls == []

    def test_clean_solve_with_a_missing_leaf_still_raises(self, monkeypatch):
        """A solve that found a leaf without a curve is not a clean state:
        every later solve calls the kernel, and raises, until the leaf is
        installed."""
        proxy = _CountingKernel(packed_tree._kernel)
        monkeypatch.setattr(packed_tree, "_kernel", proxy)
        packed = PackedReduction((3,), (12,), 12, 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="every leaf needs a curve"):
                packed.solve()
        packed.set_leaf(0, EnergyCurve.pinned(4, 0, 0, 12))
        packed.set_leaf(1, EnergyCurve.pinned(4, 0, 0, 12))
        for _ in range(2):
            with pytest.raises(ValueError, match="every leaf needs a curve"):
                packed.solve()
        assert proxy.calls == ["minplus_solve"] * 2 + ["leaf_install"] * 2 + ["minplus_solve"] * 2
        packed.set_leaf(2, EnergyCurve.pinned(4, 0, 0, 12))
        assert packed.solve() == [(0, (0, 0, 4)), (1, (0, 0, 4)), (2, (0, 0, 4))]

    def test_clean_solve_charges_the_called_solves_meter_totals(self):
        """A clean solve charges the invocation's static DP total, exactly
        as a solve that calls the kernel does."""
        rng = np.random.default_rng(11)
        ncores, ways = 12, 32
        clusters = partition_clusters(ncores, 4)
        caps = cluster_way_caps(ways, ncores, clusters, 1)
        packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        packed.set_leaves([_finite_leaf(rng, ways) for _ in range(ncores)])
        packed.solve()
        called, clean = OverheadMeter(), OverheadMeter()
        packed.invalidate(3)
        assert packed.solve(called) == []  # recombined, root kept its total
        assert packed.solve(clean) == []  # clean
        assert called == clean and clean.dp_cells == packed.total_cells > 0

    def test_walk_onto_an_inf_leaf_cell_raises(self):
        """The walk checks every leaf cell it lands on, as ``setting_at``
        does.  Two pinned leaves leave the root one split, which the walk
        takes from the boxes alone; a leaf cell made ``inf`` behind the
        reduction's back (its leaf unmarked, so no row is recombined)
        fails the next walk instead of returning a setting."""
        packed = PackedReduction((2,), (8,), 8, 1)
        packed.set_leaves([EnergyCurve.pinned(3, 1, 2, 8), EnergyCurve.pinned(5, 0, 1, 8)])
        assert packed.solve() == [(0, (1, 2, 3)), (1, (0, 1, 5))]
        cols = _columns(packed)
        packed._E[cols["off"][0] + 3 - cols["nlo"][0]] = np.inf
        packed._hdr[packed_tree._HEADER.index("has_prev")] = 0  # walk every row again
        packed._clean = False  # and let the solve reach the kernel
        with pytest.raises(ValueError, match="ways=3 is infeasible"):
            packed.solve()

    def test_solve_needs_every_leaf(self):
        packed = PackedReduction((3,), (12,), 12, 1)
        packed.set_leaf(0, EnergyCurve.pinned(4, 0, 0, 12))
        with pytest.raises(ValueError, match="every leaf needs a curve"):
            packed.solve()

    def test_rejected_install_changes_nothing(self):
        """A curve shorter than its group's way cap, or a slot out of range."""
        packed = PackedReduction((2, 2), (6, 6), 12, 1)
        before = packed._plan.tobytes()
        with pytest.raises(ValueError, match="must span its group's way cap"):
            packed.set_leaf(1, EnergyCurve.pinned(2, 0, 0, 5))
        with pytest.raises(IndexError, match="out of range"):
            packed.set_leaf(-1, EnergyCurve.pinned(2, 0, 0, 6))
        assert packed._plan.tobytes() == before and packed.leaf_writes == 0


def _copy(curve, flip_zeros=False):
    """A distinct curve object with ``curve``'s values; ``flip_zeros``
    swaps the sign of every zero energy (``-0.0 == 0.0``)."""
    epi = curve.epi.copy()
    if flip_zeros:
        epi = np.where(epi == 0.0, -epi, epi)
    return EnergyCurve(epi=epi, freq_idx=curve.freq_idx.copy(), core_idx=curve.core_idx.copy())


def _settings(packed):
    """The plan's settings section: a (core, freq) row per stored leaf cell."""
    nleaves, nrows = packed.nleaves, len(packed._cols.nlo)
    start = (len(packed_tree._HEADER) + len(packed_tree._COLUMNS) * nrows
             + len(packed_tree._LEAF_COLUMNS) * nleaves + 4 * nleaves + 2 * (nrows + 1))
    return packed._plan[start:].reshape(-1, 2)


def _assert_same_leaves(packed, ref, tag):
    """The compiled installs left every leaf as the reference's did."""
    cols, settings = _columns(packed), _settings(packed)
    for slot in range(packed.nleaves):
        o, k = cols["off"][slot], cols["nk"][slot]
        assert packed._E[o : o + k].tobytes() == ref.E[slot].tobytes(), f"{tag}: E of {slot}"
        assert np.array_equal(settings[o : o + k], ref.settings[slot]), f"{tag}: settings"
        got = [cols[name][slot] for name in ("flo", "fhi", "mark", "stamp")]
        assert got == [ref.flo[slot], ref.fhi[slot], ref.mark[slot], ref.stamp[slot]], tag
        assert packed._held[slot] is ref.held[slot], f"{tag}: held curve of {slot}"
    assert packed.leaf_writes == ref.writes, f"{tag}: leaf writes"


#: Energies the install property draws from: zeros of both signs and
#: ``inf`` make equal-valued distinct curves and empty leaves likely.
_EPI_POOL = (np.inf, 0.0, -0.0, 1.0, 2.5)

_OPS = ("new", "copy", "flip", "tweak", "same", "all_inf", "short", "invalidate", "solve")


def _tweak(curve, field, rng):
    """A copy of ``curve`` with one entry of ``field`` changed, or with one
    more way (``field == "length"``, the new way repeating the last)."""
    arrays = {name: getattr(curve, name).copy() for name in ("epi", "freq_idx", "core_idx")}
    if field == "length":
        arrays = {name: np.append(a, a[-1]) for name, a in arrays.items()}
    else:
        i = int(rng.integers(0, curve.max_ways))
        arrays[field][i] = 7.0 if arrays[field][i] != 7.0 else 8.0
    return EnergyCurve(**arrays)


class TestLeafInstall:
    """The compiled install against the Python rule in
    ``tests/oracles/leaf_install.py``, and the walk's settings."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    @example(seed=0, data=None)
    def test_install_matches_reference(self, seed, data):
        rng = np.random.default_rng(seed)
        ncores = int(rng.integers(1, 7))
        ways = int(rng.integers(ncores, 3 * ncores + 4))
        clusters, caps = _random_hierarchy(rng, ncores, ways)
        packed = PackedReduction(tuple(len(m) for m in clusters), tuple(caps), ways, 1)
        cols = _columns(packed)
        leaf_caps = [cap for m, cap in zip(clusters, caps) for _ in m]
        ref = ReferenceLeaves(cols["nlo"][:ncores], cols["nk"][:ncores], leaf_caps)

        def curve(n, pool=_EPI_POOL):
            return EnergyCurve(epi=rng.choice(pool, size=n),
                               freq_idx=rng.integers(0, 2, size=n),
                               core_idx=rng.integers(0, 2, size=n))

        steps = 40 if data is None else data.draw(st.integers(1, 40), label="steps")
        for step in range(steps):
            if data is None:
                op, slot = _OPS[step % len(_OPS)], step % ncores
            else:
                op = data.draw(st.sampled_from(_OPS), label="op")
                slot = data.draw(st.integers(0, ncores - 1), label="slot")
            tag = f"seed={seed} step={step} op={op} slot={slot}"
            held = ref.held[slot]
            cap = leaf_caps[slot]
            if op == "solve":
                if None in ref.held:
                    continue
                got = packed.solve()
                ref.solved(cols["stamp"][:ncores])
                for s, setting in got or ():
                    assert setting == packed._held[s].setting_at(setting[2]), tag
            elif op == "invalidate":
                packed.invalidate(slot)
                ref.invalidate(slot)
            elif op == "short":
                if cap > 1:
                    c = curve(cap - 1)
                    with pytest.raises(ValueError, match="way cap"):
                        ref.set_leaf(slot, c)
                    with pytest.raises(ValueError, match="way cap"):
                        packed.set_leaf(slot, c)
            else:
                if op == "tweak" and held is not None:
                    fields = ("epi", "freq_idx", "core_idx", "length")
                    c = _tweak(held, fields[int(rng.integers(0, 4))], rng)
                elif op in ("copy", "flip", "same") and held is not None:
                    c = held if op == "same" else _copy(held, flip_zeros=op == "flip")
                elif op == "all_inf":
                    c = curve(cap + int(rng.integers(0, 3)), pool=(np.inf,))
                else:  # "new", or a copy of a leaf that holds nothing yet
                    c = curve(cap + int(rng.integers(0, 3)))
                marked = ref.mark[slot]
                wrote = ref.set_leaf(slot, c)
                if held is not None and op in ("copy", "flip", "same"):
                    # Equal values keep an unmarked leaf; a marked one is rewritten.
                    assert wrote == bool(marked), tag
                elif held is not None and op == "tweak":
                    assert wrote, tag
                packed.set_leaf(slot, c)
            _assert_same_leaves(packed, ref, tag)

    @pytest.mark.parametrize("field", ["epi", "freq_idx", "core_idx", "length"])
    def test_any_differing_entry_rewrites_the_leaf(self, field):
        """All-zero curves make every entry of the packed buffers equal but
        the one that differs, so the compare must check each of them."""
        ways = 8
        packed = PackedReduction((2,), (ways,), ways, 1)
        zeros = EnergyCurve(epi=np.zeros(ways), freq_idx=np.zeros(ways, dtype=int),
                            core_idx=np.zeros(ways, dtype=int))
        packed.set_leaves([zeros, _copy(zeros)])
        packed.solve()
        packed.set_leaf(0, _copy(zeros, flip_zeros=True))  # -0.0 == 0.0: kept
        assert packed.leaf_writes == 2 and not packed._mark[0]
        packed.set_leaf(0, _tweak(zeros, field, np.random.default_rng(0)))
        assert packed.leaf_writes == 3 and packed._mark[0]

    def test_a_copied_curve_packs_its_own_buffer(self):
        """The packed buffer's address is the curve's own: a pickled or
        deep-copied curve packs again instead of carrying the address."""
        curve = _finite_leaf(np.random.default_rng(1), 12)
        addr, buf = curve.packed
        assert addr == buf.ctypes.data and buf[0] == 12
        for twin in (copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
            twin_addr, twin_buf = twin.packed
            assert twin_addr == twin_buf.ctypes.data != addr
            assert np.array_equal(twin_buf, buf)
