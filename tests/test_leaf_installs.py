"""Per-leaf reduction installs equal re-installing every leaf.

The coordinated managers re-install only the reduction leaves that can
have changed since their last decision: the invoking core's and those of
cores a scenario event touched.  The references in
``tests/oracles/reference_manager.py`` re-install every leaf on every
decision -- the flat reference even recomputes every curve and reduces
from scratch.  These properties drive both through random interleavings
of decisions and swap/depart notifications on cores other than the
invoker, as the kernel delivers them, and compare the allocations every
decision leaves behind (folded with ``tests/oracles/change_sets.py``) and
every meter charge with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.managers import rm2_combined, rm3_core_adaptive
from tests.oracles.change_sets import fold
from tests.oracles.reference_manager import NodeGraphClusteredManager, reference
from tests.test_batch_opt import _stats


class _TenancySim:
    """Manager-facing simulator surface with mutable tenancy."""

    def __init__(self, system, recs, snaps, slacks):
        self.system = system
        self.recs = list(recs)
        self.snaps = list(snaps)
        self.slacks = list(slacks)
        self.active = [True] * system.ncores

    def slack(self, core_id):
        return self.slacks[core_id]

    def is_active(self, core_id):
        return self.active[core_id]

    def active_core_ids(self):
        return [j for j in range(self.system.ncores) if self.active[j]]

    def completed_snapshot(self, core_id):
        return self.snaps[core_id]

    def completed_record(self, core_id):
        return self.recs[core_id]


def _flat(factory):
    return lambda: (factory(), reference(factory()))


def _clustered(cluster_size):
    return lambda: (
        rm2_combined(cluster_size=cluster_size),
        NodeGraphClusteredManager(name="rm2-node-graph", cluster_size=cluster_size),
    )


PAIRS = {
    "flat-rm2": _flat(rm2_combined),
    "flat-rm3": _flat(rm3_core_adaptive),
    "clustered-c3": _clustered(3),
    "clustered-c8": _clustered(8),
}

#: One step: (invoker pick, [(target pick, kind, new-tenant pick), ...]).
STEPS = st.lists(
    st.tuples(
        st.integers(0, 63),
        st.lists(
            st.tuples(
                st.integers(0, 63), st.sampled_from(["swap", "depart"]), st.integers(0, 15)
            ),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=20,
)


@pytest.mark.parametrize("pair", sorted(PAIRS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), steps=STEPS)
def test_per_leaf_installs_match_reference(system8, db8, pair, seed, steps):
    n = system8.ncores
    recs, snaps = _stats(system8, db8, seed, n)
    tenants = _stats(system8, db8, seed + 1, 16)
    slacks = [float(s) for s in np.random.default_rng(seed).choice([0.0, 0.1, 0.3], n)]
    sim = _TenancySim(system8, recs, snaps, slacks)
    mgr, ref = PAIRS[pair]()
    mgr.attach(sim)
    ref.attach(sim)
    held, ref_held = {}, {}
    for invoker_pick, events in steps:
        active = sim.active_core_ids()
        invoker = active[invoker_pick % len(active)]
        for target_pick, kind, tenant in events:
            target = target_pick % n
            if target == invoker:
                continue
            if kind == "swap":
                sim.active[target] = True
                sim.recs[target] = tenants[0][tenant]
                sim.snaps[target] = tenants[1][tenant]
            else:
                sim.active[target] = False
            mgr.on_scenario_event(target, kind)
            ref.on_scenario_event(target, kind)
        got, want = mgr.on_interval(invoker), ref.on_interval(invoker)
        if want is None:
            assert got is None
        assert fold(held, got) == fold(ref_held, want)
        assert mgr.meter.instructions == ref.meter.instructions
        assert mgr.meter.grid_points == ref.meter.grid_points
        assert mgr.meter.dp_cells == ref.meter.dp_cells
        assert not mgr._stale_leaves
