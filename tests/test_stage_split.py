"""The traced layer split changes nothing it measures.

``tools/_bench_common.traced_layer_split`` wraps the replay layers with
``perfbench/tracer.py`` for one run.  Its exclusive layer times must close
on the engine span, the wrappers must be gone afterwards, and the traced
run must be bit-identical to an untraced one.
"""

from __future__ import annotations

import math
import os
import sys

from repro.core.managers import ResourceManager, rm2_combined
from repro.core.packed_tree import PackedReduction
from repro.scenarios import cluster_churn
from repro.simulation.engine.kernel import SimulationKernel
from repro.simulation.rma_sim import RMASimulator
from tests.conftest import TEST_BENCHMARKS

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from _bench_common import run_result_hash, traced_layer_split  # noqa: E402


def _manager_entry_points() -> dict:
    """Every manager class's own ``on_interval``, keyed by class."""
    seen, todo = {}, [ResourceManager]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen[cls] = cls.__dict__.get("on_interval")
            todo.extend(cls.__subclasses__())
    return seen


def _sim(system8, db8):
    sc = cluster_churn(
        "layer-split",
        8,
        TEST_BENCHMARKS,
        cluster_size=2,
        cycles=3,
        idle_intervals=1.0,
        horizon_intervals=48,
        seed=5,
    )
    return RMASimulator(
        system8, db8, sc.workload, rm2_combined(cluster_size=2), max_slices=6, scenario=sc
    )


def test_traced_split_closes_and_leaves_the_run_unchanged(system8, db8):
    run_fn = SimulationKernel.__dict__["run"]
    solve_fn = PackedReduction.__dict__["solve"]
    on_interval_fns = _manager_entry_points()

    split, traced = traced_layer_split(_sim(system8, db8))

    assert set(split) == {
        "curves_self",
        "engine_self",
        "managers_self",
        "packed_tree_self",
        "run_total",
    }
    assert not any(key.endswith("_s") for key in split)
    self_sum = sum(v for k, v in split.items() if k.endswith("_self"))
    assert math.isclose(self_sum, split["run_total"], rel_tol=1e-9, abs_tol=1e-12)

    assert SimulationKernel.__dict__["run"] is run_fn
    assert PackedReduction.__dict__["solve"] is solve_fn
    for cls, fn in on_interval_fns.items():
        assert cls.__dict__.get("on_interval") is fn, cls.__name__

    untraced = _sim(system8, db8).run()
    assert run_result_hash(traced) == run_result_hash(untraced)
