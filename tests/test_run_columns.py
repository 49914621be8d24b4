"""Columnar run results and the full-strength run digest.

``RunResult.interval_samples`` holds five read-only columns, and
:func:`~repro.simulation.metrics.run_result_digest` hashes every number a
run holds, samples included.  Covers:

* the container: packing, row iteration, indexing, slicing, pooling,
  equality by column bytes, read-only columns and pickling;
* the digest: a one-ulp change to any sample column or app field changes
  it, it agrees with the benchmark's own ``digest_fields`` recipe, and an
  empty run digests;
* the results store: a sample tampered after put is quarantined on load,
  results round-trip byte-equal, and a hit hands back its verified digest;
* the consumers: the columnar statistics equal the per-object reference
  exactly, ``/stream`` batches serialise to the same JSON as per-row dicts,
  and a context's cached key prefix gives the library's run key.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.managers import rm2_combined
from repro.experiments.runner import RM2, ExperimentContext, rm3_with_model
from repro.scenarios import churn, poisson_arrivals
from repro.service.api import sample_batches
from repro.simulation.metrics import (
    SAMPLE_DTYPE,
    IntervalSample,
    IntervalSamples,
    RunResult,
    interval_violation_stats,
    run_result_digest,
)
from repro.simulation.results_store import ResultsStore, run_key
from repro.simulation.rma_sim import simulate_scenario
from tests.conftest import TEST_BENCHMARKS
from tests.oracles import interval_stats as reference
from tests.oracles.legacy_sim import LegacyRMASimulator

COLUMNS = SAMPLE_DTYPE.names


def _perfbench_common():
    """The benchmark's own digest module, loaded read-only from its file."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "common.py")
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run(system4, db4):
    sc = churn("cols", 4, TEST_BENCHMARKS, horizon_intervals=40, seed=3)
    return simulate_scenario(system4, db4, sc, rm2_combined(), max_slices=6)


@pytest.fixture(scope="module")
def scenario_runs(system4, db4):
    ctx = ExperimentContext(system=system4, db=db4, max_slices=6)
    scenarios = [
        churn("stats-churn", 4, TEST_BENCHMARKS, horizon_intervals=48, seed=1),
        poisson_arrivals("stats-poisson", 4, TEST_BENCHMARKS, horizon_intervals=48, seed=2),
    ]
    specs = [RM2] + [rm3_with_model(m) for m in ("model1", "model2", "model3")]
    return list(ctx.run_scenarios(scenarios, specs, processes=1).values())


def _bump(samples: IntervalSamples, column: str, row: int = 3) -> IntervalSamples:
    """``samples`` with one value moved by one ulp (one unit for integers)."""
    cols = [col.copy() for col in samples.columns()]
    col = cols[COLUMNS.index(column)]
    if col.dtype.kind == "i":
        col[row] += 1
    else:
        col[row] = np.nextafter(col[row], np.inf)
    return IntervalSamples.from_columns(*cols)


class TestContainer:
    def test_rows_round_trip(self):
        rows = [(0, 7, 110.0, 100.0, 0.0), (3, 2, 95.5, 100.0, 0.2)]
        samples = IntervalSamples(rows)
        assert len(samples) == 2
        assert list(samples) == [IntervalSample(*r) for r in rows]
        assert samples[1] == IntervalSample(*rows[1])
        assert samples[-1].slack == 0.2
        assert type(samples[0].core) is int and type(samples[0].duration_ns) is float
        assert samples[1:] == IntervalSamples(rows[1:])

    def test_columns_are_typed_contiguous_and_read_only(self, run):
        samples = run.interval_samples
        for name, col in zip(COLUMNS, samples.columns()):
            assert col is getattr(samples, name)
            assert col.dtype == SAMPLE_DTYPE[name]
            assert col.flags.c_contiguous
            with pytest.raises(ValueError):
                col[0] = col[1]
        with pytest.raises(AttributeError):
            samples.slack = samples.core

    def test_packed_is_the_row_buffer(self, run):
        samples = run.interval_samples
        rows = np.array([tuple(s) for s in samples], dtype=SAMPLE_DTYPE)
        assert samples.packed() == rows.tobytes()

    def test_equality_is_by_column_bytes(self, run):
        samples = run.interval_samples
        assert samples == IntervalSamples(list(samples))
        assert samples != _bump(samples, "slack")
        assert samples != samples[1:]
        with pytest.raises(TypeError):
            hash(samples)

    def test_run_result_packs_a_row_list(self, run):
        packed = dataclasses.replace(run, interval_samples=list(run.interval_samples))
        assert isinstance(packed.interval_samples, IntervalSamples)
        assert packed == run

    def test_concat_pools_rows_in_order(self, scenario_runs):
        parts = [r.interval_samples for r in scenario_runs]
        pooled = IntervalSamples.concat(parts)
        assert list(pooled) == [s for part in parts for s in part]
        assert len(IntervalSamples.concat([])) == 0


class TestDigest:
    @pytest.mark.parametrize("column", COLUMNS)
    def test_one_ulp_in_any_sample_column_changes_the_digest(self, run, column):
        bumped = dataclasses.replace(run, interval_samples=_bump(run.interval_samples, column))
        assert run_result_digest(bumped) != run_result_digest(run)

    @pytest.mark.parametrize("field", ["core", "intervals", "slack", "time_ns", "energy_nj"])
    def test_one_ulp_in_any_app_field_changes_the_digest(self, run, field):
        app = run.apps[1]
        value = getattr(app, field)
        bumped = value + 1 if isinstance(value, int) else float(np.nextafter(value, np.inf))
        apps = list(run.apps)
        apps[1] = dataclasses.replace(app, **{field: bumped})
        assert run_result_digest(dataclasses.replace(run, apps=apps)) != run_result_digest(run)

    def test_rma_accounting_changes_the_digest(self, run):
        more = dataclasses.replace(run, rma_instructions=np.nextafter(run.rma_instructions, 1e300))
        assert run_result_digest(more) != run_result_digest(run)

    def test_host_wall_clock_is_left_out(self, run):
        slower = dataclasses.replace(run, sim_wall_s=run.sim_wall_s + 1.0)
        assert run_result_digest(slower) == run_result_digest(run)

    def test_agrees_with_the_benchmark_recipe(self, scenario_runs):
        common = _perfbench_common()
        for r in scenario_runs:
            assert run_result_digest(r) == common.run_digest(r)[:16]

    def test_empty_run_digests_and_loads(self, run, tmp_path):
        empty = dataclasses.replace(run, interval_samples=IntervalSamples())
        assert len(empty.interval_samples) == 0
        assert empty.interval_samples.packed() == b""
        assert interval_violation_stats(empty.interval_samples)["n"] == 0
        store = ResultsStore(str(tmp_path))
        store.put("empty", empty)
        loaded, digest = store.get("empty", with_digest=True)
        assert loaded == empty
        assert digest == run_result_digest(empty)


class TestStore:
    def test_sample_tampered_after_put_is_quarantined(self, run, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.put("k", run)
        with open(store.path("k"), "rb") as fh:
            payload = pickle.load(fh)
        payload["result"].interval_samples = _bump(run.interval_samples, "duration_ns")
        with open(store.path("k"), "wb") as fh:
            pickle.dump(payload, fh)
        assert store.get("k") is None
        assert store.quarantined == 1 and store.misses == 1 and store.hits == 0
        assert os.path.exists(os.path.join(str(tmp_path), ResultsStore.QUARANTINE_DIR, "run_k.pkl"))

    def test_hit_hands_back_the_verified_digest(self, run, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.put("k", run)
        loaded, digest = store.get("k", with_digest=True)
        assert digest == run_result_digest(run) == run_result_digest(loaded)
        assert store.get("missing", with_digest=True) is None
        assert store.hits == 1 and store.misses == 1

    def test_pickle_round_trips_every_column_byte_equal(self, run):
        loaded = pickle.loads(pickle.dumps(run))
        assert isinstance(loaded, RunResult)
        for name in COLUMNS:
            got, want = getattr(loaded.interval_samples, name), getattr(run.interval_samples, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert loaded == run


class TestConsumers:
    def test_columnar_stats_equal_the_per_object_reference(self, scenario_runs):
        for r in scenario_runs:
            want = reference.interval_violation_stats(r.interval_samples)
            assert interval_violation_stats(r.interval_samples) == want
        pooled = IntervalSamples.concat(r.interval_samples for r in scenario_runs)
        stats = interval_violation_stats(pooled)
        assert stats == reference.interval_violation_stats(pooled)
        assert stats["probability"] > 0.0  # the comparison covers violating intervals

    def test_row_lists_are_packed_for_stats(self, run):
        rows = list(run.interval_samples)
        assert interval_violation_stats(rows) == interval_violation_stats(run.interval_samples)
        assert interval_violation_stats([])["n"] == 0

    def test_stream_batches_serialise_like_the_recorded_objects(self, system4, db4):
        """Batches built from column slices give the JSON of the sample
        objects the frozen reference simulator records, value for value."""
        sc = churn("cols-stream", 4, TEST_BENCHMARKS, horizon_intervals=24, seed=5)
        run = simulate_scenario(system4, db4, sc, rm2_combined(), max_slices=6)
        legacy = LegacyRMASimulator(
            system4, db4, sc.workload, rm2_combined(), max_slices=6, scenario=sc
        )
        legacy.run()
        recorded = [s._asdict() for s in legacy.interval_samples]
        batches = list(sample_batches(run.interval_samples, 7))
        assert [b["offset"] for b in batches] == list(range(0, len(recorded), 7))
        for b in batches:
            want = {"offset": b["offset"], "samples": recorded[b["offset"] : b["offset"] + 7]}
            assert json.dumps(b) == json.dumps(want)

    def test_context_key_matches_run_key(self, system4, db4):
        ctx = ExperimentContext(system=system4, db=db4, max_slices=5)
        sc = poisson_arrivals("cols-key", 4, TEST_BENCHMARKS, horizon_intervals=16, seed=0)
        assert ctx.run_key(sc, RM2) == run_key(system4, db4, sc, RM2, 5)
        assert ctx.run_key(sc, RM2) == run_key(system4, db4, sc, RM2, 5)  # cached prefix
        ctx.max_slices = 6
        assert ctx.run_key(sc, RM2) == run_key(system4, db4, sc, RM2, 6)
        anchored = dataclasses.replace(system4, qos_baseline_ghz=1.6)
        ctx.system = anchored
        assert ctx.run_key(sc, RM2) == run_key(anchored, db4, sc, RM2, 6)
