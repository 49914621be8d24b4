"""Tests for the persistent run-results store and the worker protocol.

Covers content-key sensitivity, store round-trips and corruption tolerance,
cache hits through every ``ExperimentContext`` entry point, baseline
deduplication in ``run_matrix``, context memoisation per (ncores,
cache_dir), and the spawn-start-method worker initializer (workers that
inherit nothing must still rebuild the experiment context).
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import (
    BASELINE,
    RM2,
    RM3,
    ExperimentContext,
    _init_worker,
    _run_one,
    _WORKER,
    get_context,
)
from repro.scenarios import poisson_arrivals
from repro.simulation.results_store import ResultsStore, database_config_digest, run_key
from repro.util.parallel import parallel_map
from repro.workloads.mixes import Workload
from tests.conftest import TEST_BENCHMARKS
from tests.test_engine_equivalence import assert_bit_identical


def _wl(name="rs4") -> Workload:
    return Workload(
        name=name,
        apps=("mcf_like", "soplex_like", "libquantum_like", "povray_like"),
    )


def _store_ctx(system4, db4, tmp_path) -> ExperimentContext:
    return ExperimentContext(
        system=system4, db=db4, max_slices=5,
        results_store=ResultsStore(str(tmp_path / "results")),
    )


class TestRunKey:
    def test_stable(self, system4, db4):
        assert run_key(system4, db4, _wl(), RM2, 5) == run_key(
            system4, db4, _wl(), RM2, 5
        )

    def test_sensitive_to_inputs(self, system4, db4):
        base = run_key(system4, db4, _wl(), RM2, 5)
        assert run_key(system4, db4, _wl(), RM3, 5) != base
        assert run_key(system4, db4, _wl(), RM2, 6) != base
        assert run_key(system4, db4, _wl().with_slack(0.1), RM2, 5) != base
        other = Workload(name="rs4", apps=("mcf_like",) * 4)
        assert run_key(system4, db4, other, RM2, 5) != base

    def test_sensitive_to_replay_system(self, system4, db4):
        """Replay-only platform fields (QoS anchor, transition overheads)
        change results against the *same* database; the key must see them."""
        from dataclasses import replace

        base = run_key(system4, db4, _wl(), RM2, 5)
        anchored = replace(system4, qos_baseline_ghz=1.6)
        assert run_key(anchored, db4, _wl(), RM2, 5) != base
        slower = replace(
            system4, overheads=replace(system4.overheads, dvfs_transition_us=40.0)
        )
        assert run_key(slower, db4, _wl(), RM2, 5) != base

    def test_scenario_events_in_key(self, system4, db4):
        a = poisson_arrivals("k", 4, TEST_BENCHMARKS, horizon_intervals=16, seed=0)
        b = poisson_arrivals("k", 4, TEST_BENCHMARKS, horizon_intervals=16, seed=1)
        c = poisson_arrivals("k", 4, TEST_BENCHMARKS, horizon_intervals=24, seed=0)
        assert run_key(system4, db4, a, RM2, 5) != run_key(system4, db4, b, RM2, 5)
        assert run_key(system4, db4, a, RM2, 5) != run_key(system4, db4, c, RM2, 5)
        assert run_key(system4, db4, a, RM2, 5) == run_key(system4, db4, a, RM2, 5)

    def test_database_digest_depends_on_contents(self, db4, db8):
        assert database_config_digest(db4) != database_config_digest(db8)


class TestResultsStore:
    def test_roundtrip(self, system4, db4, tmp_path):
        ctx = _store_ctx(system4, db4, tmp_path)
        run = ctx.run(_wl(), BASELINE)
        store = ctx.results_store
        assert store.puts == 1
        key = run_key(system4, db4, _wl(), BASELINE, 5)
        assert os.path.exists(store.path(key))
        again = store.get(key)
        assert_bit_identical(run, again)

    def test_truncated_result_recomputes_cleanly(self, system4, db4, tmp_path):
        """A killed worker's truncated pickle must never poison later hits.

        Regression test for the atomic-write contract: truncate a stored
        result in place, assert the next lookup is a clean miss, the run is
        recomputed bit-identically, and the store heals itself on disk.
        """
        ctx = _store_ctx(system4, db4, tmp_path)
        first = ctx.run(_wl(), RM2)
        store = ctx.results_store
        key = run_key(system4, db4, _wl(), RM2, 5)
        size = os.path.getsize(store.path(key))
        with open(store.path(key), "r+b") as fh:
            fh.truncate(size // 2)
        assert store.get(key) is None  # truncated pickle = miss, not a crash
        fresh = ExperimentContext(
            system=system4, db=db4, max_slices=5, results_store=store
        )
        second = fresh.run(_wl(), RM2)
        assert_bit_identical(first, second)
        # The recompute repaired the entry: full-size file, served next time.
        assert os.path.getsize(store.path(key)) == size
        assert_bit_identical(first, store.get(key))

    def test_put_leaves_no_tmp_droppings(self, system4, db4, tmp_path):
        """Temp files are unique per writer and renamed away on success."""
        ctx = _store_ctx(system4, db4, tmp_path)
        ctx.run(_wl(), BASELINE)
        leftovers = [
            f for f in os.listdir(ctx.results_store.root) if f.endswith(".tmp")
        ]
        assert leftovers == []

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultsStore(str(tmp_path / "results"))
        os.makedirs(store.root, exist_ok=True)
        with open(store.path("deadbeef"), "wb") as fh:
            fh.write(b"not a pickle")
        assert store.get("deadbeef") is None
        assert store.misses == 1

    def test_unpickleable_entry_is_quarantined(self, tmp_path):
        """Bytes that fail to load are moved aside, never load-attempted again."""
        store = ResultsStore(str(tmp_path / "results"))
        os.makedirs(store.root, exist_ok=True)
        with open(store.path("deadbeef"), "wb") as fh:
            fh.write(b"not a pickle")
        assert store.get("deadbeef") is None
        assert store.quarantined == 1
        assert not os.path.exists(store.path("deadbeef"))
        qpath = os.path.join(
            store.root, ResultsStore.QUARANTINE_DIR, "run_deadbeef.pkl"
        )
        assert os.path.exists(qpath)
        # The entry is gone from the hot path: the next get is a plain miss.
        assert store.get("deadbeef") is None
        assert store.quarantined == 1

    def test_digest_mismatch_quarantines_and_recomputes(
        self, system4, db4, tmp_path
    ):
        """A valid pickle whose recorded digest disagrees with its content --
        bit rot that still unpickles -- must be quarantined, not served."""
        import pickle

        ctx = _store_ctx(system4, db4, tmp_path)
        first = ctx.run(_wl(), RM2)
        store = ctx.results_store
        key = run_key(system4, db4, _wl(), RM2, 5)
        with open(store.path(key), "rb") as fh:
            payload = pickle.load(fh)
        payload["digest"] = "0" * 40  # tamper the recorded digest
        with open(store.path(key), "wb") as fh:
            pickle.dump(payload, fh)
        assert store.get(key) is None  # verified load refuses the entry
        assert store.quarantined == 1
        assert os.path.exists(
            os.path.join(store.root, ResultsStore.QUARANTINE_DIR, f"run_{key}.pkl")
        )
        # Falls through to re-simulation, bit-identical, and re-persists.
        fresh = ExperimentContext(
            system=system4, db=db4, max_slices=5, results_store=store
        )
        second = fresh.run(_wl(), RM2)
        assert_bit_identical(first, second)
        assert_bit_identical(first, store.get(key))

    def test_second_run_hits_store(self, system4, db4, tmp_path):
        ctx = _store_ctx(system4, db4, tmp_path)
        first = ctx.run(_wl(), RM2)
        assert ctx.results_store.hits == 0
        second = ctx.run(_wl(), RM2)
        assert ctx.results_store.hits == 1
        assert ctx.results_store.puts == 1
        assert_bit_identical(first, second)

    def test_fresh_context_reads_previous_context_results(
        self, system4, db4, tmp_path
    ):
        a = _store_ctx(system4, db4, tmp_path)
        first = a.run(_wl(), RM2)
        b = _store_ctx(system4, db4, tmp_path)  # same directory, no memory
        second = b.run(_wl(), RM2)
        assert b.results_store.hits == 1 and b.results_store.puts == 0
        assert_bit_identical(first, second)

    def test_run_scenarios_hit_store(self, system4, db4, tmp_path):
        ctx = _store_ctx(system4, db4, tmp_path)
        scenarios = [
            poisson_arrivals("rs-p", 4, TEST_BENCHMARKS, horizon_intervals=16, seed=0)
        ]
        first = ctx.run_scenarios(scenarios, [BASELINE, RM2], processes=1)
        assert ctx.results_store.puts == 2
        second = ctx.run_scenarios(scenarios, [BASELINE, RM2], processes=1)
        assert ctx.results_store.puts == 2  # nothing re-simulated
        assert ctx.results_store.hits == 2
        for key in first:
            assert_bit_identical(first[key], second[key])

    def test_run_matrix_hits_store_and_matches_uncached(
        self, system4, db4, tmp_path
    ):
        wls = [_wl("m0"), _wl("m1")]
        plain = ExperimentContext(system=system4, db=db4, max_slices=5)
        expect = plain.run_matrix(wls, [RM2], processes=1)
        ctx = _store_ctx(system4, db4, tmp_path)
        first = ctx.run_matrix(wls, [RM2], processes=1)
        puts = ctx.results_store.puts
        assert puts == 4  # 2 baselines + 2 policy runs
        ctx2 = _store_ctx(system4, db4, tmp_path)
        second = ctx2.run_matrix(wls, [RM2], processes=1)
        assert ctx2.results_store.puts == 0
        for key in expect:
            assert first[key] == second[key] == expect[key]


class TestBaselineDedup:
    def test_run_matrix_reuses_memoised_baselines(self, system4, db4):
        ctx = ExperimentContext(system=system4, db=db4, max_slices=5)
        wl = _wl("dedup")
        ctx.baseline_run(wl)
        simulated: list[str] = []
        real = runner_mod._run_one

        def counting(task):
            simulated.append(task[1].name)
            return real(task)

        try:
            runner_mod._run_one = counting
            matrix = ctx.run_matrix([wl], [RM2], processes=1)
        finally:
            runner_mod._run_one = real
        assert simulated == ["rm2-combined"]  # baseline NOT re-simulated
        assert (wl.name, RM2.name) in matrix

    def test_second_run_matrix_simulates_nothing_already_known(
        self, system4, db4
    ):
        ctx = ExperimentContext(system=system4, db=db4, max_slices=5)
        wl = _wl("dedup2")
        ctx.run_matrix([wl], [RM2], processes=1)
        simulated: list[str] = []
        real = runner_mod._run_one

        def counting(task):
            simulated.append(task[1].name)
            return real(task)

        try:
            runner_mod._run_one = counting
            ctx.run_matrix([wl], [RM2], processes=1)
        finally:
            runner_mod._run_one = real
        # baseline memoised from the first call; only the policy re-runs
        # (no results store attached here, so RM2 cannot be served from disk)
        assert simulated == ["rm2-combined"]


class TestGetContextMemo:
    def test_keyed_by_ncores_and_cache_dir(self, tmp_path, monkeypatch):
        built = []

        def fake_build(system, names=None, accesses_per_set=0, cache_dir=None):
            built.append(cache_dir)
            return type("FakeDB", (), {"records": {}, "build_params": {}})()

        monkeypatch.setattr(runner_mod, "build_database", fake_build)
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        ctx_a = get_context(4, cache_dir=dir_a)
        ctx_a2 = get_context(4, cache_dir=dir_a)
        assert ctx_a is ctx_a2
        assert len(built) == 1
        ctx_b = get_context(4, cache_dir=dir_b)
        assert ctx_b is not ctx_a  # different cache dir => different context
        assert len(built) == 2
        ctx_a8 = get_context(8, cache_dir=dir_a)
        assert ctx_a8 is not ctx_a
        assert len(built) == 3

    def test_named_contexts_never_memoised(self, tmp_path, monkeypatch):
        def fake_build(system, names=None, accesses_per_set=0, cache_dir=None):
            return type("FakeDB", (), {"records": {}, "build_params": {}})()

        monkeypatch.setattr(runner_mod, "build_database", fake_build)
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        a = get_context(4, cache_dir=str(tmp_path), names=["mcf_like"])
        b = get_context(4, cache_dir=str(tmp_path), names=["mcf_like"])
        assert a is not b

    def test_store_respects_kill_switch(self, tmp_path, monkeypatch):
        def fake_build(system, names=None, accesses_per_set=0, cache_dir=None):
            return type("FakeDB", (), {"records": {}, "build_params": {}})()

        monkeypatch.setattr(runner_mod, "build_database", fake_build)
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        ctx = get_context(4, cache_dir=str(tmp_path / "x"))
        assert ctx.results_store is not None
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        runner_mod.set_result_cache(False)
        try:
            ctx_off = get_context(4, cache_dir=str(tmp_path / "y"))
            assert ctx_off.results_store is None
        finally:
            runner_mod.set_result_cache(True)


class TestWorkerProtocol:
    def test_missing_context_raises_actionable_error(self):
        saved = getattr(_WORKER, "ctx", None)
        _WORKER.ctx = None
        try:
            with pytest.raises(RuntimeError, match="initializer"):
                _run_one((_wl(), RM2, 3))
        finally:
            _WORKER.ctx = saved

    def test_spawn_workers_rebuild_context(self, system4, db4):
        """Under the spawn start method nothing is inherited: the pool
        initializer must rebuild ``_WORKER.ctx`` from pickled initargs."""
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        ctx = ExperimentContext(system=system4, db=db4, max_slices=3)
        wls = [_wl("sp0"), Workload(name="sp1", apps=("namd_like",) * 4)]
        serial = ctx.run_many(wls, RM2, processes=1)
        tasks = [(wl, RM2, 3) for wl in wls]
        spawned = parallel_map(
            _run_one, tasks, processes=2,
            initializer=_init_worker, initargs=(ctx,),
            start_method="spawn",
        )
        for a, b in zip(serial, spawned):
            assert_bit_identical(a, b)
