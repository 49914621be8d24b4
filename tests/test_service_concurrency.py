"""Deterministic concurrency harness for the scenario-replay service.

The acceptance contract of the service layer:

* **dedup storm** -- 8 concurrent identical submissions (in-process and
  over a real socket) trigger exactly *one* simulation (dedup counter
  asserted) and all 8 responses carry byte-identical result hashes;
* **mixed storm** -- a 16-job S1-S7 (+ FIXED) storm through the worker
  pool matches serial ``ExperimentContext``-style runs number-for-number;
* **crash** -- a worker crash mid-job surfaces a failed status (never a
  hang), leaves the pool serving, and a later identical submission
  retries cleanly.

Every wait is bounded, so a deadlock fails the suite instead of hanging
it.  The storms are deterministic: all randomness lives in the scenario
generators' content-keyed RNG streams, and the service path reuses the
library's replay machinery verbatim.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.service.pool as pool_mod
from repro.experiments.runner import ExperimentContext
from repro.scenarios.events import Scenario
from repro.service import ReplayService, build_item, job_spec_from_json, make_server
from repro.simulation.results_store import ResultsStore
from repro.simulation.rma_sim import simulate_scenario, simulate_workload
from tests.test_engine_equivalence import assert_bit_identical

MAX_SLICES = 5

#: Bound on every wait in this suite: generous on CI, fatal on deadlock.
WAIT_S = 240.0


def _factory(system4, db4, system16, db16, tmp_path):
    systems = {4: (system4, db4), 16: (system16, db16)}

    def factory(ncores):
        system, db = systems[ncores]
        return ExperimentContext(
            system=system, db=db, max_slices=MAX_SLICES,
            results_store=ResultsStore(str(tmp_path / "results")),
        )

    return factory


@pytest.fixture
def factory(system4, db4, system16, db16, tmp_path):
    return _factory(system4, db4, system16, db16, tmp_path)


def _s1_body(name="storm-s1", seed=0, manager=None) -> dict:
    return {
        "shape": "S1",
        "ncores": 4,
        "params": {"rate_per_interval": 0.25, "horizon_intervals": 16, "seed": seed},
        "manager": manager or {"kind": "coordinated", "name": "rm2-combined"},
        "name": name,
    }


class TestIdenticalSubmissionStorm:
    """8 concurrent identical submissions -> one simulation, one hash."""

    def test_eight_submissions_one_simulation(self, factory, monkeypatch):
        service = ReplayService(context_factory=factory, workers=4)
        try:
            # Hold the (single) simulation until every client has submitted,
            # so the dedup window genuinely overlaps the in-flight run.
            all_submitted = threading.Event()
            real = pool_mod._execute_replay

            def gated(ctx, item, manager):
                assert all_submitted.wait(WAIT_S)
                return real(ctx, item, manager)

            monkeypatch.setattr(pool_mod, "_execute_replay", gated)

            jobs, errors = [], []
            barrier = threading.Barrier(8)

            def client():
                try:
                    barrier.wait(WAIT_S)
                    jobs.append(service.submit(_s1_body()))
                except Exception as exc:  # surfaces in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT_S)
            assert not errors and len(jobs) == 8
            all_submitted.set()

            for job in jobs:
                assert job.wait(WAIT_S), "client response never settled"
                assert job.status == "done"
            # Exactly one simulation; the other 7 coalesced at submit time.
            assert service.simulations == 1
            assert service.dedup_hits == 7
            assert len({job.job_id for job in jobs}) == 1
            assert jobs[0].submissions == 8
            # All 8 responses carry byte-identical result hashes.
            hashes = {job.result_hash for job in jobs}
            assert len(hashes) == 1 and None not in hashes
            for job in jobs[1:]:
                assert_bit_identical(jobs[0].result, job.result)
        finally:
            service.close()

    def test_eight_http_clients_one_simulation(self, factory):
        service = ReplayService(context_factory=factory, workers=4)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            body = json.dumps(_s1_body(name="storm-s1-http")).encode()
            responses, errors = [], []
            barrier = threading.Barrier(8)

            def client():
                try:
                    barrier.wait(WAIT_S)
                    req = urllib.request.Request(
                        base + "/jobs", data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(req, timeout=WAIT_S) as resp:
                        responses.append(json.load(resp))
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT_S)
            assert not errors and len(responses) == 8
            ids = {r["job_id"] for r in responses}
            assert len(ids) == 1
            job = service.get_job(ids.pop())
            assert job.wait(WAIT_S) and job.status == "done"
            assert service.simulations == 1
            # All 8 clients fetch byte-identical result hashes.
            hashes = set()
            for _ in range(8):
                with urllib.request.urlopen(
                    f"{base}/jobs/{job.job_id}/result", timeout=WAIT_S
                ) as resp:
                    hashes.add(json.load(resp)["result_hash"])
            assert hashes == {job.result_hash}
        finally:
            server.shutdown()
            server.server_close()
            service.close()


def _storm_bodies() -> list[dict]:
    """16 mixed jobs across every shape the service accepts."""
    rm2 = {"kind": "coordinated", "name": "rm2-combined"}
    base = {"kind": "baseline", "name": "baseline"}
    clustered = {
        "kind": "coordinated", "name": "rm2-combined-c4", "cluster_size": 4,
    }
    bodies = [
        _s1_body("storm-a", seed=0),
        _s1_body("storm-b", seed=1),
        _s1_body("storm-base", seed=0, manager=base),
        {
            "shape": "S2", "ncores": 4, "manager": rm2, "name": "storm-s2t",
            "params": {"start_slack": 0.4, "end_slack": 0.0,
                       "horizon_intervals": 16, "seed": 0},
        },
        {
            "shape": "S2", "ncores": 4, "manager": rm2, "name": "storm-s2r",
            "params": {"start_slack": 0.0, "end_slack": 0.4,
                       "horizon_intervals": 16, "seed": 1},
        },
        {
            "shape": "S3", "ncores": 4, "manager": rm2, "name": "storm-s3a",
            "params": {"cycles": 4, "horizon_intervals": 16, "seed": 0},
        },
        {
            "shape": "S3", "ncores": 4, "manager": base, "name": "storm-s3b",
            "params": {"cycles": 4, "horizon_intervals": 16, "seed": 1},
        },
        {
            "shape": "S4", "ncores": 4, "manager": rm2, "name": "storm-s4a",
            "params": {"burst_start_intervals": 2.0, "burst_length_intervals": 4.0,
                       "horizon_intervals": 16, "seed": 0},
        },
        {
            "shape": "S4", "ncores": 4, "manager": base, "name": "storm-s4b",
            "params": {"burst_start_intervals": 2.0, "burst_length_intervals": 8.0,
                       "horizon_intervals": 16, "seed": 1},
        },
        {
            "shape": "S5", "ncores": 16, "manager": clustered, "name": "storm-s5",
            "params": {"cluster_size": 4, "cycles": 4, "idle_intervals": 1.5,
                       "horizon_intervals": 32, "seed": 0},
        },
        {
            "shape": "S6", "ncores": 16, "manager": clustered, "name": "storm-s6",
            "params": {"hot_fraction": 0.25, "swaps_per_hot_core": 2,
                       "horizon_intervals": 32, "seed": 0},
        },
        {
            "shape": "S7", "ncores": 16, "name": "storm-s7",
            "manager": {"kind": "coordinated", "name": "rm2-combined-c8",
                        "cluster_size": 8},
            "params": {"cluster_size": 8, "cycles": 4, "horizon_intervals": 32,
                       "seed": 0},
        },
        {
            "shape": "S7", "ncores": 16, "manager": base, "name": "storm-s7b",
            "params": {"cluster_size": 8, "cycles": 4, "horizon_intervals": 32,
                       "seed": 0},
        },
        {
            "shape": "FIXED", "ncores": 4, "manager": rm2, "name": "storm-f1",
            "params": {"apps": ["mcf_like", "soplex_like",
                                "libquantum_like", "povray_like"]},
        },
        {
            "shape": "FIXED", "ncores": 4, "manager": base, "name": "storm-f2",
            "params": {"apps": ["astar_like", "lbm_like",
                                "namd_like", "mcf_like"], "slack": 0.1},
        },
        {
            "shape": "S1", "ncores": 16, "manager": clustered,
            "name": "storm-s1-16",
            "params": {"rate_per_interval": 0.25, "horizon_intervals": 32,
                       "seed": 2},
        },
    ]
    assert len(bodies) == 16
    return bodies


class TestMixedStorm:
    """16 concurrent mixed S1-S7 jobs == serial library runs, number for number."""

    def test_storm_matches_serial_runs(
        self, factory, system4, db4, system16, db16
    ):
        bodies = _storm_bodies()
        service = ReplayService(context_factory=factory, workers=4)
        try:
            jobs = [service.submit(body) for body in bodies]
            assert len({job.job_id for job in jobs}) == 16, "specs must be distinct"
            for job in jobs:
                assert job.wait(WAIT_S), f"job {job.spec.name} never settled"
                assert job.status == "done", job.error
            assert service.jobs_done == 16 and service.jobs_failed == 0
        finally:
            service.close()

        # Serial reference: the plain library path, no store, no service.
        systems = {4: (system4, db4), 16: (system16, db16)}
        for body, job in zip(bodies, jobs):
            system, db = systems[body["ncores"]]
            spec = job_spec_from_json(body)
            item = build_item(spec, db.benchmarks())
            if isinstance(item, Scenario):
                reference = simulate_scenario(
                    system, db, item, spec.manager.build(), max_slices=MAX_SLICES
                )
            else:
                reference = simulate_workload(
                    system, db, item, spec.manager.build(), max_slices=MAX_SLICES
                )
            assert_bit_identical(job.result, reference)


class TestWorkerCrash:
    """A crash mid-job becomes a failed status -- never a hang."""

    def test_crash_surfaces_failed_status(self, factory, monkeypatch):
        real = pool_mod._execute_replay

        def exploding(ctx, item, manager):
            if item.name.startswith("crash-"):
                raise RuntimeError("simulated worker crash")
            return real(ctx, item, manager)

        monkeypatch.setattr(pool_mod, "_execute_replay", exploding)
        service = ReplayService(context_factory=factory, workers=2)
        try:
            doomed = service.submit(_s1_body(name="crash-s1"))
            healthy = service.submit(_s1_body(name="storm-ok"))
            assert doomed.wait(WAIT_S), "crashed job must settle, not hang"
            assert doomed.status == "failed"
            assert "RuntimeError" in doomed.error
            assert "simulated worker crash" in doomed.error
            # The pool survived the crash and still serves other jobs.
            assert healthy.wait(WAIT_S) and healthy.status == "done"
            assert service.jobs_failed == 1 and service.jobs_done == 1

            # A later identical submission retries instead of inheriting
            # the failure forever.
            monkeypatch.setattr(pool_mod, "_execute_replay", real)
            retried = service.submit(_s1_body(name="crash-s1"))
            assert retried is not doomed and retried.job_id == doomed.job_id
            assert retried.wait(WAIT_S) and retried.status == "done"
        finally:
            service.close()

    def test_crash_over_http_returns_410(self, factory, monkeypatch):
        monkeypatch.setattr(
            pool_mod, "_execute_replay",
            lambda ctx, item, manager: (_ for _ in ()).throw(
                RuntimeError("simulated worker crash")
            ),
        )
        service = ReplayService(context_factory=factory, workers=1)
        server = make_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            req = urllib.request.Request(
                base + "/jobs", data=json.dumps(_s1_body(name="crash-http")).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=WAIT_S) as resp:
                job_id = json.load(resp)["job_id"]
            assert service.get_job(job_id).wait(WAIT_S)
            for path in (f"/jobs/{job_id}/result", f"/jobs/{job_id}/stream"):
                try:
                    urllib.request.urlopen(base + path, timeout=WAIT_S)
                except urllib.error.HTTPError as err:
                    assert err.code == 410
                    assert "crash" in json.load(err)["error"]
                else:  # pragma: no cover - fails loudly if reached
                    raise AssertionError(f"{path} must report the crash")
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestCrossExecutorStorm:
    """Process-pool and thread-pool executors are byte-identical on the storm.

    The acceptance criterion for the hardened runtime: the same 16-job
    S1-S7 storm, run cold through the thread executor and again cold
    through the process-pool executor (separate stores, so every job truly
    simulates in a worker process), produces identical content hashes and
    bit-identical results -- parallelism must never change the numbers.
    """

    def test_process_pool_matches_thread_pool(
        self, system4, db4, system16, db16, tmp_path
    ):
        systems = {4: (system4, db4), 16: (system16, db16)}

        def make_factory(subdir):
            def factory(ncores):
                system, db = systems[ncores]
                return ExperimentContext(
                    system=system, db=db, max_slices=MAX_SLICES,
                    results_store=ResultsStore(str(tmp_path / subdir)),
                )

            return factory

        bodies = _storm_bodies()
        thread_runs = {}
        service = ReplayService(context_factory=make_factory("store-thread"), workers=4)
        try:
            jobs = [service.submit(body) for body in bodies]
            for job in jobs:
                assert job.wait(WAIT_S), f"thread job {job.spec.name} never settled"
                assert job.status == "done", job.error
                thread_runs[job.spec.name] = job
            assert service.simulations == 16
        finally:
            service.close()

        service = ReplayService(
            context_factory=make_factory("store-process"), workers=2,
            executor="process", processes=2,
        )
        try:
            jobs = [service.submit(body) for body in bodies]
            for job in jobs:
                assert job.wait(WAIT_S), f"process job {job.spec.name} never settled"
                assert job.status == "done", job.error
                reference = thread_runs[job.spec.name]
                assert job.job_id == reference.job_id
                assert job.result_hash == reference.result_hash, job.spec.name
                assert_bit_identical(job.result, reference.result)
            # Cold store: every job genuinely ran inside the process pool.
            assert service.simulations == 16
        finally:
            service.close()
