"""Settlement at admission: a stored run is answered on the submission itself.

A request whose run is already in the results store is created ``done``
by :meth:`~repro.service.pool.ReplayService.submit_info`: it takes no
queue slot, no worker and no journal record, and ``POST /jobs`` answers
``200`` with the ``result_hash``.  Covers the HTTP surface, admission at a
full queue, a poisoned entry falling through to re-simulation, racing
identical submissions, the one-lookup-per-job store counters, the worker
thread as the one store writer under both executors (a fresh job is put
once; a failed put costs no second replay), and recovered stored jobs
settling at admission with a journalled ``published`` record.
"""

from __future__ import annotations

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments.runner import ExperimentContext
from repro.service import JobJournal, ReplayService, faults, make_server
from repro.service import pool as pool_mod
from repro.service.faults import FaultPlan, FaultRule
from repro.simulation.results_store import ResultsStore

#: Small fidelity for every service test: horizons stay tiny, replay fast.
MAX_SLICES = 5

WAIT_S = 240.0


def _factory(system4, db4, root, subdir="results"):
    def factory(ncores):
        assert ncores == 4, "this suite only requests 4-core jobs"
        return ExperimentContext(
            system=system4,
            db=db4,
            max_slices=MAX_SLICES,
            results_store=ResultsStore(str(root / subdir)),
        )

    return factory


def _s1_body(seed=0, name="admission-s1") -> dict:
    return {
        "shape": "S1",
        "ncores": 4,
        "params": {"rate_per_interval": 0.25, "horizon_intervals": 16, "seed": seed},
        "manager": {"kind": "coordinated", "name": "rm2-combined"},
        "name": name,
    }


def _seed_store(factory, *bodies) -> dict[str, str]:
    """Run ``bodies`` through a throwaway service; ``{job_id: result_hash}``."""
    with ReplayService(context_factory=factory, workers=1) as svc:
        jobs = [svc.submit(dict(body)) for body in bodies]
        for job in jobs:
            assert job.wait(WAIT_S) and job.status == "done", job.error
        return {job.job_id: job.result_hash for job in jobs}


@contextlib.contextmanager
def _http(service):
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def _post(base: str, payload: dict):
    req = urllib.request.Request(
        base + "/jobs",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=WAIT_S) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def _get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=WAIT_S) as resp:
        assert resp.status == 200
        return json.load(resp)


class TestStoredRequestOverHTTP:
    def test_post_answers_done_and_every_endpoint_serves_the_hash(self, system4, db4, tmp_path):
        factory = _factory(system4, db4, tmp_path)
        ((job_id, stored_hash),) = _seed_store(factory, _s1_body()).items()
        jdir = str(tmp_path / "journal")
        svc = ReplayService(context_factory=factory, workers=1, journal=jdir)
        try:
            with _http(svc) as base:
                status, out = _post(base, _s1_body())
                assert status == 200
                assert out["status"] == "done" and out["deduped"] is False
                assert out["job_id"] == job_id
                assert out["cache_hit"] is True and out["result_hash"] == stored_hash
                polled = _get_json(base, f"/jobs/{job_id}")
                assert polled["status"] == "done" and polled["result_hash"] == stored_hash
                result = _get_json(base, f"/jobs/{job_id}/result")
                assert result["result_hash"] == stored_hash and result["cache_hit"] is True
                with urllib.request.urlopen(
                    base + f"/jobs/{job_id}/stream?timeout=0", timeout=WAIT_S
                ) as resp:
                    raw = resp.read().decode()
                last_event = raw.strip().split("\n\n")[-1]
                done = json.loads(last_event.splitlines()[1].removeprefix("data: "))
                assert done["result_hash"] == stored_hash
            m = svc.metrics()
            assert m["jobs_cache_hits"] == 1 and m["jobs_done"] == 1
            assert m["simulations"] == 0 and m["journal_appends"] == 0
            # Settlement at admission is not worker latency.
            assert m["job_latency_p50_s"] == 0.0
            assert list(svc._latencies_s["interactive"]) == []
        finally:
            svc.close()
        # No journal record, yet the journal file exists (created empty).
        journal = JobJournal(jdir)
        assert journal.records() == [] and journal.pending() == {}

    def test_full_queue_admits_a_stored_request(self, system4, db4, tmp_path, monkeypatch):
        factory = _factory(system4, db4, tmp_path)
        ((stored_id, stored_hash),) = _seed_store(factory, _s1_body(seed=5)).items()
        started, release = threading.Event(), threading.Event()

        def blocked(ctx, item, manager):
            started.set()
            release.wait(WAIT_S)
            raise RuntimeError("released without result")

        monkeypatch.setattr(pool_mod, "_execute_replay", blocked)
        svc = ReplayService(context_factory=factory, workers=1, max_queue=1, max_retries=0)
        try:
            with _http(svc) as base:
                assert _post(base, _s1_body(seed=0))[0] == 202
                assert started.wait(WAIT_S), "worker never claimed the first job"
                assert _post(base, _s1_body(seed=1))[0] == 202
                status, out = _post(base, _s1_body(seed=2))
                assert status == 429 and out["queue_depth"] == 1
                status, out = _post(base, _s1_body(seed=5))
                assert status == 200 and out["status"] == "done"
                assert out["job_id"] == stored_id and out["result_hash"] == stored_hash
            m = svc.metrics()
            assert m["jobs_rejected"] == 1 and m["queue_depth"] == 1
        finally:
            release.set()
            svc.close()


class TestPoisonedEntry:
    def test_corrupt_entry_quarantines_queues_and_resimulates(self, system4, db4, tmp_path):
        factory = _factory(system4, db4, tmp_path)
        ((job_id, reference),) = _seed_store(factory, _s1_body(name="admission-rot")).items()
        plan = FaultPlan(3, [FaultRule(faults.STORE_LOAD_CORRUPT, rate=1.0, max_fires=1)])
        with faults.installed(plan):
            svc = ReplayService(context_factory=factory, workers=1)
            try:
                job = svc.submit(_s1_body(name="admission-rot"))
                assert job.job_id == job_id
                assert job.wait(WAIT_S) and job.status == "done", job.error
                assert job.result_hash == reference
                assert not job.cache_hit  # the poisoned entry was not served
                m = svc.metrics()
                assert m["simulations"] == 1 and m["store_quarantined"] == 1
                # The admission lookup is the only one: one miss.
                assert (m["store_hits"], m["store_misses"], m["store_puts"]) == (0, 1, 1)
                assert m["jobs_cache_hits"] == 0
            finally:
                svc.close()


class TestRacingSubmissions:
    def test_eight_threads_coalesce_onto_one_settled_job(self, system4, db4, tmp_path):
        factory = _factory(system4, db4, tmp_path)
        ((job_id, stored_hash),) = _seed_store(factory, _s1_body()).items()
        svc = ReplayService(context_factory=factory, workers=1)
        svc.ctx_for(4)  # build the context before the race
        barrier = threading.Barrier(8)
        answers = []

        def submit() -> None:
            barrier.wait(WAIT_S)
            answers.append(svc.submit_info(_s1_body()))

        try:
            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT_S)
            assert len(answers) == 8
            jobs = {id(job) for job, _ in answers}
            assert len(jobs) == 1
            job = answers[0][0]
            assert job.job_id == job_id and job.result_hash == stored_hash
            assert job.status == "done" and job.submissions == 8
            assert sorted(deduped for _, deduped in answers) == [False] + [True] * 7
            m = svc.metrics()
            assert m["jobs_cache_hits"] == 1 and m["simulations"] == 0
        finally:
            svc.close()


class TestOneLookupPerJob:
    def test_fresh_job_counts_one_miss_and_stored_one_hit(self, system4, db4, tmp_path):
        factory = _factory(system4, db4, tmp_path)
        with ReplayService(context_factory=factory, workers=1) as fresh:
            job = fresh.submit(_s1_body())
            assert job.wait(WAIT_S) and job.status == "done"
            assert not job.cache_hit
            fresh.submit(_s1_body())  # coalesces: no lookup at all
            m = fresh.metrics()
            assert (m["store_hits"], m["store_misses"], m["store_puts"]) == (0, 1, 1)
            assert m["simulations"] == 1 and m["cache_hit_rate"] == 0.0
        with ReplayService(context_factory=factory, workers=1) as warm:
            again = warm.submit(_s1_body())
            assert again.cache_hit and again.result_hash == job.result_hash
            m = warm.metrics()
            assert (m["store_hits"], m["store_misses"], m["store_puts"]) == (1, 0, 0)
            assert m["simulations"] == 0 and m["cache_hit_rate"] == 1.0


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestOneStoreWriter:
    """The service worker thread puts every result, whichever executor ran it."""

    def test_fresh_job_is_put_once(self, system4, db4, tmp_path, executor):
        factory = _factory(system4, db4, tmp_path)
        with ReplayService(
            context_factory=factory, workers=1, executor=executor, processes=1
        ) as svc:
            job = svc.submit(_s1_body(name="writer-fresh"))
            assert job.wait(WAIT_S) and job.status == "done", job.error
            m = svc.metrics()
            assert (m["store_hits"], m["store_misses"], m["store_puts"]) == (0, 1, 1)
            assert m["simulations"] == 1 and m["attempts_total"] == 1
        with ReplayService(context_factory=factory, workers=1) as warm:
            again = warm.submit(_s1_body(name="writer-fresh"))
            assert again.cache_hit and again.result_hash == job.result_hash

    def test_failed_put_costs_no_second_attempt(
        self, system4, db4, tmp_path, executor
    ):
        plan = FaultPlan(5, [FaultRule(faults.STORE_PUT_FAIL, rate=1.0, max_fires=1)])
        with faults.installed(plan):
            svc = ReplayService(
                context_factory=_factory(system4, db4, tmp_path),
                workers=1,
                executor=executor,
                processes=1,
            )
            try:
                job = svc.submit(_s1_body(name="writer-put-fail"))
                assert job.wait(WAIT_S) and job.status == "done", job.error
                assert job.attempts == 1
                m = svc.metrics()
                assert m["store_put_errors"] == 1 and m["store_puts"] == 0
                assert m["attempts_total"] == 1 and m["jobs_retried"] == 0
                assert m["simulations"] == 1
                breaker = getattr(svc.executor, "breaker", None)
                if breaker is not None:  # the put failure is not a worker death
                    assert breaker.state == breaker.CLOSED
                    assert breaker._consecutive_failures == 0
            finally:
                svc.close()
        assert plan.report()[faults.STORE_PUT_FAIL]["fires"] == 1


class TestRecoveredStoredJobs:
    def test_settle_at_admission_as_published(self, system4, db4, tmp_path, monkeypatch):
        """After a SIGKILL-style restart, a recovered job whose run is
        already stored settles on its re-submission, and its journal gets
        the ``published`` record that settles it there too."""
        factory = _factory(system4, db4, tmp_path)
        bodies = [_s1_body(seed=s) for s in (0, 1, 2)]
        stored = _seed_store(factory, *bodies[:2])
        jdir = str(tmp_path / "journal")
        started, release = threading.Event(), threading.Event()

        def blocked(ctx, item, manager):
            started.set()
            release.wait(WAIT_S)
            raise RuntimeError("abandoned worker released")

        with monkeypatch.context() as m:
            m.setattr(pool_mod, "_execute_replay", blocked)
            crashed = ReplayService(
                context_factory=_factory(system4, db4, tmp_path, "store-crashed"),
                workers=1,
                journal=jdir,
            )
            jobs = [crashed.submit(dict(b)) for b in bodies]
            assert started.wait(WAIT_S), "worker never claimed a job"
            # No close(): the service is abandoned mid-queue, like a SIGKILL.
        assert set(JobJournal(jdir).pending()) == {j.job_id for j in jobs}

        svc = ReplayService(context_factory=factory, workers=1, journal=jdir, autostart=False)
        try:
            recovered = svc.recover()
            assert {j.job_id for j in recovered} == {j.job_id for j in jobs}
            # Settled by recover() itself: the workers have not started yet.
            settled = {j.job_id: j.result_hash for j in recovered if j.status == "done"}
            assert settled == stored
            assert all(j.cache_hit and j.recovered for j in recovered if j.job_id in stored)
            svc.start()
            for job in recovered:
                assert job.wait(WAIT_S) and job.status == "done", job.error
                assert job.recovered and job.cache_hit == (job.job_id in stored)
            m = svc.metrics()
            assert m["simulations"] == 1 and m["jobs_cache_hits"] == 2
            assert m["jobs_recovered"] == 3
            journal = JobJournal(jdir)
            published = {
                r.job_id: r.result_hash for r in journal.records() if r.event == "published"
            }
            assert published == {j.job_id: j.result_hash for j in recovered}
            claimed = {r.job_id for r in journal.records() if r.event == "claimed"}
            assert claimed == {j.job_id for j in recovered} - set(stored)
            assert journal.pending() == {}
        finally:
            svc.close()
            # Release and drain the abandoned service, so none of its work
            # outlives this test (a later fault plan would see its dispatches).
            release.set()
            crashed.close()
