"""Scenario-replay service: functional suite (in-process and over a socket).

Covers the request/job model (validation, canonicalisation, the hypothesis
round-trip of the job-hash canonicalisation), single-job happy paths
bit-identical to the library path, results-store serving across service
instances, failed-job retry, the bounded latency window, every HTTP endpoint including the server-sent
interval-sample stream, and the keep-alive transport (one write per
response, TCP_NODELAY).

The concurrency harness (identical-submission dedup storms, S1-S7 mixed
storms, crash-mid-job) lives in ``tests/test_service_concurrency.py``; the
golden-hash suite in ``tests/test_service_golden.py``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import RM2, ExperimentContext, ManagerSpec
from repro.service import JobSpec, ReplayService, build_item, job_spec_from_json, make_server
from repro.service.jobs import SCENARIO_SHAPES, WORKLOAD_SHAPE
from repro.simulation.metrics import RunResult, run_result_digest
from repro.simulation.results_store import ResultsStore
from repro.simulation.rma_sim import simulate_scenario, simulate_workload
from tests.test_engine_equivalence import assert_bit_identical

#: Small fidelity for every service test: horizons stay tiny, replay fast.
MAX_SLICES = 5

S1_PARAMS = {"rate_per_interval": 0.25, "horizon_intervals": 16, "seed": 0}


def _factory(system4, db4, tmp_path):
    """Service context factory over the session db fixtures + a fresh store."""

    def factory(ncores):
        assert ncores == 4, "this suite only requests 4-core jobs"
        return ExperimentContext(
            system=system4, db=db4, max_slices=MAX_SLICES,
            results_store=ResultsStore(str(tmp_path / "results")),
        )

    return factory


def _s1_request(**overrides) -> dict:
    req = {
        "shape": "S1",
        "ncores": 4,
        "params": dict(S1_PARAMS),
        "manager": {"kind": "coordinated", "name": "rm2-combined"},
        "name": "svc-s1",
    }
    req.update(overrides)
    return req


@pytest.fixture
def service(system4, db4, tmp_path):
    svc = ReplayService(context_factory=_factory(system4, db4, tmp_path), workers=2)
    yield svc
    svc.close()


class TestJobSpecValidation:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            job_spec_from_json(_s1_request(shape="S99"))

    def test_unknown_param_rejected_at_submit(self):
        bad = _s1_request()
        bad["params"]["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            job_spec_from_json(bad)

    def test_unknown_request_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            job_spec_from_json(_s1_request(priority="high"))

    def test_bad_manager_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown manager kind"):
            job_spec_from_json(_s1_request(manager={"kind": "quantum"}))

    def test_manager_requires_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            job_spec_from_json(_s1_request(manager={"name": "x"}))

    def test_ncores_must_be_int(self):
        with pytest.raises(ValueError, match="ncores"):
            job_spec_from_json(_s1_request(ncores="four"))
        with pytest.raises(ValueError, match="ncores"):
            job_spec_from_json(_s1_request(ncores=True))

    def test_params_order_is_canonicalised(self):
        a = JobSpec("S1", 4, RM2, params=(("seed", 1), ("horizon_intervals", 8)))
        b = JobSpec("S1", 4, RM2, params=(("horizon_intervals", 8), ("seed", 1)))
        assert a == b and a.canonical() == b.canonical()

    def test_fixed_workload_needs_matching_apps(self, service):
        with pytest.raises(ValueError, match="exactly ncores"):
            service.submit({
                "shape": WORKLOAD_SHAPE, "ncores": 4,
                "params": {"apps": ["mcf_like"]},
                "manager": {"kind": "baseline"},
            })
        with pytest.raises(ValueError, match="unknown benchmarks"):
            service.submit({
                "shape": WORKLOAD_SHAPE, "ncores": 4,
                "params": {"apps": ["mcf_like", "nope_like", "mcf_like", "mcf_like"]},
                "manager": {"kind": "baseline"},
            })


def _manager_specs() -> st.SearchStrategy:
    return st.builds(
        ManagerSpec,
        kind=st.sampled_from(["baseline", "coordinated", "independent"]),
        name=st.text(alphabet="abc-", max_size=8),
        control_dvfs=st.booleans(),
        control_core_size=st.booleans(),
        control_partitioning=st.booleans(),
        mlp_model=st.sampled_from(["model1", "model2", "model3"]),
        oracle=st.booleans(),
        cluster_size=st.one_of(st.none(), st.integers(1, 8)),
        overprovision=st.floats(1.0, 4.0, allow_nan=False),
    )


@st.composite
def _job_specs(draw) -> JobSpec:
    shape = draw(st.sampled_from(sorted(SCENARIO_SHAPES)))
    params = {}
    if draw(st.booleans()):
        params["seed"] = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        params["horizon_intervals"] = draw(st.integers(1, 512))
    if draw(st.booleans()):
        params["interval_ns"] = draw(
            st.floats(1e6, 1e9, allow_nan=False, allow_infinity=False)
        )
    return JobSpec(
        shape=shape,
        ncores=draw(st.integers(1, 256)),
        manager=draw(_manager_specs()),
        params=tuple(params.items()),
        name=draw(st.text(alphabet="abcdefgh0123-", max_size=12)),
    )


class TestJobHashCanonicalisation:
    """The wire format round-trips the job-hash canonicalisation exactly."""

    @settings(max_examples=200, deadline=None)
    @given(spec=_job_specs())
    def test_json_roundtrip_preserves_canonical_form(self, spec):
        wire = json.loads(json.dumps(spec.to_json()))
        back = job_spec_from_json(wire)
        assert back == spec
        assert back.canonical() == spec.canonical()
        # One more lap must be a fixed point (canonicalisation idempotent).
        again = job_spec_from_json(json.loads(json.dumps(back.to_json())))
        assert again == back

    @settings(max_examples=50, deadline=None)
    @given(spec=_job_specs())
    def test_canonical_distinguishes_manager_and_params(self, spec):
        bumped = JobSpec(
            shape=spec.shape, ncores=spec.ncores, manager=spec.manager,
            params=tuple(dict(spec.params, seed=12345678901).items()),
            name=spec.name,
        )
        assert bumped.canonical() != spec.canonical()


class TestServiceSingleJob:
    def test_job_done_bit_identical_to_library_path(self, service, system4, db4):
        job = service.submit(_s1_request())
        assert job.wait(120), "job did not settle"
        assert job.status == "done" and job.error is None
        spec = job_spec_from_json(_s1_request())
        scenario = build_item(spec, db4.benchmarks())
        library = simulate_scenario(
            system4, db4, scenario, RM2.build(), max_slices=MAX_SLICES
        )
        assert_bit_identical(job.result, library)
        assert job.result_hash == run_result_digest(library)

    def test_fixed_workload_job(self, service, system4, db4):
        apps = ["mcf_like", "soplex_like", "libquantum_like", "povray_like"]
        job = service.submit({
            "shape": WORKLOAD_SHAPE, "ncores": 4,
            "params": {"apps": apps, "slack": 0.1},
            "manager": {"kind": "coordinated", "name": "rm2-combined"},
            "name": "svc-fixed",
        })
        assert job.wait(120) and job.status == "done"
        wl = build_item(job.spec, db4.benchmarks())
        library = simulate_workload(
            system4, db4, wl, RM2.build(), max_slices=MAX_SLICES
        )
        assert_bit_identical(job.result, library)

    def test_restarted_service_serves_from_store(self, system4, db4, tmp_path):
        factory = _factory(system4, db4, tmp_path)
        with ReplayService(context_factory=factory, workers=1) as first:
            a = first.submit(_s1_request())
            assert a.wait(120) and a.status == "done"
            assert first.simulations == 1
        # A fresh service over the same store must not re-simulate.
        with ReplayService(context_factory=factory, workers=1) as second:
            b = second.submit(_s1_request())
            assert b.wait(120) and b.status == "done"
            assert second.simulations == 0
            assert b.cache_hit is True
            assert b.result_hash == a.result_hash
            assert_bit_identical(a.result, b.result)

    def test_metrics_snapshot_counts(self, service):
        job = service.submit(_s1_request())
        assert job.wait(120)
        service.submit(_s1_request())  # dedup hit on the finished job
        m = service.metrics()
        assert m["jobs_done"] == 1 and m["jobs_failed"] == 0
        assert m["simulations"] == 1 and m["jobs_deduped"] == 1
        assert m["workers"] == 2
        assert m["job_latency_p50_s"] > 0.0
        assert m["job_latency_p95_s"] >= m["job_latency_p50_s"]

    def test_latency_window_is_bounded(self, system4, db4, tmp_path, monkeypatch):
        """Percentiles come from a fixed per-lane window, not all history."""
        import repro.service.pool as pool_mod

        class InstantExecutor:
            def run(self, ctx, job_id, item, manager):
                return RunResult("stub", "stub", [])

            def close(self):
                pass

        window = 8
        monkeypatch.setattr(pool_mod, "LATENCY_WINDOW", window)
        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1,
            executor=InstantExecutor(),
        )
        settled = {"interactive": [], "bulk": []}
        try:
            for seed in range(4 * window):
                lane = "bulk" if seed % 3 == 0 else "interactive"
                job = svc.submit(_s1_request(params=dict(S1_PARAMS, seed=seed)), lane=lane)
                assert job.wait(60) and job.status == "done"
                settled[lane].append(job.finished_s - job.submitted_s)
            m = svc.metrics()
        finally:
            svc.close()
        assert min(len(history) for history in settled.values()) > window
        for lane, history in settled.items():
            newest = history[-window:]
            assert list(svc._latencies_s[lane]) == newest
            assert m[f"lane_latency_{lane}_p50_s"] == svc._percentile(sorted(newest), 0.50)
        retained = sorted(v for history in settled.values() for v in history[-window:])
        assert m["job_latency_p50_s"] == svc._percentile(retained, 0.50)
        assert m["job_latency_p95_s"] == svc._percentile(retained, 0.95)


@pytest.fixture
def http_base(service):
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _post(base: str, payload: dict):
    req = urllib.request.Request(
        base + "/jobs", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.load(resp)


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=120) as resp:
        return resp.status, json.load(resp)


class TestHTTPEndpoints:
    def test_submit_poll_result(self, http_base, service):
        status, out = _post(http_base, _s1_request())
        assert status == 202 and out["status"] in ("queued", "running", "done")
        job_id = out["job_id"]
        assert service.get_job(job_id).wait(120)
        _, polled = _get(http_base, f"/jobs/{job_id}")
        assert polled["status"] == "done" and polled["result_hash"]
        _, result = _get(http_base, f"/jobs/{job_id}/result")
        assert result["result_hash"] == polled["result_hash"]
        assert result["n_interval_samples"] > 0
        assert len(result["apps"]) == 4
        # Resubmitting the identical body dedups onto the same job id.
        status2, again = _post(http_base, _s1_request())
        assert status2 == 200 and again["deduped"] is True
        assert again["job_id"] == job_id

    def test_submit_rejects_bad_requests(self, http_base):
        for payload in (
            _s1_request(shape="S99"),
            _s1_request(manager={"kind": "quantum"}),
            {"shape": "S1"},
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(http_base, payload)
            assert err.value.code == 400
            assert "error" in json.load(err.value)

    def test_unknown_job_404(self, http_base):
        for path in ("/jobs/deadbeef", "/jobs/deadbeef/result", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(http_base, path)
            assert err.value.code == 404

    def test_result_conflict_while_pending(self, http_base, service, monkeypatch):
        import repro.service.pool as pool_mod

        gate = threading.Event()
        real = pool_mod._execute_replay

        def stalled(ctx, item, manager):
            gate.wait(60)
            return real(ctx, item, manager)

        monkeypatch.setattr(pool_mod, "_execute_replay", stalled)
        _, out = _post(http_base, _s1_request(name="svc-s1-pending"))
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(http_base, f"/jobs/{out['job_id']}/result")
        assert err.value.code == 409
        gate.set()
        assert service.get_job(out["job_id"]).wait(120)

    def test_healthz_and_metrics(self, http_base):
        _, health = _get(http_base, "/healthz")
        assert health["status"] == "healthy" and health["workers"] == 2
        # The health payload names *why* a state holds, not just the state.
        for key in (
            "breaker_state",
            "queue_depth",
            "journal_append_failures",
            "jobs_retried",
            "watchdog_timeouts",
            "store_quarantined",
            "client_disconnects",
        ):
            assert key in health
        with urllib.request.urlopen(http_base + "/metrics", timeout=60) as resp:
            text = resp.read().decode()
        for metric in (
            "repro_service_queue_depth",
            "repro_service_cache_hit_rate",
            "repro_service_jobs_per_sec",
            "repro_service_job_latency_p95_s",
            "repro_service_health_state",
            "repro_service_breaker_state",
            "repro_service_attempts_total",
            "repro_service_watchdog_timeouts",
        ):
            assert f"\n{metric} " in "\n" + text
        # Every exposed value must scrape as a float (states are codes).
        for line in text.splitlines():
            if line.startswith("repro_service_"):
                float(line.split()[1])

    def test_stream_replays_every_interval_sample(self, http_base, service):
        _, out = _post(http_base, _s1_request())
        job = service.get_job(out["job_id"])
        assert job.wait(120)
        with urllib.request.urlopen(
            http_base + f"/jobs/{out['job_id']}/stream?batch=7", timeout=120
        ) as resp:
            assert resp.headers["Content-Type"].startswith("text/event-stream")
            raw = resp.read().decode()
        events = [e for e in raw.strip().split("\n\n") if e]
        kinds = [e.splitlines()[0].removeprefix("event: ") for e in events]
        assert kinds[-1] == "done" and set(kinds[:-1]) == {"batch"}
        samples = []
        for event in events[:-1]:
            data = json.loads(event.splitlines()[1].removeprefix("data: "))
            assert data["offset"] == len(samples)
            assert len(data["samples"]) <= 7
            samples.extend(data["samples"])
        done = json.loads(events[-1].splitlines()[1].removeprefix("data: "))
        assert done["result_hash"] == job.result_hash
        assert len(samples) == len(job.result.interval_samples)
        for got, want in zip(samples, job.result.interval_samples):
            assert got["core"] == want.core
            assert got["duration_ns"] == want.duration_ns
            assert got["baseline_ns"] == want.baseline_ns

    def test_client_disconnect_is_swallowed_and_counted(self, http_base, service):
        """A mid-SSE disconnect ends the handler quietly and is counted.

        The ``api.sse_disconnect`` fault site raises a ``BrokenPipeError``
        subclass from inside the event loop -- the same exception a real
        client disconnect produces -- so this exercises the production
        swallow path end to end over a real socket.
        """
        import time as time_mod

        from repro.service import faults

        _, out = _post(http_base, _s1_request())
        job = service.get_job(out["job_id"])
        assert job.wait(120)
        plan = faults.FaultPlan(
            7, [faults.FaultRule(faults.SSE_DISCONNECT, rate=1.0, max_fires=1)]
        )
        with faults.installed(plan):
            # The body is truncated (no traceback server-side); with no
            # Content-Length and Connection: close, the client just sees
            # EOF early.
            with urllib.request.urlopen(
                http_base + f"/jobs/{out['job_id']}/stream", timeout=120
            ) as resp:
                truncated = resp.read().decode()
            assert "event: done" not in truncated
            deadline = time_mod.monotonic() + 30
            while service.client_disconnects < 1:
                assert time_mod.monotonic() < deadline, "disconnect never counted"
                time_mod.sleep(0.01)
            # Budget exhausted: the next stream completes normally.
            with urllib.request.urlopen(
                http_base + f"/jobs/{out['job_id']}/stream", timeout=120
            ) as resp:
                assert "event: done" in resp.read().decode()
        assert service.health()["client_disconnects"] >= 1


class TestBackpressureHTTP:
    """Admission control over the wire: full queues answer 429 + Retry-After."""

    def test_full_queue_429_with_retry_after(self, system4, db4, tmp_path, monkeypatch):
        import repro.service.pool as pool_mod

        started, release = threading.Event(), threading.Event()

        def blocked(ctx, item, manager):
            started.set()
            release.wait(120)
            raise RuntimeError("released without result")

        monkeypatch.setattr(pool_mod, "_execute_replay", blocked)
        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, max_queue=1
        )
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, first = _post(base, _s1_request(name="bp-0"))
            assert status == 202 and first["lane"] == "interactive"
            assert started.wait(120), "worker never claimed the first job"
            status, _ = _post(base, dict(_s1_request(name="bp-1"), lane="bulk"))
            assert status == 202
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(base, _s1_request(name="bp-2"))
            assert err.value.code == 429
            retry_after = err.value.headers.get("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            body = json.load(err.value)
            assert body["queue_capacity"] == 1 and body["retry_after_s"] >= 1
            # Identical resubmission coalesces: no new work, always admitted.
            status, again = _post(base, _s1_request(name="bp-0"))
            assert status == 200 and again["deduped"] is True
            with urllib.request.urlopen(base + "/metrics", timeout=60) as resp:
                text = resp.read().decode()
            assert "\nrepro_service_jobs_rejected 1" in "\n" + text
            assert "repro_service_queue_depth_bulk" in text
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            svc.close()

    def test_lane_routes_from_request_body(self, http_base, service):
        status, out = _post(http_base, dict(_s1_request(name="lane-bulk"), lane="bulk"))
        assert status == 202 and out["lane"] == "bulk"
        job = service.get_job(out["job_id"])
        assert job.lane == "bulk" and job.wait(120)
        _, polled = _get(http_base, f"/jobs/{out['job_id']}")
        assert polled["lane"] == "bulk"

    def test_unknown_lane_rejected(self, http_base):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_base, dict(_s1_request(), lane="premium"))
        assert err.value.code == 400


class _WriteRecorder:
    """Wraps a handler's ``wfile``, recording every write that reaches the socket."""

    def __init__(self, wfile, writes: list) -> None:
        self._wfile, self._writes = wfile, writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class TestKeepAliveHTTP:
    """One persistent connection: no response may wait on a delayed ACK.

    A response sent as two small writes (head, then body) is held back by
    Nagle until the client ACKs the head, which a keep-alive client delays
    by ~40 ms, so every request on the connection would stall.
    """

    def test_sequential_requests_on_one_connection(self, system4, db4, tmp_path, monkeypatch):
        import repro.service.api as api_mod
        import repro.service.pool as pool_mod

        started, release = threading.Event(), threading.Event()

        def blocked(ctx, item, manager):
            started.set()
            release.wait(120)
            raise RuntimeError("released without result")

        writes: list[bytes] = []
        nodelay: list[int] = []
        real_setup = api_mod._Handler.setup

        def recording_setup(handler):
            real_setup(handler)
            nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            handler.wfile = _WriteRecorder(handler.wfile, writes)

        monkeypatch.setattr(pool_mod, "_execute_replay", blocked)
        monkeypatch.setattr(api_mod._Handler, "setup", recording_setup)
        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, max_queue=1
        )
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=60)
        bodies: list[bytes] = []

        def request(method, path, payload=None):
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            raw = resp.read()
            assert int(resp.getheader("Content-Length")) == len(raw)
            bodies.append(raw)
            if resp.getheader("Content-Type") == "application/json":
                return resp.status, json.loads(raw), resp
            return resp.status, raw.decode(), resp

        try:
            status, running, _ = request("POST", "/jobs", _s1_request(name="ka-0"))
            assert status == 202
            assert started.wait(120), "worker never claimed the first job"
            status, queued, _ = request("POST", "/jobs", _s1_request(name="ka-1"))
            assert status == 202
            status, full, resp = request("POST", "/jobs", _s1_request(name="ka-2"))
            assert status == 429 and full["queue_capacity"] == 1
            assert int(resp.getheader("Retry-After")) >= 1

            gets = [
                (f"/jobs/{running['job_id']}", 200),
                (f"/jobs/{queued['job_id']}", 200),
                ("/healthz", 200),
                ("/metrics", 200),
                ("/jobs/deadbeef", 404),
                (f"/jobs/{running['job_id']}/result", 409),
                ("/nope", 404),
            ] * 2
            t0 = time.perf_counter()
            for path, want in gets:
                status, payload, _ = request("GET", path)
                assert status == want, (path, status, payload)
                if path == "/metrics":
                    assert "repro_service_jobs_rejected 1\n" in payload
                elif path == "/healthz":
                    assert payload["status"] == "degraded"  # the queue is full
            elapsed = time.perf_counter() - t0
            # 14 round trips: a delayed-ACK stall each would take >= 0.5 s.
            assert elapsed < 0.3, f"{len(gets)} keep-alive GETs took {elapsed:.3f}s"
        finally:
            conn.close()
            release.set()
            server.shutdown()
            server.server_close()
            svc.close()
        # Deterministic: one connection with TCP_NODELAY set (SSE events
        # are many small writes), and each fixed-length response reached
        # the socket in exactly one write, head and body together.
        assert len(nodelay) == 1 and nodelay[0]
        assert len(writes) == len(bodies) == 3 + len(gets)
        for write, body in zip(writes, bodies):
            assert write.startswith(b"HTTP/1.1 ") and write.endswith(b"\r\n\r\n" + body)
