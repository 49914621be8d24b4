"""service_mixed: an open-loop HTTP client against a separate server process.

Jobs are due at a fixed rate (``RATE_PER_S``) whatever the server does; the
client sends each over one of ``CONNECTIONS`` keep-alive connections and
polls until the job settles.  A job's settle latency runs from when it was
*due* to when the client saw it settled, so a stalled connection or server
delays every job queued behind it; the client's own lateness (``lag``,
send start minus due time) is reported beside it.  A refused (429) or
failed job counts as infinitely late.

After the window every job's result is fetched and cross-checked against
the library replay of the same request, run in this process; a subset is
also checked sample by sample through ``/jobs/<id>/stream``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time

import common
import inputs
import prepare
from replay import Outcome, replay_one

#: Fixed arrival rate: about half the rate at which the seed commit's
#: backlog starts to grow on a 2-CPU machine (~26 jobs/s, see README.md).
RATE_PER_S = 13.0
#: At least this many jobs per run, whatever ``--seconds`` says.
MIN_JOBS = 200
#: At most this many jobs per run: a third of them are pre-seeded, drawn
#: without replacement from the prepared catalogue.
MAX_JOBS = 3 * inputs.PRESEED_JOBS - 1
#: Keep-alive connections: one per CPU of the 2-CPU reference machine.
CONNECTIONS = 2
#: A job is not polled again sooner than this after its last poll.
POLL_INTERVAL_S = 0.01
#: A job's first poll waits a seeded uniform delay below this.  A poll
#: round trip costs ~42 ms, so with a fixed first poll the observed settle
#: times clump at steps ~50 ms apart and a small server slowdown moved the
#: p95 by a whole step (40% across runs); independent clients poll at
#: random phases, which makes settle time a smooth function of server time.
POLL_PHASE_S = 0.05
#: Latency limit on the p95 settle time (slo_miss_ratio counts misses).
SLO_MS = 250.0
#: Every STREAM_EVERY-th distinct job is also checked through /stream.
STREAM_EVERY = 4
#: Jobs still unsettled this long after the last one was due count as failed.
GRACE_S = 60.0
BOOT_TIMEOUT_S = 120.0


def job_count(seconds: float, rate: float = RATE_PER_S) -> int:
    """Jobs in one window: ``seconds`` at ``rate``, at least :data:`MIN_JOBS`."""
    return max(MIN_JOBS, round(rate * seconds))


class Server:
    """One server process; ``boot_s`` is spawn until listening."""

    def __init__(self, prep: str, cache_dir: str, trace_out: str | None = None) -> None:
        cmd = [sys.executable, os.path.join(common.BENCH_DIR, "server.py"),
               "--prep", prep, "--cache-dir", cache_dir]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self._readline(BOOT_TIMEOUT_S)
        if not line.startswith("listening on http://"):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.boot_s = time.perf_counter() - t0
        self.host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
        self.port = int(port)

    def _readline(self, timeout: float) -> str:
        box: list[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(timeout)
        return box[0] if box else ""

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> dict:
        """Close stdin, wait for exit, return the server's final JSON line."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        lines = [ln for ln in self.proc.stdout.read().splitlines() if ln.startswith("{")]
        self.proc.stdout.close()
        return json.loads(lines[-1]) if lines else {}


class _Job:
    __slots__ = ("kind", "body", "due", "phase", "sent", "job_id", "settled", "ok", "next_poll",
                 "error")

    def __init__(self, kind: str, body: dict, due: float, phase: float) -> None:
        self.kind, self.body, self.due, self.phase = kind, body, due, phase
        self.sent = self.settled = None
        self.job_id = self.error = None
        self.ok = False
        self.next_poll = 0.0


class OpenLoopClient:
    def __init__(self, server: Server, jobs, rate: float, seed: int) -> None:
        self.server = server
        start = time.monotonic() + 0.05
        rng = random.Random(f"service_mixed/{seed}/poll-phase")
        self.jobs = [
            _Job(kind, body, start + i / rate, rng.uniform(0.0, POLL_PHASE_S))
            for i, (kind, body) in enumerate(jobs)
        ]
        self.deadline = self.jobs[-1].due + GRACE_S
        self._next = 0
        self._lock = threading.Lock()
        self.post_s: list[float] = []
        self.poll_s: list[float] = []
        self.useful_polls = 0

    def run(self) -> None:
        threads = [threading.Thread(target=self._connection, name=f"conn-{i}") for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def _take_due(self, now: float):
        with self._lock:
            if self._next < len(self.jobs) and self.jobs[self._next].due <= now:
                self._next += 1
                return self.jobs[self._next - 1], None
            nxt = self.jobs[self._next].due if self._next < len(self.jobs) else None
            return None, nxt

    def _connection(self) -> None:
        conn = self.server.connect()
        outstanding: list[_Job] = []
        try:
            while True:
                now = time.monotonic()
                if now > self.deadline:
                    for job in outstanding:
                        job.error = "not settled before the deadline"
                    return
                job, next_due = self._take_due(now)
                if job is not None:
                    conn = self._submit(conn, job, outstanding)
                    continue
                job = min(outstanding, key=lambda j: j.next_poll, default=None)
                if job is not None and job.next_poll <= now:
                    conn = self._poll(conn, job)
                    if job.settled is not None or job.error is not None:
                        outstanding.remove(job)
                    continue
                if job is None and next_due is None:
                    return
                wake = min(t for t in (next_due, job and job.next_poll) if t)
                time.sleep(max(0.0, wake - time.monotonic()))
        finally:
            conn.close()

    def _request(self, conn, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return conn, resp.status, json.loads(resp.read() or b"null")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            conn.close()
            return self.server.connect(), None, {"error": f"{type(exc).__name__}: {exc}"}

    def _submit(self, conn, job: _Job, outstanding) -> http.client.HTTPConnection:
        job.sent = time.monotonic()
        conn, status, payload = self._request(conn, "POST", "/jobs", json.dumps(job.body).encode())
        now = time.monotonic()
        self.post_s.append(now - job.sent)
        if status not in (200, 202):
            job.error = f"POST answered {status}: {payload.get('error')}"
            return conn
        job.job_id = payload["job_id"]
        if not self._settle(job, payload, now):
            job.next_poll = now + job.phase
            outstanding.append(job)
        return conn

    def _poll(self, conn, job: _Job) -> http.client.HTTPConnection:
        t0 = time.monotonic()
        conn, status, payload = self._request(conn, "GET", f"/jobs/{job.job_id}")
        now = time.monotonic()
        self.poll_s.append(now - t0)
        job.next_poll = now + POLL_INTERVAL_S
        if status != 200:
            job.error = f"poll answered {status}: {payload.get('error')}"
        elif self._settle(job, payload, now):
            self.useful_polls += 1
        return conn

    @staticmethod
    def _settle(job: _Job, payload: dict, now: float) -> bool:
        if payload.get("status") == "done":
            job.settled, job.ok = now, True
        elif payload.get("status") == "failed":
            job.settled, job.error = now, f"job failed: {payload.get('error')}"
        return job.settled is not None


def _get(server: Server, path: str):
    conn = server.connect()
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def scrape_metrics(server: Server) -> dict:
    _, text = _get(server, "/metrics")
    prefix = "repro_service_"
    return {
        line.split()[0][len(prefix):]: float(line.split()[1])
        for line in text.decode().splitlines()
        if line.startswith(prefix)
    }


def _stream_samples(server: Server, job_id: str) -> list:
    status, raw = _get(server, f"/jobs/{job_id}/stream?batch=1024")
    if status != 200:
        raise RuntimeError(f"/stream answered {status}")
    samples: list = []
    for block in raw.decode().split("\n\n"):
        lines = dict(ln.split(": ", 1) for ln in block.splitlines() if ": " in ln)
        if lines.get("event") == "batch":
            samples += [
                (s["core"], s["phase_key"], s["duration_ns"], s["baseline_ns"], s["slack"])
                for s in json.loads(lines["data"])["samples"]
            ]
    return samples


def measure_service(seed: int, seconds: float, prep: str, run_dir: str, server: Server,
                    rate: float = RATE_PER_S) -> Outcome:
    """Drive ``server`` for one window, then verify every result."""
    from repro.experiments.runner import get_context, set_result_cache
    from repro.scenarios.events import Scenario
    from repro.service.jobs import build_item, job_spec_from_json
    from repro.simulation.metrics import run_result_digest

    out = Outcome()
    n_jobs = job_count(seconds, rate)
    client = OpenLoopClient(server, inputs.service_jobs(seed, n_jobs), rate, seed)
    client.run()
    jobs = client.jobs
    out.attempted = len(jobs)
    metrics = scrape_metrics(server)

    # Library replays of every distinct request, in this process.
    set_result_cache(False)
    cache = os.path.join(run_dir, "library")
    prepare.copy_databases(prep, cache, (4, 8))
    contexts = {n: get_context(n, cache_dir=cache, names=common.APPS) for n in (4, 8)}
    requests: dict[str, tuple] = {}
    for job in jobs:
        key = json.dumps(job.body, sort_keys=True)
        if key not in requests:
            spec = job_spec_from_json(job.body)
            ctx = contexts[spec.ncores]
            item = build_item(spec, ctx.db.benchmarks())
            scenario = item if isinstance(item, Scenario) else None
            workload = item.workload if scenario is not None else item
            requests[key] = (ctx, scenario, workload, spec.manager)
    library: dict[str, tuple] = {}
    digests = []
    check_errors = []
    for key, request in requests.items():
        run, events, host_s = replay_one(*request)
        library[key] = (run, host_s)
        out.events += events
        out.replay_s += host_s
        digests.append(common.run_digest(run))
    # Cross-check every settled job against its library replay.
    checked: dict[str, bool] = {}
    for job in jobs:
        if not job.ok:
            continue
        run, _ = library[json.dumps(job.body, sort_keys=True)]
        if job.job_id in checked:
            continue
        status, raw = _get(server, f"/jobs/{job.job_id}/result")
        res = json.loads(raw) if status == 200 else {}
        apps = [(a["app"], a["core"], a["intervals"], a["slack"], a["time_ns"], a["energy_nj"])
                for a in res.get("apps", [])]
        lib_samples = [(s.core, s.phase_key, s.duration_ns, s.baseline_ns, s.slack)
                       for s in run.interval_samples]
        streamed = len(checked) % STREAM_EVERY == 0
        samples = _stream_samples(server, job.job_id) if streamed else lib_samples
        served = common.digest_fields(res.get("workload"), res.get("manager"),
                                      res.get("rma_invocations", -1),
                                      res.get("rma_instructions", float("nan")), apps, samples)
        same = served == common.run_digest(run) and res.get("result_hash") == run_result_digest(run)
        checked[job.job_id] = same
        if not same:
            check_errors.append(f"job {job.job_id} ({job.kind}) differs from its library replay")
    for job in jobs:
        if job.ok and not checked.get(job.job_id, False):
            job.ok = False
            job.error = job.error or "result differs from the library replay"
    settle, fresh_overhead, lags = [], [], []
    for job in jobs:
        if job.sent is not None:
            lags.append(job.sent - job.due)
        if not job.ok:
            out.failed += 1
            settle.append(float("inf"))
            if job.error:
                out.notes.append(f"{job.kind} job {job.job_id}: {job.error}")
            continue
        settle.append(job.settled - job.due)
        if job.kind == "fresh":
            _, host_s = library[json.dumps(job.body, sort_keys=True)]
            fresh_overhead.append(job.settled - job.due - host_s)
    out.notes += check_errors[:5]
    out.settle_s = settle
    out.digest = common.combine(digests)
    out.counters = {
        name: int(metrics.get(name, -1))
        for name in ("simulations", "store_hits", "store_misses", "store_puts", "journal_appends",
                     "jobs_deduped", "jobs_rejected", "jobs_failed")
    }
    slo_misses = sum(1 for s in settle if s * 1000.0 > SLO_MS)
    polls = len(client.poll_s)
    out.extra.update({
        "service_overhead_ms": (common.median(fresh_overhead) * 1000.0, len(fresh_overhead)),
        "slo_miss_ratio": (slo_misses / len(settle), len(settle)),
        "client_lag_ms": (common.median(lags) * 1000.0, len(lags)),
        "client_lag_p95_ms": (common.percentile(lags, 95) * 1000.0, len(lags)),
        "rate_per_s": (rate, n_jobs),
        "server_p50_ms": (metrics.get("job_latency_p50_s", 0.0) * 1000.0, int(metrics.get("jobs_done", 0))),
    })
    out.client = {
        "api.post_ms": common.median(client.post_s) * 1000.0,
        "api.poll_ms": common.median(client.poll_s) * 1000.0 if polls else 0.0,
        "api.polls_per_job": polls / len(jobs),
        "api.poll_settled_ratio": client.useful_polls / polls if polls else 0.0,
        "client.lag_ms": common.median(lags) * 1000.0,
    }
    return out
