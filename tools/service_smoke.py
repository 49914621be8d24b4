#!/usr/bin/env python
"""End-to-end service smoke: boot, replay, crash, recover, overload -- gated.

The CI ``service-smoke`` job's driver, in three stages (``--stage``):

* ``smoke`` -- launch ``tools/serve.py`` on a free port with the
  small-suite benchmark subset and bench-smoke fidelity
  (``REPRO_MAX_SLICES=12``, ``REPRO_ACCESSES_PER_SET=400``), submit the
  bench-smoke S1 scenario under the baseline and RM2 managers, poll to
  ``done`` over one keep-alive connection, require an identical
  resubmission to coalesce, and compare every ``result_hash`` against the
  committed baseline
  (``benchmarks/_artifacts/baselines/BENCH_service_smoke.json``).  The
  median keep-alive round trip must stay under ``MAX_POLL_RTT_MS``.
* ``restart`` -- submit a four-job burst to a journalled single-worker
  server, **SIGKILL it mid-queue**, read the journal's unsettled set,
  reboot the server on the same journal, and require every journalled job
  to complete with hashes byte-identical to the baseline's
  ``restart_jobs`` section (``--require-pending`` additionally demands
  jobs really were pending at the kill).  Both boots share a temporary
  cache directory holding a copy of the 4-core database and an empty
  ``results/``: a stored run settles at admission, so only an empty store
  keeps the burst queued at the kill, however warm ``--cache-dir`` is.
* ``backpressure`` -- boot with ``--max-queue 1 --workers 1`` and a
  fault plan that holds the worker's first dispatch for ``HOLD_S``
  seconds (``--fault executor.hang=1:1:HOLD_S``; no watchdog is armed),
  submit never-before-seen jobs, and require the overflow submissions to
  draw ``429`` + an integral ``Retry-After`` header plus a nonzero
  ``repro_service_jobs_rejected`` counter.  The held worker fills the
  one-slot queue by construction, however fast the replays run.

Exit status is non-zero on any mismatch, so the job doubles as a semantic
regression gate on the full HTTP path.  After an *intentional* change to
the simulation's numbers::

    PYTHONPATH=src python tools/service_smoke.py --update
    git add benchmarks/_artifacts/baselines/BENCH_service_smoke.json

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--cache-dir PATH]
        [--stage smoke|restart|backpressure|all] [--require-pending]
        [--update]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

sys.path.insert(0, os.path.dirname(__file__))
from _bench_common import (  # noqa: E402
    ARTIFACT_DIR,
    BENCHMARK_SUBSET,
    add_src_to_path,
    write_bench_artifact,
)

BASELINE_PATH = os.path.join(ARTIFACT_DIR, "baselines", "BENCH_service_smoke.json")

STAGES = ("smoke", "restart", "backpressure")

#: Seconds the backpressure stage's fault plan holds the worker's first
#: dispatch: far longer than the stage's six submissions take.
HOLD_S = 30.0

#: The smoke jobs: bench_smoke's S1 scenario block, as service requests.
SMOKE_JOBS = {
    "smoke-s1-baseline": {
        "shape": "S1",
        "ncores": 4,
        "name": "smoke-s1",
        "params": {"rate_per_interval": 0.25, "horizon_intervals": 48, "seed": 0},
        "manager": {"kind": "baseline", "name": "baseline"},
    },
    "smoke-s1-rm2": {
        "shape": "S1",
        "ncores": 4,
        "name": "smoke-s1",
        "params": {"rate_per_interval": 0.25, "horizon_intervals": 48, "seed": 0},
        "manager": {"kind": "coordinated", "name": "rm2-combined"},
    },
}


def _restart_job(seed: int, manager: dict) -> dict:
    return {
        "shape": "S1",
        "ncores": 4,
        "name": "smoke-restart",
        "params": {"rate_per_interval": 0.25, "horizon_intervals": 48, "seed": seed},
        "manager": manager,
    }


#: The restart burst: four distinct S1 jobs, journalled then SIGKILL'd.
RESTART_JOBS = {
    "restart-s10-baseline": _restart_job(10, {"kind": "baseline", "name": "baseline"}),
    "restart-s11-rm2": _restart_job(11, {"kind": "coordinated", "name": "rm2-combined"}),
    "restart-s12-baseline": _restart_job(12, {"kind": "baseline", "name": "baseline"}),
    "restart-s13-rm2": _restart_job(13, {"kind": "coordinated", "name": "rm2-combined"}),
}

STARTUP_TIMEOUT_S = 180.0
JOB_TIMEOUT_S = 300.0

#: Ceiling on the smoke stage's median keep-alive round trip.  A response
#: that leaves the server as two writes waits on Nagle for the client's
#: delayed ACK, ~40 ms per round trip; one write takes ~1 ms.
MAX_POLL_RTT_MS = 20.0


def _get_json(url: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.load(resp)


def _post_json(url: str, payload: dict, timeout: float = 30.0) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.load(resp)


class _KeepAliveClient:
    """GETs over one persistent HTTP/1.1 connection, each round trip timed."""

    def __init__(self, base: str) -> None:
        url = urllib.parse.urlsplit(base)
        self.conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30.0)
        self.rtts_s: list[float] = []

    def get_json(self, path: str) -> dict:
        t0 = time.perf_counter()
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        body = resp.read()
        self.rtts_s.append(time.perf_counter() - t0)
        if resp.status != 200:
            raise SystemExit(f"GET {path} answered {resp.status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


def _scrape_metrics(base: str) -> dict:
    with urllib.request.urlopen(base + "/metrics", timeout=30.0) as resp:
        text = resp.read().decode()
    return {
        line.split()[0]: float(line.split()[1])
        for line in text.splitlines()
        if line and not line.startswith("#")
    }


def _server_env() -> dict:
    """The server's environment: ours, with bench-smoke fidelity by default."""
    env = dict(os.environ)
    env.setdefault("REPRO_MAX_SLICES", "12")
    env.setdefault("REPRO_ACCESSES_PER_SET", "400")
    return env


def _start_server(
    cache_dir: str | None, extra_args: list[str] | None = None, workers: int = 2
) -> tuple[subprocess.Popen, str]:
    """Launch serve.py on a free port; return (process, base URL)."""
    cmd = [
        sys.executable,
        os.path.join(os.path.dirname(__file__), "serve.py"),
        "--port",
        "0",
        "--workers",
        str(workers),
        "--ncores",
        "4",
        "--benchmarks",
        ",".join(BENCHMARK_SUBSET),
    ]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    cmd += extra_args or []
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_server_env()
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    base = None
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"server exited during startup (rc={proc.poll()})")
        print(f"[serve] {line.rstrip()}")
        if line.startswith("listening on "):
            base = line.split("listening on ", 1)[1].strip()
            break
    if base is None:
        proc.kill()
        raise SystemExit("server never reported its address")
    return proc, base


def _stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()


def _wait_healthy(base: str) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            health = _get_json(base + "/healthz", timeout=5.0)
            if health.get("status") in ("ok", "healthy"):
                return
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise SystemExit("/healthz never came up")


def _poll_done(client: _KeepAliveClient, job_id: str) -> dict:
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        status = client.get_json(f"/jobs/{job_id}")
        if status["status"] == "done":
            return status
        if status["status"] == "failed":
            raise SystemExit(f"job {job_id} failed: {status.get('error')}")
        time.sleep(0.5)
    raise SystemExit(f"job {job_id} still not done after {JOB_TIMEOUT_S}s")


# ---- stages ------------------------------------------------------------------


def _stage_smoke(cache_dir: str | None, report: dict, failures: list[str]) -> None:
    """Happy path: submit, poll, fetch, dedup, metrics sanity."""
    proc, base = _start_server(cache_dir, ["--no-journal"])
    client = _KeepAliveClient(base)  # connects on its first request
    try:
        _wait_healthy(base)
        report["jobs"] = {}
        for label, body in SMOKE_JOBS.items():
            submitted = _post_json(base + "/jobs", body)
            _poll_done(client, submitted["job_id"])
            result = client.get_json(f"/jobs/{submitted['job_id']}/result")
            report["jobs"][label] = {
                "job_id": submitted["job_id"],
                "result_hash": result["result_hash"],
                "total_energy_nj": result["total_energy_nj"],
            }
            print(
                f"{label:20s} hash {result['result_hash']}  "
                f"energy {result['total_energy_nj']:.4g} nJ"
            )

        # Resubmitting an identical request must coalesce, not re-run.
        again = _post_json(base + "/jobs", SMOKE_JOBS["smoke-s1-rm2"])
        if not again.get("deduped"):
            failures.append("resubmission was not deduplicated")

        metrics = _scrape_metrics(base)
        report["metrics"] = {
            k: metrics[k]
            for k in (
                "repro_service_jobs_done",
                "repro_service_simulations",
                "repro_service_jobs_deduped",
                "repro_service_queue_depth",
            )
        }
        if metrics["repro_service_jobs_done"] < len(SMOKE_JOBS):
            failures.append(f"jobs_done metric too low: {metrics}")
        if metrics["repro_service_jobs_deduped"] < 1:
            failures.append("dedup metric never incremented")

        for _ in range(8):  # back-to-back polls: a stall would show in every one
            client.get_json(f"/jobs/{again['job_id']}")
        rtt_ms = statistics.median(client.rtts_s) * 1000.0
        print(f"keep-alive round trip: median {rtt_ms:.2f} ms over {len(client.rtts_s)} GETs")
        if rtt_ms > MAX_POLL_RTT_MS:
            failures.append(
                f"median keep-alive round trip {rtt_ms:.1f} ms > {MAX_POLL_RTT_MS} ms "
                "(a response split across writes stalls on a delayed ACK)"
            )
    finally:
        client.close()
        _stop_server(proc)


def _journal_pending_ids(journal_dir: str) -> set[str]:
    """The unsettled job ids in a journal file (submitted, never settled)."""
    path = os.path.join(journal_dir, "journal.jsonl")
    pending: set[str] = set()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return pending
    for line in raw.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn final line: the crash we are simulating
        if record.get("event") == "submitted":
            pending.add(record["job_id"])
        elif record.get("event") in ("published", "failed"):
            pending.discard(record["job_id"])
    return pending


def _fresh_results_cache(cache_dir: str | None) -> str:
    """A temporary cache dir: a copy of the 4-core database, empty ``results/``.

    Without a database in ``cache_dir`` the server builds one in the
    temporary directory instead, which is slower but replays the same.
    """
    add_src_to_path()
    from repro.config import default_system
    from repro.experiments.runner import DEFAULT_CACHE_DIR
    from repro.simulation.database import database_cache_path

    database = database_cache_path(
        default_system(4),
        BENCHMARK_SUBSET,
        int(_server_env()["REPRO_ACCESSES_PER_SET"]),
        cache_dir or DEFAULT_CACHE_DIR,
    )
    fresh = tempfile.mkdtemp(prefix="smoke-cache-")
    os.makedirs(os.path.join(fresh, "results"))
    if os.path.exists(database):
        shutil.copy2(database, fresh)
    return fresh


def _stage_restart(
    cache_dir: str | None, report: dict, failures: list[str], require_pending: bool
) -> None:
    """Durability: journalled burst -> SIGKILL mid-queue -> reboot -> drain."""
    cache_dir = _fresh_results_cache(cache_dir)
    journal_dir = tempfile.mkdtemp(prefix="smoke-journal-")
    journal_args = ["--journal-dir", journal_dir]
    proc, base = _start_server(cache_dir, journal_args, workers=1)
    submitted_ids: dict[str, str] = {}
    try:
        _wait_healthy(base)
        for label, body in RESTART_JOBS.items():
            submitted_ids[label] = _post_json(base + "/jobs", body)["job_id"]
    except BaseException:
        _stop_server(proc)
        raise
    # SIGKILL, not terminate: no cleanup, no drain -- the crash is real.
    proc.kill()
    proc.wait(timeout=30)

    pending = _journal_pending_ids(journal_dir)
    print(f"restart: {len(pending)}/{len(RESTART_JOBS)} jobs pending at SIGKILL")
    if require_pending and not pending:
        failures.append(
            "restart stage found no pending jobs at SIGKILL; the burst "
            "finished too fast to exercise recovery"
        )

    proc, base = _start_server(cache_dir, journal_args, workers=1)
    client = _KeepAliveClient(base)
    try:
        _wait_healthy(base)
        metrics = _scrape_metrics(base)
        if metrics.get("repro_service_jobs_recovered", 0) != len(pending):
            failures.append(
                f"rebooted service recovered {metrics.get('repro_service_jobs_recovered')}"
                f" jobs, journal held {len(pending)}"
            )
        report["restart_jobs"] = {}
        for label, body in RESTART_JOBS.items():
            # Resubmit every body: recovered jobs coalesce onto the journal's
            # copy, already-finished ones are served from the at-rest store;
            # either way the content-addressed id must not change.
            job_id = _post_json(base + "/jobs", body)["job_id"]
            if job_id != submitted_ids[label]:
                failures.append(
                    f"{label}: job id changed across restart "
                    f"({submitted_ids[label]} -> {job_id})"
                )
            _poll_done(client, job_id)
            result = client.get_json(f"/jobs/{job_id}/result")
            report["restart_jobs"][label] = {
                "job_id": job_id,
                "result_hash": result["result_hash"],
                "recovered": job_id in pending,
            }
            print(f"{label:22s} hash {result['result_hash']}  recovered={job_id in pending}")
        report["restart_pending_at_kill"] = len(pending)
        leftover = _journal_pending_ids(journal_dir)
        if leftover:
            failures.append(f"journal still holds unsettled jobs after drain: {leftover}")
    finally:
        client.close()
        _stop_server(proc)
        shutil.rmtree(journal_dir, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)


def _stage_backpressure(cache_dir: str | None, report: dict, failures: list[str]) -> None:
    """Admission: a full single-slot queue answers 429 + Retry-After."""
    hold = f"executor.hang=1:1:{HOLD_S}"
    proc, base = _start_server(
        cache_dir, ["--no-journal", "--max-queue", "1", "--fault", hold], workers=1
    )
    try:
        _wait_healthy(base)
        # The fault plan holds the one worker in its first dispatch, so the
        # first admitted job never leaves it and the next one fills the
        # queue.  The jobs are ones no store has ever seen (per-run seed):
        # a stored run settles at admission and would never queue.
        salt = int(time.time()) % 1_000_000 + 1_000
        bodies = [
            {
                "shape": "S1",
                "ncores": 4,
                "name": "smoke-backpressure",
                "params": {
                    "rate_per_interval": 1.0,
                    "horizon_intervals": 500,
                    "seed": salt + i,
                },
                "manager": {"kind": "baseline", "name": "baseline"},
            }
            for i in range(6)
        ]
        accepted, rejected, retry_afters = 0, 0, []
        for i, body in enumerate(bodies):
            try:
                _post_json(base + "/jobs", body)
                accepted += 1
            except urllib.error.HTTPError as err:
                if err.code != 429:
                    failures.append(f"overflow submission {i} drew {err.code}, not 429")
                    continue
                rejected += 1
                retry_after = err.headers.get("Retry-After")
                payload = json.load(err)
                if retry_after is None or int(retry_after) < 1:
                    failures.append(f"429 without a usable Retry-After: {retry_after!r}")
                if payload.get("queue_capacity") != 1:
                    failures.append(f"429 body lacks queue_capacity=1: {payload}")
                retry_afters.append(retry_after)
        print(
            f"backpressure: {accepted} accepted, {rejected} rejected "
            f"(Retry-After: {retry_afters})"
        )
        if accepted < 1:
            failures.append("backpressure probe: nothing was admitted")
        if rejected < 1:
            failures.append("backpressure probe never drew a 429")
        metrics = _scrape_metrics(base)
        if metrics.get("repro_service_jobs_rejected", 0) < 1:
            failures.append("jobs_rejected metric never incremented")
        report["backpressure"] = {"accepted": accepted, "rejected": rejected}
    finally:
        _stop_server(proc)


# ---- gate --------------------------------------------------------------------

#: Baseline sections gated per stage (hash comparisons are deterministic;
#: pending/rejection counts are runtime-dependent and deliberately ungated).
STAGE_GATES = {"smoke": "jobs", "restart": "restart_jobs"}


def _gate(report: dict, stages: list[str], failures: list[str]) -> None:
    if not os.path.exists(BASELINE_PATH):
        failures.append(f"no committed baseline at {BASELINE_PATH}; run with --update")
        return
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    for stage in stages:
        section = STAGE_GATES.get(stage)
        if section is None:
            continue
        for label, fresh in report.get(section, {}).items():
            want = baseline.get(section, {}).get(label, {}).get("result_hash")
            if fresh["result_hash"] != want:
                failures.append(f"{label}: hash {fresh['result_hash']} != baseline {want}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "--stage",
        choices=STAGES + ("all",),
        default="all",
        help="run one stage (CI runs them as separate steps) or all",
    )
    parser.add_argument(
        "--require-pending",
        action="store_true",
        help="fail the restart stage unless jobs were genuinely pending at "
        "the SIGKILL (CI passes this)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baseline with the fresh hashes",
    )
    args = parser.parse_args(argv)
    stages = list(STAGES) if args.stage == "all" else [args.stage]
    if args.update and args.stage != "all":
        parser.error("--update must regenerate every stage: drop --stage")

    # Merge into any fresh artifact from an earlier stage of the same CI
    # job, so the uploaded BENCH_service_smoke.json carries all sections.
    fresh_path = os.path.join(ARTIFACT_DIR, "BENCH_service_smoke.json")
    report: dict = {}
    if os.path.exists(fresh_path):
        with open(fresh_path, encoding="utf-8") as fh:
            report = json.load(fh)
    report.update(
        {
            "benchmark": "service_smoke",
            "max_slices": os.environ.get("REPRO_MAX_SLICES", "12"),
            "accesses_per_set": os.environ.get("REPRO_ACCESSES_PER_SET", "400"),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    )

    failures: list[str] = []
    for stage in stages:
        print(f"=== stage: {stage} ===")
        if stage == "smoke":
            _stage_smoke(args.cache_dir, report, failures)
        elif stage == "restart":
            _stage_restart(args.cache_dir, report, failures, args.require_pending)
        else:
            _stage_backpressure(args.cache_dir, report, failures)

    fresh_path = write_bench_artifact("service_smoke", report)
    if args.update:
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        shutil.copyfile(fresh_path, BASELINE_PATH)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    _gate(report, stages, failures)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"service smoke OK ({', '.join(stages)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
