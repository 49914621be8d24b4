"""Thin stdlib HTTP surface over :class:`~repro.service.pool.ReplayService`.

Endpoints (all JSON unless noted):

* ``POST /jobs`` -- submit a replay request (the :mod:`repro.service.jobs`
  wire format, plus an optional ``"lane"`` of ``interactive`` or ``bulk``);
  returns ``{job_id, status, deduped, lane, submissions}``: ``202`` for a
  new queued job, ``200`` for a coalesced one.  Identical requests return
  the same ``job_id``.  A request whose run is already in the results
  store settles on the POST itself: ``200`` with ``"status": "done"``,
  ``cache_hit`` and ``result_hash``, no poll needed.  When the admission
  queue is full a submission that needs a worker is rejected with ``429``
  and a ``Retry-After`` header estimating when capacity frees up.
* ``GET /jobs/<id>`` -- poll one job's status.
* ``GET /jobs/<id>/result`` -- the finished run's scored numbers and
  canonical ``result_hash`` (409 while queued/running, 410 when failed).
* ``GET /jobs/<id>/stream`` -- the run's interval samples as *server-sent
  events*, batched (``?batch=N``, default 256 samples per event; waits up
  to ``?timeout=S``, default 60, for the job to finish first).
* ``GET /healthz`` -- the health state machine
  (:meth:`~repro.service.pool.ReplayService.health`): ``healthy`` /
  ``degraded`` / ``draining``, with the circuit-breaker state, journal
  backlog and error counters, and retry/watchdog/quarantine totals that
  explain *why*.
* ``GET /metrics`` -- Prometheus-style text exposition of the service
  counters (queue depth, cache hit rate, jobs/sec, latency percentiles,
  plus the health/breaker signals as numeric gauge codes).

A client that disconnects mid-response (``BrokenPipeError`` /
``ConnectionResetError``, common for SSE consumers that stop early) is
*swallowed*: the handler thread ends quietly, the service counts the
disconnect (``client_disconnects``), and no traceback reaches stderr.
The ``api.sse_disconnect`` fault site (:mod:`repro.service.faults`)
injects exactly this failure per server-sent event.

Built on :class:`http.server.ThreadingHTTPServer` -- no third-party web
framework is required, so the service runs anywhere the library does.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service import faults
from repro.service.pool import Job, QueueFullError, ReplayService
from repro.simulation.metrics import SAMPLE_DTYPE, IntervalSamples

__all__ = ["make_server", "ReplayHTTPServer", "sample_batches"]

#: Exceptions that mean "the client went away", never "the service broke".
_DISCONNECTS = (BrokenPipeError, ConnectionResetError)

#: Default interval samples per server-sent batch.
DEFAULT_STREAM_BATCH = 256

#: Default seconds ``/stream`` waits for an unfinished job.
DEFAULT_STREAM_TIMEOUT_S = 60.0


class ReplayHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`ReplayService`."""

    daemon_threads = True

    def __init__(self, address, service: ReplayService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def handle_error(self, request, client_address) -> None:
        """Swallow client disconnects; defer everything else to stdlib.

        ``socketserver`` prints a full traceback for any handler
        exception; a client dropping mid-SSE is routine, not an error, so
        it is counted and silenced instead.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, _DISCONNECTS):
            self.service.note_client_disconnect()
            return
        super().handle_error(request, client_address)


def make_server(service: ReplayService, host: str = "127.0.0.1", port: int = 0) -> ReplayHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks a free port)."""
    return ReplayHTTPServer((host, port), service)


def _result_payload(job: Job) -> dict:
    """The scored numbers of a finished run, JSON-shaped."""
    run = job.result
    return {
        "job_id": job.job_id,
        "result_hash": job.result_hash,
        "workload": run.workload,
        "manager": run.manager,
        "total_energy_nj": run.total_energy_nj,
        "max_time_ns": run.max_time_ns,
        "rma_invocations": run.rma_invocations,
        "rma_instructions": run.rma_instructions,
        "n_interval_samples": len(run.interval_samples),
        "cache_hit": job.cache_hit,
        "apps": [
            {
                "app": a.app,
                "core": a.core,
                "time_ns": a.time_ns,
                "energy_nj": a.energy_nj,
                "intervals": a.intervals,
                "slack": a.slack,
            }
            for a in run.apps
        ],
    }


def sample_batches(samples: IntervalSamples, batch: int) -> Iterator[dict]:
    """The ``/stream`` batch payloads of a run's samples, ``batch`` rows
    each: every batch is sliced from the columns and turned into plain
    Python numbers with ``tolist``."""
    names = SAMPLE_DTYPE.names
    columns = samples.columns()
    for start in range(0, len(samples), batch):
        rows = zip(*(col[start : start + batch].tolist() for col in columns))
        yield {"offset": start, "samples": [dict(zip(names, row)) for row in rows]}


def _metrics_text(metrics: dict) -> str:
    """Prometheus text exposition (gauge per counter, stable order)."""
    lines = []
    for key in sorted(metrics):
        name = f"repro_service_{key}"
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {metrics[key]}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the bound service; errors become JSON bodies."""

    server: ReplayHTTPServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY, so no write (SSE events included) waits ~40 ms on Nagle.
    disable_nagle_algorithm = True

    # ---- plumbing -----------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr chatter (metrics cover observability)."""

    def _send(self, code: int, body: bytes, content_type: str, headers=()) -> None:
        """Send a fixed-length response: head and body in one socket write."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        # Not end_headers(): it flushes the head alone (HTTP/0.9 buffers none).
        head = self.__dict__.pop("_headers_buffer", [])
        self.wfile.write(b"".join([*head, b"\r\n" if head else b"", body]))

    def _send_json(self, code: int, payload: dict, headers=()) -> None:
        self._send(code, json.dumps(payload).encode(), "application/json", headers)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _job_or_404(self, job_id: str) -> Job | None:
        job = self.server.service.get_job(job_id)
        if job is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
        return job

    # ---- POST ---------------------------------------------------------------
    def do_POST(self) -> None:
        """``POST /jobs``: parse, validate, submit, report the job id.

        A job that is already ``done`` also reports ``cache_hit`` and
        ``result_hash``; one settled from the results store answers ``200``.
        """
        if urlparse(self.path).path != "/jobs":
            self._send_error_json(404, f"no such endpoint: POST {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
            payload = json.loads(raw.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error_json(400, f"malformed JSON body: {exc}")
            return
        try:
            job, deduped = self.server.service.submit_info(payload)
        except QueueFullError as exc:
            self._send_json(
                429,
                {
                    "error": str(exc),
                    "queue_depth": exc.depth,
                    "queue_capacity": exc.max_queue,
                    "retry_after_s": exc.retry_after_s,
                },
                [("Retry-After", str(max(1, int(exc.retry_after_s))))],
            )
            return
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        status = job.status  # one read: a worker may settle the job meanwhile
        body = {
            "job_id": job.job_id,
            "status": status,
            "deduped": deduped,
            "lane": job.lane,
            "submissions": job.submissions,
        }
        if status == "done":
            body["cache_hit"] = job.cache_hit
            body["result_hash"] = job.result_hash
        self._send_json(200 if deduped or job.cache_hit else 202, body)

    # ---- GET ----------------------------------------------------------------
    def do_GET(self) -> None:
        """Route ``GET`` endpoints (status, result, stream, health, metrics)."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._send_json(200, self.server.service.health())
        elif url.path == "/metrics":
            body = _metrics_text(self.server.service.metrics()).encode()
            self._send(200, body, "text/plain; version=0.0.4")
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_json(200, job.summary())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            job = self._job_or_404(parts[1])
            if job is None:
                return
            if job.status == "failed":
                self._send_error_json(410, job.error or "job failed")
            elif job.status != "done":
                self._send_error_json(409, f"job is {job.status}; poll until done")
            else:
                self._send_json(200, _result_payload(job))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._stream_samples(job, parse_qs(url.query))
        else:
            self._send_error_json(404, f"no such endpoint: GET {self.path}")

    # ---- SSE ----------------------------------------------------------------
    def _sse_event(self, event: str, payload: dict) -> None:
        """Emit one server-sent event (the per-event disconnect fault site).

        An injected or real disconnect raises a ``BrokenPipeError``
        subtype; it propagates to :meth:`ReplayHTTPServer.handle_error`,
        which counts and silences it.
        """
        if faults.fire(faults.SSE_DISCONNECT) is not None:
            raise faults.InjectedDisconnect("injected client disconnect mid-SSE")
        self.wfile.write(f"event: {event}\ndata: {json.dumps(payload)}\n\n".encode())

    def _stream_samples(self, job: Job, query: dict) -> None:
        """Stream a run's interval samples as server-sent batches.

        Waits (bounded) for an in-flight job, then emits ``batch`` events
        of up to ``?batch=N`` samples each and a final ``done`` event with
        the canonical result hash -- so a client can consume per-interval
        QoS data incrementally instead of one result blob.
        """
        try:
            batch = max(1, int(query.get("batch", [DEFAULT_STREAM_BATCH])[0]))
            timeout = float(query.get("timeout", [DEFAULT_STREAM_TIMEOUT_S])[0])
        except ValueError:
            self._send_error_json(400, "batch/timeout must be numeric")
            return
        if not job.wait(timeout):
            self._send_error_json(409, f"job still {job.status} after {timeout}s")
            return
        if job.status == "failed":
            self._send_error_json(410, job.error or "job failed")
            return
        samples = job.result.interval_samples
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # SSE is an open-ended body: close delimits it (Connection: close
        # keeps HTTP/1.1 keep-alive from waiting on a length we never send).
        self.send_header("Connection", "close")
        self.end_headers()
        for payload in sample_batches(samples, batch):
            self._sse_event("batch", payload)
        self._sse_event(
            "done",
            {
                "job_id": job.job_id,
                "result_hash": job.result_hash,
                "n_interval_samples": len(samples),
            },
        )
        self.close_connection = True
