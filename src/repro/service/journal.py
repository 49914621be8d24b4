"""Durable job journal: an append-only JSONL write-ahead log.

The at-rest results store already makes *finished* runs survive a restart;
this module does the same for **queued and in-flight** jobs.  Every state
transition of a journalled job appends one JSON line to
``<journal_dir>/journal.jsonl`` (created empty when the journal is built):

* ``submitted`` -- carries the full wire-form :class:`~repro.service.jobs.
  JobSpec` and the admission lane, so the job can be rebuilt from the
  journal alone;
* ``claimed`` -- a worker started executing the job (advisory: a claimed
  job is still recovered, because the claimant may have died mid-run);
  carries the 1-based attempt number;
* ``retrying`` -- an attempt failed and the job was requeued with backoff;
  carries the failed attempt count, so recovery resumes the retry budget
  where it left off instead of resetting it;
* ``published`` / ``failed`` -- the job settled; settled jobs are not
  recovered.  A ``published`` job's result is in the results store unless
  its put failed, so the store, not the journal, is the record of
  finished runs.

A line naming any other event (a ``stored`` line written by an older
build, say) is dropped on replay like a torn one; it never changes which
jobs are pending.

Appends are **fsync'd** before the submit path acknowledges a job, so a
SIGKILL at any instant loses at most work the client was never told was
accepted.  A torn final line (the crash happened mid-append) is tolerated
on replay: every complete record before it is recovered, the fragment is
dropped, and :attr:`JobJournal.torn_lines` counts the drop.

Write faults self-heal: a failed append (torn write or fsync error --
injectable via :mod:`repro.service.faults`) is retried once on a freshly
opened handle, with a leading newline isolating any half-written fragment
so replay drops it; a second failure is *absorbed* (counted in
:attr:`JobJournal.append_failures`, surfaced as ``degraded`` by the
service health endpoint) rather than failing the job -- availability
degrades to best-effort durability instead of refusing traffic.

On boot, :meth:`JobJournal.pending` folds the log into the set of
unsettled jobs (each carrying its latest attempt count) and
:meth:`JobJournal.compact` atomically rewrites the file to just those
records (tmp + fsync + ``os.replace``).  The service also auto-compacts a
long-running journal: :meth:`maybe_compact` triggers once settled records
since the last compaction exceed ``compact_factor`` times the pending
backlog (with a floor), so the WAL stays proportional to the live queue
instead of growing with service lifetime.  The journal assumes a single
writing service per directory -- run one ``tools/serve.py`` per journal
dir.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
from dataclasses import dataclass

from repro.service.faults import InjectedJournalError
from repro.service.faults import fire as _fire

__all__ = ["JobJournal", "JournalRecord", "JOURNAL_EVENTS", "JOURNAL_FORMAT_VERSION"]

#: Bump when the record schema changes incompatibly; older journals are
#: then ignored (their jobs are re-submitted by clients, never corrupted).
JOURNAL_FORMAT_VERSION = 1

#: The journalled job-state transitions, in lifecycle order.
JOURNAL_EVENTS = ("submitted", "claimed", "retrying", "published", "failed")

#: Events that settle a job (it will not be recovered afterwards).
_SETTLED = frozenset({"published", "failed"})


@dataclass(frozen=True)
class JournalRecord:
    """One journalled transition; ``spec``/``lane`` are set on ``submitted``,
    ``attempt`` on ``claimed``/``retrying`` (and on compacted ``submitted``
    records, preserving the retry budget across recovery)."""

    event: str
    job_id: str
    lane: str | None = None
    spec: dict | None = None
    result_hash: str | None = None
    error: str | None = None
    attempt: int | None = None

    def to_json(self) -> dict:
        """The JSONL wire form (versioned, ``None`` fields omitted)."""
        payload = {"v": JOURNAL_FORMAT_VERSION, "event": self.event, "job_id": self.job_id}
        for field in ("lane", "spec", "result_hash", "error", "attempt"):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "JournalRecord":
        """Parse one decoded line; raises ``ValueError`` on schema drift."""
        if not isinstance(payload, dict):
            raise ValueError("journal record must be a JSON object")
        if payload.get("v") != JOURNAL_FORMAT_VERSION:
            raise ValueError(f"unsupported journal format version {payload.get('v')!r}")
        event = payload.get("event")
        if event not in JOURNAL_EVENTS:
            raise ValueError(f"unknown journal event {event!r}")
        job_id = payload.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ValueError("journal record needs a job_id")
        return cls(
            event=event,
            job_id=job_id,
            lane=payload.get("lane"),
            spec=payload.get("spec"),
            result_hash=payload.get("result_hash"),
            error=payload.get("error"),
            attempt=payload.get("attempt"),
        )


class JobJournal:
    """Append-only, fsync'd JSONL write-ahead log of job transitions.

    Thread-safe: the service's submit path and every worker thread append
    through one lock, and each record is written as a single ``write()``
    call followed by ``flush`` + ``fsync`` -- a crash can tear at most the
    final line, never interleave two records.
    """

    FILENAME = "journal.jsonl"

    def __init__(
        self,
        root: str,
        *,
        compact_factor: int = 4,
        compact_min_settled: int = 64,
    ) -> None:
        if compact_factor < 1:
            raise ValueError("compact_factor must be at least 1")
        self.root = root
        self.path = os.path.join(root, self.FILENAME)
        self.compact_factor = compact_factor
        self.compact_min_settled = compact_min_settled
        self._lock = threading.Lock()
        self._fh = None
        # Create the (empty) log now: a service whose every submission
        # settles from the results store never appends, yet the log exists.
        os.makedirs(root, exist_ok=True)
        with open(self.path, "a", encoding="utf-8"):
            pass
        #: Records appended by this process (monotonic, for metrics).
        self.appends = 0
        #: Malformed lines dropped by the last :meth:`records` call.
        self.torn_lines = 0
        #: Write faults healed by the reopen-and-rewrite retry.
        self.write_errors = 0
        #: Appends abandoned after the retry also failed (degraded mode).
        self.append_failures = 0
        #: Settled (published/failed) records since the last compaction --
        #: the auto-compaction trigger input.
        self.settled_since_compact = 0
        #: Compactions performed by this process (explicit + automatic).
        self.compactions = 0

    # ---- writing ------------------------------------------------------------
    def _ensure_open(self):
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def _write_line(self, line: str) -> None:
        """One write+flush+fsync barrier, with injectable write faults."""
        fh = self._ensure_open()
        if _fire("journal.torn_write"):
            # Leave exactly what a crash mid-write leaves: a prefix of the
            # record with no terminating newline.
            fh.write(line[: max(1, len(line) // 2)])
            fh.flush()
            raise InjectedJournalError("injected torn journal write")
        fh.write(line)
        fh.flush()
        if _fire("journal.fsync"):
            raise InjectedJournalError("injected journal fsync failure")
        os.fsync(fh.fileno())

    def append(
        self,
        event: str,
        job_id: str,
        *,
        lane: str | None = None,
        spec: dict | None = None,
        result_hash: str | None = None,
        error: str | None = None,
        attempt: int | None = None,
    ) -> JournalRecord:
        """Durably append one transition (fsync'd before returning).

        A failed write self-heals: the handle is reopened and the record
        rewritten once, prefixed with a newline so any half-written
        fragment is isolated on its own (malformed, hence dropped) line.
        A second failure is absorbed into :attr:`append_failures` -- the
        service keeps running with degraded durability rather than failing
        the job, and reports it via ``/healthz``.
        """
        record = JournalRecord(
            event=event,
            job_id=job_id,
            lane=lane,
            spec=spec,
            result_hash=result_hash,
            error=error,
            attempt=attempt,
        )
        line = json.dumps(record.to_json(), sort_keys=True) + "\n"
        with self._lock:
            try:
                self._write_line(line)
            except OSError:
                self.write_errors += 1
                try:
                    if self._fh is not None:
                        self._fh.close()
                        self._fh = None
                    self._write_line("\n" + line)
                except OSError:
                    self.append_failures += 1
                    return record
            self.appends += 1
            if record.event in _SETTLED:
                self.settled_since_compact += 1
        return record

    def close(self) -> None:
        """Close the append handle (reopened automatically on next append)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # ---- replay -------------------------------------------------------------
    def records(self) -> list[JournalRecord]:
        """Every well-formed record, in append order.

        Tolerates a torn final line (crash mid-append) and any malformed
        line generally: such lines are dropped and counted in
        :attr:`torn_lines` rather than poisoning recovery.
        """
        self.torn_lines = 0
        out: list[JournalRecord] = []
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return out
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                out.append(JournalRecord.from_json(json.loads(line)))
            except ValueError:
                self.torn_lines += 1
        return out

    def pending(self) -> dict[str, JournalRecord]:
        """The unsettled jobs: submitted (or re-submitted) but never
        published/failed, folded in append order.

        Returns ``{job_id: submitted-record}`` -- each value carries the
        wire-form spec, lane, and the latest journalled attempt count (so
        recovery resumes the retry budget instead of resetting it).  A
        ``claimed`` transition does *not* settle a job (its claimant may
        have died mid-run), which is exactly what makes in-flight jobs
        recoverable.
        """
        live: dict[str, JournalRecord] = {}
        for record in self.records():
            if record.event == "submitted" and record.spec is not None:
                live[record.job_id] = record
            elif record.event == "retrying" and record.attempt is not None:
                held = live.get(record.job_id)
                if held is not None and (held.attempt or 0) < record.attempt:
                    live[record.job_id] = dataclasses.replace(held, attempt=record.attempt)
            elif record.event in _SETTLED:
                live.pop(record.job_id, None)
        return live

    def compact(self, pending: dict[str, JournalRecord] | None = None) -> int:
        """Atomically rewrite the journal down to its pending records.

        Writes the surviving ``submitted`` records to a temp file in the
        journal directory, fsyncs it, and ``os.replace``s it over the
        journal -- a crash at any instant leaves either the old or the new
        journal, never a truncated one.  Returns the surviving record
        count.
        """
        if pending is None:
            pending = self.pending()
        with self._lock:
            self.settled_since_compact = 0
            self.compactions += 1
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            fd, tmp = tempfile.mkstemp(prefix="journal.", suffix=".tmp", dir=self.root)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    for record in pending.values():
                        fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        return len(pending)

    def maybe_compact(self, pending_hint: int = 0) -> bool:
        """Auto-compact once settled records dominate the live backlog.

        ``pending_hint`` is the caller's cheap estimate of unsettled jobs
        (the service passes its queue depth).  Compaction triggers when
        settled records since the last compaction exceed
        ``max(compact_min_settled, compact_factor * max(1, pending_hint))``
        -- i.e. the journal is mostly dead weight -- and is skipped
        otherwise, so the hot append path never pays a full-file rewrite.
        Returns True when a compaction ran.
        """
        threshold = max(self.compact_min_settled, self.compact_factor * max(1, pending_hint))
        if self.settled_since_compact < threshold:
            return False
        self.compact()
        return True
