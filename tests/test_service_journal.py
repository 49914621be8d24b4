"""Durability + admission suite: journal WAL, crash recovery, lanes, 429s.

Covers the append-only job journal (fsync'd JSONL appends, torn-final-line
tolerance, pending-fold semantics, atomic compaction) with hypothesis
round-trip and crash-truncation properties; the two-lane admission queue's
strict-priority + starvation-escape ordering (property-tested against the
documented bound); bounded-queue admission control (QueueFullError and the
HTTP 429 + ``Retry-After`` surface); and an in-process SIGKILL-equivalent:
a service abandoned mid-queue whose journal is recovered by a fresh service
that drains every unsettled job to the same content hashes.

The subprocess SIGKILL variant (a real ``serve.py`` killed and rebooted)
runs in CI via ``tools/service_smoke.py --stage restart``.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ExperimentContext
from repro.service import JobJournal, JournalRecord, QueueFullError, ReplayService
from repro.service import pool as pool_mod
from repro.service.journal import JOURNAL_EVENTS, JOURNAL_FORMAT_VERSION
from repro.service.pool import _LaneQueue
from repro.simulation.results_store import ResultsStore

#: Small fidelity for every service test: horizons stay tiny, replay fast.
MAX_SLICES = 5

WAIT_S = 240.0


def _factory(system4, db4, tmp_path, subdir="results"):
    def factory(ncores):
        assert ncores == 4, "this suite only requests 4-core jobs"
        return ExperimentContext(
            system=system4, db=db4, max_slices=MAX_SLICES,
            results_store=ResultsStore(str(tmp_path / subdir)),
        )

    return factory


def _s1_body(seed=0, name="journal-s1") -> dict:
    return {
        "shape": "S1",
        "ncores": 4,
        "params": {"rate_per_interval": 0.25, "horizon_intervals": 16, "seed": seed},
        "manager": {"kind": "coordinated", "name": "rm2-combined"},
        "name": name,
    }


# ---- journal unit behaviour --------------------------------------------------


class TestJournalRecords:
    def test_append_and_replay_round_trip(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("submitted", "a" * 24, lane="bulk", spec={"shape": "S1"})
        journal.append("claimed", "a" * 24)
        journal.append("published", "a" * 24, result_hash="b" * 16)
        records = journal.records()
        assert [r.event for r in records] == ["submitted", "claimed", "published"]
        assert records[0].lane == "bulk"
        assert records[0].spec == {"shape": "S1"}
        assert records[2].result_hash == "b" * 16
        assert journal.appends == 3

    def test_pending_fold_semantics(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("submitted", "job-a", lane="interactive", spec={"shape": "S1"})
        journal.append("submitted", "job-b", lane="bulk", spec={"shape": "S2"})
        journal.append("submitted", "job-c", lane="interactive", spec={"shape": "S3"})
        # claimed does NOT settle: the claimant may have died mid-run.
        journal.append("claimed", "job-a")
        journal.append("published", "job-b", result_hash="x")
        journal.append("failed", "job-c", error="boom")
        pending = journal.pending()
        assert set(pending) == {"job-a"}
        assert pending["job-a"].spec == {"shape": "S1"}

    def test_legacy_stored_line_keeps_pending(self, tmp_path):
        """Older builds journalled a ``stored`` event after each store put."""
        a, b = "a" * 24, "b" * 24
        lines = [
            json.dumps(r.to_json(), sort_keys=True)
            for r in (
                JournalRecord("submitted", a, lane="interactive", spec={"shape": "S1"}),
                JournalRecord("submitted", b, lane="bulk", spec={"shape": "S2"}),
                JournalRecord("published", b, result_hash="h"),
            )
        ]
        stored = [
            json.dumps({"v": JOURNAL_FORMAT_VERSION, "event": "stored", "job_id": key})
            for key in (b, a)
        ]
        # b was stored then published; a was stored when the service died.
        legacy_lines = lines[:2] + stored[:1] + lines[2:] + stored[1:]
        pendings = []
        for name, body in (("plain", lines), ("legacy", legacy_lines)):
            root = tmp_path / name
            root.mkdir()
            (root / JobJournal.FILENAME).write_text("\n".join(body) + "\n")
            pendings.append(JobJournal(str(root)).pending())
        assert set(pendings[0]) == {a}
        assert pendings[1] == pendings[0]

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("submitted", "job-a", lane="interactive", spec={"shape": "S1"})
        journal.append("submitted", "job-b", lane="bulk", spec={"shape": "S2"})
        journal.close()
        with open(journal.path, "rb") as fh:
            raw = fh.read()
        with open(journal.path, "wb") as fh:
            fh.write(raw[:-7])  # crash mid-append of the final record
        records = journal.records()
        assert [r.job_id for r in records] == ["job-a"]
        assert journal.torn_lines == 1
        assert set(journal.pending()) == {"job-a"}

    def test_unknown_version_and_event_dropped(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("submitted", "job-a", spec={"shape": "S1"})
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"v": 999, "event": "submitted", "job_id": "x"}) + "\n")
            fh.write(
                json.dumps(
                    {"v": JOURNAL_FORMAT_VERSION, "event": "vaporised", "job_id": "x"}
                )
                + "\n"
            )
        assert [r.job_id for r in journal.records()] == ["job-a"]
        assert journal.torn_lines == 2

    def test_compact_keeps_only_pending(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        for i in range(4):
            journal.append("submitted", f"job-{i}", lane="interactive", spec={"i": i})
        journal.append("published", "job-0", result_hash="x")
        journal.append("failed", "job-3", error="boom")
        survivors = journal.compact()
        assert survivors == 2
        records = journal.records()
        assert [r.job_id for r in records] == ["job-1", "job-2"]
        assert all(r.event == "submitted" for r in records)
        # The compacted file is a valid journal: append still works after.
        journal.append("claimed", "job-1")
        assert set(journal.pending()) == {"job-1", "job-2"}

    def test_missing_file_is_empty(self, tmp_path):
        journal = JobJournal(str(tmp_path / "nonexistent"))
        assert journal.records() == []
        assert journal.pending() == {}
        assert journal.compact() == 0

    def test_new_journal_creates_an_empty_file(self, tmp_path):
        """The log exists from construction, before any append."""
        journal = JobJournal(str(tmp_path / "fresh"))
        with open(journal.path, encoding="utf-8") as fh:
            assert fh.read() == ""
        assert journal.pending() == {}
        assert journal.appends == 0

    def test_retrying_round_trip_and_pending_fold(self, tmp_path):
        """``retrying`` records carry the attempt count into the pending
        fold, so recovery resumes the retry budget instead of resetting it."""
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("submitted", "job-a", lane="interactive", spec={"shape": "S1"})
        journal.append("claimed", "job-a", attempt=1)
        journal.append("retrying", "job-a", attempt=1, error="InjectedWorkerCrash: x")
        journal.append("claimed", "job-a", attempt=2)
        journal.append("retrying", "job-a", attempt=2, error="WatchdogTimeout: y")
        pending = journal.pending()
        assert set(pending) == {"job-a"}
        assert pending["job-a"].attempt == 2
        assert pending["job-a"].spec == {"shape": "S1"}  # spec survives the fold
        # A stale (lower) retrying record never regresses the attempt count.
        journal.append("retrying", "job-a", attempt=1, error="replayed")
        assert journal.pending()["job-a"].attempt == 2

    def test_compact_preserves_attempt_counts(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("submitted", "job-a", lane="bulk", spec={"shape": "S1"})
        journal.append("retrying", "job-a", attempt=3, error="boom")
        assert journal.compact() == 1
        # The compacted submitted record carries the folded attempt, and a
        # fresh journal over the same file reads it back identically.
        reread = JobJournal(journal.root)
        pending = reread.pending()
        assert pending["job-a"].attempt == 3
        assert pending["job-a"].event == "submitted"

    def test_maybe_compact_triggers_on_settled_backlog(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"), compact_min_settled=2, compact_factor=1)
        journal.append("submitted", "job-a", spec={"shape": "S1"})
        journal.append("published", "job-a", result_hash="x")
        assert journal.settled_since_compact == 1
        assert not journal.maybe_compact(pending_hint=0)  # below the floor
        journal.append("submitted", "job-b", spec={"shape": "S1"})
        journal.append("failed", "job-b", error="boom")
        assert journal.maybe_compact(pending_hint=0)  # 2 >= max(2, 1*1)
        assert journal.settled_since_compact == 0
        assert journal.compactions == 1
        assert journal.records() == []  # everything settled -> empty WAL
        # A large pending backlog raises the threshold above the floor.
        journal2 = JobJournal(str(tmp_path / "j2"), compact_min_settled=2, compact_factor=1)
        for i in range(5):
            journal2.append("submitted", f"job-{i}", spec={"shape": "S1"})
        journal2.append("published", "job-0", result_hash="x")
        journal2.append("published", "job-1", result_hash="x")
        assert not journal2.maybe_compact(pending_hint=3)  # 2 < max(2, 1*3)=3


# ---- hypothesis properties ---------------------------------------------------

_record_strategy = st.builds(
    JournalRecord,
    event=st.sampled_from(JOURNAL_EVENTS),
    job_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=24),
    lane=st.none() | st.sampled_from(["interactive", "bulk"]),
    spec=st.none()
    | st.fixed_dictionaries(
        {"shape": st.sampled_from(["S1", "S5", "FIXED"]), "seed": st.integers(0, 99)}
    ),
    result_hash=st.none() | st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
    error=st.none() | st.text(max_size=40),
    attempt=st.none() | st.integers(min_value=1, max_value=9),
)


class TestJournalProperties:
    @given(record=_record_strategy)
    @settings(max_examples=80, deadline=None)
    def test_record_json_round_trip(self, record):
        assert JournalRecord.from_json(json.loads(json.dumps(record.to_json()))) == record

    @given(
        records=st.lists(_record_strategy, min_size=1, max_size=8),
        cut=st.integers(min_value=0, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_crash_truncation_recovers_complete_prefix(self, tmp_path_factory, records, cut, data):
        """Serialize -> crash-truncate the tail -> recover every whole record.

        A crash can cut the file at *any* byte offset; everything before the
        torn line must replay, the fragment must be dropped (not poison
        recovery), and the pending fold must equal the fold of the
        recovered prefix.
        """
        root = tmp_path_factory.mktemp("journal")
        journal = JobJournal(str(root))
        for record in records:
            journal.append(
                record.event,
                record.job_id,
                lane=record.lane,
                spec=record.spec,
                result_hash=record.result_hash,
                error=record.error,
                attempt=record.attempt,
            )
        journal.close()
        with open(journal.path, "rb") as fh:
            raw = fh.read()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)), label="cut_offset")
        with open(journal.path, "wb") as fh:
            fh.write(raw[:cut])
        # A record survives iff its complete JSON (newline optional: a cut
        # that eats only the terminator leaves a parseable final line) is
        # within the kept prefix; a cut strictly inside a line leaves an
        # unparseable fragment (every strict prefix of the JSON object is
        # invalid), which must be dropped and counted as torn.
        starts, ends, offset = [], [], 0
        for line in raw.split(b"\n")[:-1]:
            starts.append(offset)
            ends.append(offset + len(line))
            offset += len(line) + 1
        survivors = sum(1 for end in ends if cut >= end)
        recovered = journal.records()
        assert recovered == records[:survivors]
        frag_torn = any(start < cut < end for start, end in zip(starts, ends))
        assert journal.torn_lines == (1 if frag_torn else 0)
        expected_pending = {}
        for record in records[:survivors]:
            if record.event == "submitted" and record.spec is not None:
                expected_pending[record.job_id] = record
            elif record.event in ("published", "failed"):
                expected_pending.pop(record.job_id, None)
        assert journal.pending() == expected_pending


class _FakeJob:
    def __init__(self, lane, tag):
        self.lane = lane
        self.tag = tag


class TestLaneQueueProperties:
    def test_strict_priority_when_both_waiting(self):
        q = _LaneQueue(bulk_escape_every=8)
        q.put(_FakeJob("bulk", "b0"))
        q.put(_FakeJob("interactive", "i0"))
        q.put(_FakeJob("interactive", "i1"))
        assert [q.get().tag for _ in range(3)] == ["i0", "i1", "b0"]

    def test_bulk_escape_fires_every_k(self):
        q = _LaneQueue(bulk_escape_every=2)
        for i in range(6):
            q.put(_FakeJob("interactive", f"i{i}"))
        q.put(_FakeJob("bulk", "b0"))
        order = [q.get().tag for _ in range(7)]
        # Two interactive dequeues skip the waiting bulk job, then it escapes.
        assert order == ["i0", "i1", "b0", "i2", "i3", "i4", "i5"]

    def test_sentinel_waits_for_jobs(self):
        q = _LaneQueue()
        q.put_sentinel()
        q.put(_FakeJob("bulk", "b0"))
        assert q.get().tag == "b0"
        assert q.get() is None

    @given(
        lanes=st.lists(st.sampled_from(["interactive", "bulk"]), min_size=1, max_size=40),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_bounded_starvation_both_ways(self, lanes, k):
        """The documented ordering bound, for any enqueue mix and escape K.

        Draining a pre-filled queue: (a) an interactive job is never
        preceded by more than ``1 + served_interactive // K`` bulk jobs
        (bulk cannot starve interactive), and (b) a waiting bulk job is
        never skipped more than ``K`` consecutive times (interactive cannot
        starve bulk).
        """
        q = _LaneQueue(bulk_escape_every=k)
        for i, lane in enumerate(lanes):
            q.put(_FakeJob(lane, i))
        order = [q.get() for _ in range(len(lanes))]
        assert sorted(j.tag for j in order) == list(range(len(lanes)))
        bulk_seen = interactive_seen = 0
        consecutive_skips = 0
        bulk_remaining = sum(1 for lane in lanes if lane == "bulk")
        for job in order:
            if job.lane == "interactive":
                # (a) interactive never waits behind more than K-amortised bulk.
                assert bulk_seen <= 1 + interactive_seen // k
                interactive_seen += 1
                if bulk_remaining:
                    consecutive_skips += 1
                    # (b) a waiting bulk job escapes within K skips.
                    assert consecutive_skips <= k
            else:
                bulk_seen += 1
                bulk_remaining -= 1
                consecutive_skips = 0


# ---- admission control -------------------------------------------------------


class TestAdmissionControl:
    def test_queue_full_raises_and_dedup_still_admitted(
        self, system4, db4, tmp_path, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()

        def blocked(ctx, item, manager):
            started.set()
            release.wait(WAIT_S)
            raise RuntimeError("released without result")

        monkeypatch.setattr(pool_mod, "_execute_replay", blocked)
        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, max_queue=1
        )
        try:
            first = svc.submit(_s1_body(seed=0))
            assert started.wait(WAIT_S), "worker never claimed the first job"
            second = svc.submit(_s1_body(seed=1))
            with pytest.raises(QueueFullError) as excinfo:
                svc.submit(_s1_body(seed=2))
            assert excinfo.value.retry_after_s >= 1.0
            assert excinfo.value.max_queue == 1
            # Coalescing onto existing jobs adds no work: always admitted.
            again, deduped = svc.submit_info(_s1_body(seed=1))
            assert deduped and again is second
            assert first.submissions == 1
            assert svc.metrics()["jobs_rejected"] == 1
        finally:
            release.set()
            svc.close()

    def test_validation_beats_admission(self, system4, db4, tmp_path):
        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, max_queue=1
        )
        try:
            with pytest.raises(ValueError, match="unknown lane"):
                svc.submit(_s1_body(), lane="premium")
        finally:
            svc.close()


# ---- crash recovery ----------------------------------------------------------


class TestCrashRecovery:
    def test_abandoned_service_recovers_from_journal(
        self, system4, db4, tmp_path, monkeypatch
    ):
        """SIGKILL-equivalent: jobs queued + in-flight survive into a new service.

        Service 1 journals three submissions, claims one (its executor
        blocks forever -- the worker thread is then abandoned, as a killed
        process would be), and never settles anything.  Service 2 opens the
        same journal, recovers all three jobs -- including the *claimed*
        one, whose claimant died -- and drains them for real; afterwards the
        journal folds to empty.
        """
        jdir = str(tmp_path / "journal")
        started, release = threading.Event(), threading.Event()

        def blocked(ctx, item, manager):
            started.set()
            release.wait(WAIT_S)
            raise RuntimeError("abandoned worker released")

        bodies = [_s1_body(seed=s) for s in (0, 1, 2)]
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

        pending = JobJournal(jdir).pending()
        assert set(pending) == {j.job_id for j in jobs}
        assert all(r.spec is not None for r in pending.values())

        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path, "store-fresh"),
            workers=2,
            journal=jdir,
        )
        try:
            recovered = svc.recover()
            assert {j.job_id for j in recovered} == set(pending)
            for job in recovered:
                assert job.wait(WAIT_S), f"recovered job {job.job_id} hung"
                assert job.status == "done", job.error
                assert job.recovered
            assert svc.metrics()["jobs_recovered"] == 3
            assert JobJournal(jdir).pending() == {}
        finally:
            svc.close()
            # Release and drain the abandoned service, so none of its work
            # outlives this test (a later fault plan would see its dispatches).
            release.set()
            crashed.close()

    def test_recover_without_journal_is_noop(self, system4, db4, tmp_path):
        svc = ReplayService(context_factory=_factory(system4, db4, tmp_path), workers=1)
        try:
            assert svc.recover() == []
        finally:
            svc.close()

    def test_settled_jobs_are_not_recovered(self, system4, db4, tmp_path):
        jdir = str(tmp_path / "journal")
        with ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, journal=jdir
        ) as svc:
            job = svc.submit(_s1_body(seed=7))
            assert job.wait(WAIT_S) and job.status == "done"
            done_hash = job.result_hash
        svc2 = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, journal=jdir
        )
        try:
            assert svc2.recover() == []
            # The finished run still survives -- via the at-rest store.
            job2 = svc2.submit(_s1_body(seed=7))
            assert job2.wait(WAIT_S) and job2.status == "done"
            assert job2.cache_hit and job2.result_hash == done_hash
        finally:
            svc2.close()

    def test_unrecoverable_journalled_spec_is_settled_failed(
        self, system4, db4, tmp_path
    ):
        jdir = str(tmp_path / "journal")
        journal = JobJournal(jdir)
        journal.append(
            "submitted", "deadbeef" * 3, lane="interactive", spec={"shape": "S99"}
        )
        journal.close()
        svc = ReplayService(
            context_factory=_factory(system4, db4, tmp_path), workers=1, journal=jdir
        )
        try:
            assert svc.recover() == []
            # The bad record is settled as failed, never re-recovered.
            assert JobJournal(jdir).pending() == {}
        finally:
            svc.close()
