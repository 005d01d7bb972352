"""Durability subsystem: journal format, dead-letter spill, recovery
semantics, and the fail_open / fail_closed degraded-mode policies."""

from __future__ import annotations

import gc
import json
import threading
import time
import zlib

import pytest

from repro import Database
from repro.durability import (
    AuditJournal,
    DeadLetterJournal,
    scan_journal,
)
from repro.durability.journal import (
    decode_id,
    decode_line,
    encode_id,
    encode_record,
    segment_paths,
)
from repro.durability.recovery import uncommitted_intents
from repro.concurrency import TriggerBatch
from repro.errors import (
    AuditTrailIncompleteError,
    AuditTrailWarning,
    AuditUnavailableError,
    DurabilityError,
    JournalCorruptionError,
)
from repro.testing import CrashError, FaultInjector

from tests.test_concurrency import SERVE_QUERY, ServingFixture, request_mix


# ---------------------------------------------------------------------------
# the journal file format


class TestJournalFormat:
    def test_encode_decode_roundtrip(self):
        payload = {"seq": 7, "kind": "intent", "data": {"a": [1, 2]}}
        line = encode_record(payload)
        assert line.endswith(b"\n")
        assert decode_line(line) == payload

    def test_decode_rejects_flipped_bit(self):
        line = bytearray(encode_record({"seq": 0, "kind": "intent"}))
        line[-3] ^= 0x01  # corrupt one JSON byte, keep the CRC
        with pytest.raises(ValueError, match="CRC"):
            decode_line(bytes(line))

    def test_append_scan_roundtrip(self, tmp_path):
        journal = AuditJournal(tmp_path / "j", fsync="always")
        seqs = [journal.append("intent", {"n": i}) for i in range(5)]
        journal.append("commit", {"intent": seqs[0]})
        journal.close()
        scan = scan_journal(tmp_path / "j")
        assert seqs == [0, 1, 2, 3, 4]
        assert [r.kind for r in scan.records] == ["intent"] * 5 + ["commit"]
        assert [r.seq for r in scan.records] == [0, 1, 2, 3, 4, 5]
        assert scan.records[2].data == {"n": 2}
        assert scan.torn_tail == 0 and scan.corrupt == 0

    def test_reopen_continues_sequence(self, tmp_path):
        journal = AuditJournal(tmp_path / "j")
        journal.append("intent", {})
        journal.append("intent", {})
        journal.close()
        journal = AuditJournal(tmp_path / "j")
        assert journal.append("intent", {}) == 2
        journal.close()
        assert [r.seq for r in scan_journal(tmp_path / "j").records] \
            == [0, 1, 2]

    def test_rotation_splits_segments_sequence_stays_global(self, tmp_path):
        journal = AuditJournal(tmp_path / "j", segment_max_bytes=256)
        for i in range(20):
            journal.append("intent", {"n": i})
        journal.close()
        segments = segment_paths(tmp_path / "j")
        assert len(segments) > 1
        scan = scan_journal(tmp_path / "j")
        assert [r.seq for r in scan.records] == list(range(20))
        assert scan.segments == len(segments)

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(DurabilityError, match="fsync"):
            AuditJournal(tmp_path / "j", fsync="sometimes")

    def test_append_after_close_raises(self, tmp_path):
        journal = AuditJournal(tmp_path / "j")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(DurabilityError, match="closed"):
            journal.append("intent", {})

    def test_fsync_policy_counts(self, tmp_path):
        always = AuditJournal(tmp_path / "a", fsync="always")
        for _ in range(4):
            always.append("intent", {})
        always.close()
        assert always.fsyncs == 4

        batch = AuditJournal(tmp_path / "b", fsync="batch", batch_interval=3)
        for _ in range(4):
            batch.append("intent", {})
        assert batch.fsyncs == 1  # one interval crossed
        batch.close()  # close syncs the remainder
        assert batch.fsyncs == 2

        off = AuditJournal(tmp_path / "c", fsync="off")
        for _ in range(4):
            off.append("intent", {})
        off.close()
        assert off.fsyncs == 0

    def test_concurrent_appends_keep_unique_sequence(self, tmp_path):
        journal = AuditJournal(tmp_path / "j", fsync="off")
        seqs: list[int] = []
        lock = threading.Lock()

        def writer():
            for _ in range(50):
                seq = journal.append("intent", {})
                with lock:
                    seqs.append(seq)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        journal.close()
        assert sorted(seqs) == list(range(200))
        scan = scan_journal(tmp_path / "j")
        assert sorted(r.seq for r in scan.records) == list(range(200))


class TestJournalDamage:
    @staticmethod
    def _write_journal(path, n=4):
        journal = AuditJournal(path, fsync="always")
        for i in range(n):
            journal.append("intent", {"n": i})
        journal.close()

    def test_torn_tail_of_last_segment_tolerated(self, tmp_path):
        self._write_journal(tmp_path / "j")
        segment = segment_paths(tmp_path / "j")[-1]
        with open(segment, "ab") as handle:
            handle.write(b'0badc0de {"seq":99,"ki')  # crash mid-append
        scan = scan_journal(tmp_path / "j")  # strict: still no raise
        assert [r.seq for r in scan.records] == [0, 1, 2, 3]
        assert scan.torn_tail == 1

    def test_interior_corruption_raises_strict(self, tmp_path):
        self._write_journal(tmp_path / "j")
        segment = segment_paths(tmp_path / "j")[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef not-json\n"  # bad line with good ones after
        segment.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptionError):
            scan_journal(tmp_path / "j")

    def test_interior_corruption_skipped_non_strict(self, tmp_path):
        self._write_journal(tmp_path / "j")
        segment = segment_paths(tmp_path / "j")[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef not-json\n"
        segment.write_bytes(b"".join(lines))
        scan = scan_journal(tmp_path / "j", strict=False)
        assert [r.seq for r in scan.records] == [0, 2, 3]
        assert scan.corrupt == 1 and scan.torn_tail == 0

    def test_corrupt_earlier_segment_never_counts_as_torn(self, tmp_path):
        journal = AuditJournal(tmp_path / "j", segment_max_bytes=128,
                               fsync="off")
        for i in range(10):
            journal.append("intent", {"n": i})
        journal.close()
        first, *_rest, _last = segment_paths(tmp_path / "j")
        data = first.read_bytes()
        first.write_bytes(data[:-5])  # truncate the FIRST segment's tail
        with pytest.raises(JournalCorruptionError):
            scan_journal(tmp_path / "j")
        scan = scan_journal(tmp_path / "j", strict=False)
        assert scan.corrupt == 1 and scan.torn_tail == 0

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        """A torn tail must be cut on reopen: appending in 'ab' mode onto
        the partial line would silently lose the first post-restart record
        and corrupt the journal once another followed."""
        self._write_journal(tmp_path / "j", n=3)
        segment = segment_paths(tmp_path / "j")[-1]
        size_before_tear = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b'0badc0de {"seq":99,"ki')  # crash mid-append
        journal = AuditJournal(tmp_path / "j", fsync="always")
        assert journal.repaired_tail_bytes > 0
        assert segment.stat().st_size == size_before_tear
        assert journal.append("intent", {"n": 3}) == 3
        journal.append("intent", {"n": 4})
        journal.close()
        # strict scan (what Database.recover uses): nothing lost, no raise
        scan = scan_journal(tmp_path / "j")
        assert [r.seq for r in scan.records] == [0, 1, 2, 3, 4]
        assert [r.data["n"] for r in scan.records] == [0, 1, 2, 3, 4]
        assert scan.torn_tail == 0 and scan.corrupt == 0

    def test_reopen_survives_second_crash(self, tmp_path):
        """Tear, reopen, append, tear again, reopen again — each restart
        repairs its own tail and loses nothing durable."""
        self._write_journal(tmp_path / "j", n=2)
        for round_no in range(2):
            segment = segment_paths(tmp_path / "j")[-1]
            with open(segment, "ab") as handle:
                handle.write(b"deadbeef {torn")
            journal = AuditJournal(tmp_path / "j", fsync="always")
            journal.append("intent", {"round": round_no})
            journal.close()
        scan = scan_journal(tmp_path / "j")
        assert [r.seq for r in scan.records] == [0, 1, 2, 3]

    def test_reopen_repairs_record_missing_its_newline(self, tmp_path):
        """A tear exactly at the newline boundary leaves a decodable final
        record: it must be kept (it is durable data), with the newline
        restored so the next append starts a fresh line."""
        self._write_journal(tmp_path / "j", n=2)
        segment = segment_paths(tmp_path / "j")[-1]
        segment.write_bytes(segment.read_bytes()[:-1])  # drop final \n
        journal = AuditJournal(tmp_path / "j", fsync="always")
        assert journal.append("intent", {"n": 2}) == 2
        journal.close()
        scan = scan_journal(tmp_path / "j")
        assert [r.seq for r in scan.records] == [0, 1, 2]
        assert scan.torn_tail == 0 and scan.corrupt == 0

    def test_reopen_keeps_interior_corruption_for_scan(self, tmp_path):
        """Repair only cuts the trailing invalid run; a bad line with a
        good one after it is corruption and still raises under strict."""
        self._write_journal(tmp_path / "j", n=3)
        segment = segment_paths(tmp_path / "j")[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef not-json\n"
        segment.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptionError):
            AuditJournal(tmp_path / "j")

    def test_crc_catches_payload_swap(self, tmp_path):
        """A record whose JSON was tampered with (valid JSON, stale CRC)
        is corruption, not a torn tail."""
        self._write_journal(tmp_path / "j", n=2)
        segment = segment_paths(tmp_path / "j")[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        crc_hex, _, data = lines[0].rstrip(b"\n").partition(b" ")
        doctored = json.loads(data)
        doctored["data"]["n"] = 999  # forge the payload, keep the CRC
        forged = json.dumps(doctored, separators=(",", ":"),
                            sort_keys=True).encode()
        assert int(crc_hex, 16) != zlib.crc32(forged)
        lines[0] = crc_hex + b" " + forged + b"\n"
        segment.write_bytes(b"".join(lines))
        scan = scan_journal(tmp_path / "j", strict=False)
        assert [r.data for r in scan.records] == [{"n": 1}]
        assert scan.corrupt == 1


# ---------------------------------------------------------------------------
# the dead-letter journal


class TestDeadLetterJournal:
    def test_spill_entries_roundtrip(self, tmp_path):
        dead = DeadLetterJournal(tmp_path / "dead.jsonl")
        batch = TriggerBatch(
            accessed={"audit_all": frozenset({1, 2})},
            sql_text="SELECT 1", user_id="drevil", journal_seq=7,
        )
        dead.spill(batch, RuntimeError("boom"), reason="retries-exhausted",
                   attempts=3)
        assert dead.count == 1
        (entry,) = dead.entries()
        assert entry["accessed"] == {"audit_all": [1, 2]}
        assert entry["sql"] == "SELECT 1" and entry["user"] == "drevil"
        assert entry["journal_seq"] == 7
        assert entry["reason"] == "retries-exhausted"
        assert entry["attempts"] == 3
        assert "boom" in entry["error"]
        dead.close()

    def test_count_survives_reopen(self, tmp_path):
        dead = DeadLetterJournal(tmp_path / "dead.jsonl")
        batch = TriggerBatch(accessed={}, sql_text="q", user_id="u")
        dead.spill(batch, RuntimeError("x"))
        dead.spill(batch, RuntimeError("y"))
        dead.close()
        reopened = DeadLetterJournal(tmp_path / "dead.jsonl")
        assert reopened.count == 2
        reopened.spill(batch, RuntimeError("z"))
        assert reopened.count == 3
        reopened.close()

    def test_replay_hands_every_entry_in_order(self, tmp_path):
        dead = DeadLetterJournal(tmp_path / "dead.jsonl")
        for i in range(3):
            dead.spill(
                TriggerBatch(accessed={}, sql_text=f"q{i}", user_id="u"),
                RuntimeError("x"),
            )
        seen: list[str] = []
        assert dead.replay(lambda payload: seen.append(payload["sql"])) == 3
        assert seen == ["q0", "q1", "q2"]
        dead.close()

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        """A crash mid-spill leaves a torn line; reopening must cut it so
        the next spill does not glue onto it and vanish from reads."""
        dead = DeadLetterJournal(tmp_path / "dead.jsonl")
        batch = TriggerBatch(accessed={}, sql_text="q0", user_id="u")
        dead.spill(batch, RuntimeError("x"))
        dead.close()
        with open(tmp_path / "dead.jsonl", "ab") as handle:
            handle.write(b'0badc0de {"kind":"dead-l')  # crash mid-spill
        reopened = DeadLetterJournal(tmp_path / "dead.jsonl")
        assert reopened.repaired_tail_bytes > 0
        assert reopened.count == 1
        reopened.spill(
            TriggerBatch(accessed={}, sql_text="q1", user_id="u"),
            RuntimeError("y"),
        )
        assert reopened.count == 2
        assert [e["sql"] for e in reopened.entries()] == ["q0", "q1"]
        reopened.close()

    def test_interior_corruption_raises_not_hides(self, tmp_path):
        """An undecodable line with good entries after it must raise:
        returning early would silently hide every later dead letter."""
        dead = DeadLetterJournal(tmp_path / "dead.jsonl")
        batch = TriggerBatch(accessed={}, sql_text="q", user_id="u")
        for _ in range(3):
            dead.spill(batch, RuntimeError("x"))
        dead.close()
        path = tmp_path / "dead.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef not-json\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptionError):
            DeadLetterJournal(path)

    def test_rich_partition_ids_roundtrip_through_spill(self, tmp_path):
        import datetime

        day = datetime.date(2026, 8, 7)
        dead = DeadLetterJournal(tmp_path / "dead.jsonl")
        dead.spill(
            TriggerBatch(
                accessed={"by_day": frozenset({day})},
                sql_text="q", user_id="u",
            ),
            RuntimeError("x"),
        )
        (entry,) = dead.entries()
        assert entry["accessed"] == {"by_day": [day]}  # date, not repr str
        dead.close()


# ---------------------------------------------------------------------------
# the typed partition-ID codec


class TestPartitionIdCodec:
    def test_json_native_scalars_pass_through(self):
        for value in (None, True, 0, -3, 2.5, "a string"):
            assert encode_id(value) is value or encode_id(value) == value
            assert decode_id(encode_id(value)) == value

    def test_rich_types_roundtrip_exactly(self):
        import datetime
        import decimal

        for value in (
            datetime.date(1995, 1, 1),
            datetime.datetime(2026, 8, 7, 12, 30, 15),
            decimal.Decimal("19.99"),
            (1, datetime.date(2000, 2, 29), "k"),
        ):
            encoded = encode_id(value)
            json.dumps(encoded)  # must be JSON-native
            decoded = decode_id(encoded)
            assert decoded == value and type(decoded) is type(value)

    def test_unsupported_type_fails_loudly(self):
        with pytest.raises(DurabilityError, match="losslessly"):
            encode_id(object())

    def test_encode_record_rejects_non_json_payload(self):
        """No silent default=repr: a payload the codec missed must raise
        (feeding fail_open/fail_closed), not journal a lossy stand-in."""
        with pytest.raises(DurabilityError, match="JSON-serializable"):
            encode_record({"seq": 0, "kind": "intent", "data": object()})

    def test_unknown_tag_is_corruption(self):
        with pytest.raises(JournalCorruptionError, match="tag"):
            decode_id({"$id": "warp-core", "v": "x"})

    def test_unencodable_id_feeds_fail_open_policy(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j",
                         audit_policy="fail_open")
        assert db._journal_intent({"audit_all": {object()}}) is None
        (gap,) = db.audit_gaps
        assert gap["site"] == "journal-intent"
        assert "losslessly" in gap["error"]
        db.close()


# ---------------------------------------------------------------------------
# fault injection plumbing


class TestFaultInjector:
    def test_unarmed_sites_never_fire(self):
        faults = FaultInjector()
        for _ in range(3):
            faults.fire("journal-write")
        assert faults.hit_count("journal-write") == 3

    def test_arm_at_hit_fires_once(self):
        faults = FaultInjector()
        faults.arm("trigger-action", at_hit=2, error=RuntimeError("bang"))
        faults.fire("trigger-action")
        with pytest.raises(RuntimeError, match="bang"):
            faults.fire("trigger-action")
        faults.fire("trigger-action")  # consumed: not repeating

    def test_unknown_site_rejected(self):
        faults = FaultInjector()
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.arm("warp-core", error=RuntimeError)

    def test_crash_error_is_not_an_exception(self):
        # CrashError models process death; ordinary `except Exception`
        # error-isolation must never absorb it
        assert issubclass(CrashError, BaseException)
        assert not issubclass(CrashError, Exception)


# ---------------------------------------------------------------------------
# database wiring: intents, commits, recovery


def _audited_db(journal_path=None, **kwargs) -> Database:
    database = Database(journal_path=journal_path, **kwargs)
    database.execute(
        "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR)"
    )
    database.execute(
        "CREATE TABLE log (ts VARCHAR, uid VARCHAR, query VARCHAR, "
        "patientid INT)"
    )
    database.execute(
        "INSERT INTO patients VALUES (1, 'Alice'), (2, 'Bob'), (3, 'Carol')"
    )
    database.execute(
        "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
        "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
    )
    database.execute(
        "CREATE TRIGGER record ON ACCESS TO audit_all AS "
        "INSERT INTO log SELECT cast_varchar(now()), user_id(), "
        "sql_text(), patientid FROM accessed"
    )
    return database


def _log_rows(db: Database) -> set[tuple]:
    return {
        (uid, query, pid)
        for _ts, uid, query, pid in
        db.execute("SELECT * FROM log").rows
    }


class TestDatabaseJournaling:
    def test_intent_before_commit_per_audited_query(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.execute("SELECT * FROM patients WHERE patientid <= 2")
        db.close()
        records = scan_journal(tmp_path / "j").records
        kinds = [r.kind for r in records]
        assert kinds == ["intent", "commit", "intent", "commit"]
        first_intent, first_commit = records[0], records[1]
        assert first_intent.data["accessed"] == {"audit_all": [1]}
        assert "patientid = 1" in first_intent.data["sql"]
        assert first_commit.data["intent"] == first_intent.seq
        assert uncommitted_intents(tmp_path / "j") == []

    def test_async_mode_commits_after_drain(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.drain_triggers()
        db.close()
        kinds = [r.kind for r in scan_journal(tmp_path / "j").records]
        assert kinds == ["intent", "commit"]

    def test_unaudited_queries_not_journaled(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.execute("SELECT COUNT(*) FROM log")  # not a sensitive table
        db.close()
        assert scan_journal(tmp_path / "j").records == []

    def test_recover_rebuilds_log_on_fresh_database(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.session.user_id = "mallory"
        db.execute("SELECT * FROM patients WHERE patientid <= 2")
        expected = _log_rows(db)
        db.close()
        # "crash": a brand-new process with the same DDL, no data loss of
        # the journal directory
        fresh = _audited_db()
        fresh.execute("DELETE FROM patients")  # rows are irrelevant
        report = fresh.recover(tmp_path / "j")
        assert report.intents == 1 and report.replayed == 1
        assert report.uncommitted == 0
        assert report.replayed_ids == {"audit_all": {1, 2}}
        assert _log_rows(fresh) == expected
        assert ("mallory",) == tuple(
            {uid for uid, _q, _p in _log_rows(fresh)})
        fresh.close()

    def test_recover_is_idempotent(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.close()
        fresh = _audited_db()
        first = fresh.recover(tmp_path / "j")
        again = fresh.recover(tmp_path / "j")
        assert first.replayed == 1
        assert again.replayed == 0 and again.skipped_applied == 1
        assert len(_log_rows(fresh)) == 1
        fresh.close()

    def test_recover_in_place_skips_completed_firings(self, tmp_path):
        """A live database that wrote the journal itself replays nothing:
        every intent's seq is already applied in-process."""
        db = _audited_db(journal_path=tmp_path / "j")
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        report = db.recover()
        assert report.replayed == 0 and report.skipped_applied == 1
        assert len(_log_rows(db)) == 1  # no duplicate
        db.close()

    def test_recover_drops_unknown_expressions(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.close()
        fresh = _audited_db()
        fresh.execute("DROP AUDIT EXPRESSION audit_all")
        report = fresh.recover(tmp_path / "j")
        assert report.skipped_unknown == 1 and report.replayed == 0
        assert _log_rows(fresh) == set()
        fresh.close()

    def test_skipped_unknown_counts_intents_not_expressions(self, tmp_path):
        """One intent naming two dropped expressions is ONE skipped
        intent, so reconciliation against report.intents stays sane."""
        def build(journal_path=None):
            db = _audited_db(journal_path=journal_path)
            db.execute(
                "CREATE AUDIT EXPRESSION audit_too AS SELECT * FROM "
                "patients FOR SENSITIVE TABLE patients, "
                "PARTITION BY patientid"
            )
            return db

        db = build(journal_path=tmp_path / "j")
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.close()
        records = scan_journal(tmp_path / "j").records
        assert len(records[0].data["accessed"]) == 2  # both exprs fired

        fresh = build()
        fresh.execute("DROP AUDIT EXPRESSION audit_all")
        fresh.execute("DROP AUDIT EXPRESSION audit_too")
        report = fresh.recover(tmp_path / "j")
        assert report.intents == 1
        assert report.skipped_unknown == 1  # not 2
        assert report.skipped_unknown <= report.intents
        fresh.close()

    def test_recover_replays_date_partition_ids_exactly(self, tmp_path):
        """DATE partition IDs journal as typed values and replay as
        datetime.date — not as repr strings that no longer match."""
        import datetime

        def build(journal_path=None):
            db = Database(journal_path=journal_path)
            db.execute(
                "CREATE TABLE visits (day DATE PRIMARY KEY, who VARCHAR)"
            )
            db.execute("CREATE TABLE vlog (uid VARCHAR, day DATE)")
            db.execute(
                "INSERT INTO visits VALUES ('2026-08-07', 'Alice'), "
                "('2026-08-08', 'Bob')"
            )
            db.execute(
                "CREATE AUDIT EXPRESSION by_day AS SELECT * FROM visits "
                "FOR SENSITIVE TABLE visits, PARTITION BY day"
            )
            db.execute(
                "CREATE TRIGGER vrecord ON ACCESS TO by_day AS "
                "INSERT INTO vlog SELECT user_id(), day FROM accessed"
            )
            return db

        db = build(journal_path=tmp_path / "j")
        db.session.user_id = "mallory"
        db.execute("SELECT * FROM visits")
        expected = set(map(tuple, db.execute("SELECT * FROM vlog").rows))
        db.close()

        fresh = build()
        report = fresh.recover(tmp_path / "j")
        assert report.replayed == 1
        assert report.replayed_ids == {
            "by_day": {datetime.date(2026, 8, 7), datetime.date(2026, 8, 8)}
        }
        recovered = set(map(tuple, fresh.execute("SELECT * FROM vlog").rows))
        assert recovered == expected
        assert all(
            isinstance(day, datetime.date) for _uid, day in recovered
        )
        fresh.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_recovery_commits_recorded_for_verification(self, tmp_path):
        """Recovery on an attached journal journals its own commits, so a
        second crash right after recovery still verifies clean."""
        db = _audited_db(journal_path=tmp_path / "j",
                         fault_injector=FaultInjector())
        db.trigger_mode = "async"
        db.faults.arm("pipeline-worker", error=CrashError)
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.drain_triggers()  # batch lost to the crashed worker
        db.close()
        assert uncommitted_intents(tmp_path / "j") == [0]

        fresh = _audited_db(journal_path=tmp_path / "j")
        report = fresh.recover()
        assert report.replayed == 1 and report.uncommitted == 1
        fresh.close()
        assert uncommitted_intents(tmp_path / "j") == []

    def test_attach_journal_twice_rejected(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        with pytest.raises(DurabilityError, match="already attached"):
            db.attach_journal(tmp_path / "other")
        db.close()

    def test_recover_without_journal_needs_path(self):
        db = Database()
        with pytest.raises(DurabilityError, match="no journal attached"):
            db.recover()
        db.close()


# ---------------------------------------------------------------------------
# degraded-mode policies


class TestAuditPolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="audit_policy"):
            Database(audit_policy="fail_sometimes")

    def test_fail_closed_raises_when_journal_write_fails(self, tmp_path):
        faults = FaultInjector()
        db = _audited_db(journal_path=tmp_path / "j",
                         audit_policy="fail_closed",
                         fault_injector=faults)
        faults.arm("journal-write", error=OSError("disk full"), repeat=True)
        with pytest.raises(AuditUnavailableError, match="journal-intent"):
            db.execute("SELECT * FROM patients WHERE patientid = 1")
        faults.disarm("journal-write")
        db.close()

    def test_fail_open_serves_and_records_the_gap(self, tmp_path):
        faults = FaultInjector()
        db = _audited_db(journal_path=tmp_path / "j",
                         audit_policy="fail_open",
                         fault_injector=faults)
        faults.arm("journal-write", error=OSError("disk full"), repeat=True)
        result = db.execute("SELECT * FROM patients WHERE patientid = 1")
        assert len(result.rows) == 1  # query served
        faults.disarm("journal-write")
        (gap,) = db.audit_gaps
        assert gap["site"] == "journal-intent"
        assert "disk full" in gap["error"]
        assert "patientid = 1" in gap["sql"]
        assert db.audit_trail_health()["audit_gaps"] == 1
        db.close()

    def test_fail_open_falls_back_to_sync_on_closed_pipeline(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db._pipeline().close()  # simulate shutdown racing a query
        db.execute("SELECT * FROM patients WHERE patientid = 2")
        assert len(_log_rows(db)) == 2  # second firing ran synchronously
        assert any(g["site"] == "pipeline-closed" for g in db.audit_gaps)
        assert uncommitted_intents(tmp_path / "j") == []
        db.close()

    def test_fail_closed_refuses_on_closed_pipeline(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j",
                         audit_policy="fail_closed")
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.drain_triggers()
        db._pipeline().close()
        with pytest.raises(AuditUnavailableError):
            db.execute("SELECT * FROM patients WHERE patientid = 2")
        db.close()


# ---------------------------------------------------------------------------
# the audit log refuses to lie


class TestAuditLogIntegrity:
    @staticmethod
    def _db_with_failed_batch(tmp_path, policy):
        from repro.audit.logging import install_audit_log

        db = _audited_db(journal_path=tmp_path / "j", audit_policy=policy)
        log = install_audit_log(db, "audit_all")
        # a trigger that always fails: insert into a dropped table
        db.execute("CREATE TABLE doomed (patientid INT)")
        db.execute(
            "CREATE TRIGGER bad ON ACCESS TO audit_all AS "
            "INSERT INTO doomed SELECT patientid FROM accessed"
        )
        db.execute("DROP TABLE doomed")
        db.trigger_retry_limit = 0
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE patientid = 1")
        db.drain_triggers()
        return db, log

    def test_fail_closed_reader_raises_on_damaged_trail(self, tmp_path):
        db, log = self._db_with_failed_batch(tmp_path, "fail_closed")
        with pytest.raises(AuditTrailIncompleteError, match="incomplete"):
            log.entries()
        with pytest.raises(AuditTrailIncompleteError):
            log.disclosures_of(1)
        db.close()

    def test_fail_open_reader_warns_and_serves(self, tmp_path):
        db, log = self._db_with_failed_batch(tmp_path, "fail_open")
        with pytest.warns(AuditTrailWarning, match="failed_batches=1"):
            entries = log.entries()
        assert entries is not None
        db.close()

    def test_acknowledge_clears_the_condition(self, tmp_path):
        db, log = self._db_with_failed_batch(tmp_path, "fail_closed")
        acknowledged = db.acknowledge_audit_failures()
        assert acknowledged["failed_batches"] == 1
        assert acknowledged["dead_letters"] == 1
        log.entries()  # no raise: damage acknowledged
        assert all(v == 0 for v in db.audit_trail_health().values())
        db.close()

    def test_dead_letter_holds_the_failed_batch(self, tmp_path):
        db, _log = self._db_with_failed_batch(tmp_path, "fail_open")
        (entry,) = db.dead_letter_journal.entries()
        assert entry["reason"] == "retries-exhausted"
        assert entry["accessed"] == {"audit_all": [1]}
        assert entry["journal_seq"] is not None
        db.close()

    def test_healthy_trail_reads_clean(self, tmp_path):
        from repro.audit.logging import install_audit_log
        import warnings

        db = _audited_db(journal_path=tmp_path / "j")
        log = install_audit_log(db, "audit_all")
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE patientid <= 2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert len(log.entries().rows) == 2
        db.close()


# ---------------------------------------------------------------------------
# the journal on the serving path: its price per fsync policy, and one
# crash -> recover cycle mid-workload


class TestServingJournal:
    @staticmethod
    def _serve(fixture, requests: list[str]) -> float:
        """Wall seconds to serve ``requests`` serially, GC off."""
        db = fixture.database
        gc.disable()
        try:
            started = time.perf_counter()
            for ward in requests:
                db.execute(SERVE_QUERY, {"ward": ward})
            return time.perf_counter() - started
        finally:
            gc.enable()

    def test_two_appends_per_query_and_batch_within_2x(self, tmp_path):
        """80 audited requests with no journal and under each fsync
        policy, best of 7 interleaved rounds: every round logs every
        disclosure, every journal holds exactly intent + commit per
        query, ``batch`` issues fewer fsyncs than ``always`` for the same
        appends (the count the wall-clock bound stands for), and
        ``batch`` keeps at least half the no-journal throughput."""
        requests = request_mix(80)
        rounds = 7
        fixtures = {
            policy: ServingFixture()
            for policy in (None, "off", "batch", "always")
        }
        wall = dict.fromkeys(fixtures, float("inf"))
        try:
            for policy, fixture in fixtures.items():
                if policy is not None:
                    fixture.database.attach_journal(
                        tmp_path / policy, fsync=policy
                    )
            for _ in range(rounds):
                for policy, fixture in fixtures.items():
                    fixture.audit_log.clear()
                    wall[policy] = min(
                        wall[policy], self._serve(fixture, requests)
                    )
                    assert fixture.log_rows() == \
                        fixture.expected_rows(requests), policy
            for policy, fixture in fixtures.items():
                if policy is not None:
                    assert fixture.database.journal.appended == \
                        2 * rounds * len(requests), policy
            fsyncs = {
                policy: fixtures[policy].database.journal.fsyncs
                for policy in ("off", "batch", "always")
            }
        finally:
            for fixture in fixtures.values():
                fixture.database.close()
        assert fsyncs["off"] == 0, fsyncs
        assert 0 < fsyncs["batch"] < fsyncs["always"], fsyncs
        assert wall["batch"] <= 2.0 * wall[None], wall

    def test_crash_mid_workload_recovers_every_journaled_firing(
        self, tmp_path
    ):
        """A crash at the 24th trigger action of 48 requests: the crashed
        request's intent is journaled, its firing never completes, and a
        fresh database's recovery lands exactly the expected rows."""
        requests = request_mix(48)
        fixture = ServingFixture()
        db = fixture.database
        db.faults = FaultInjector()
        db.attach_journal(tmp_path, fsync="always")
        db.faults.arm("trigger-action", at_hit=24, error=CrashError)
        crashed = None
        for index, ward in enumerate(requests):
            try:
                db.execute(SERVE_QUERY, {"ward": ward})
            except CrashError:
                crashed = index
                break
        assert crashed is not None
        # abandoned: no drain, no close — only the journal survives
        survivor = ServingFixture()
        report = survivor.database.recover(tmp_path)
        journaled = requests[:crashed + 1]
        assert report.replayed == report.intents == len(journaled)
        assert survivor.log_rows() == fixture.expected_rows(journaled)
        survivor.database.close()
