"""Tests for statement-shipping replication (``repro.replication``).

Layers under test, bottom-up: statement journaling on the primary
(commit-time flush, rollback drops, DDL immediacy, trigger-depth
exclusion), the incremental :class:`JournalCursor` (rotation, torn-tail
stalls), WAL-style full reconstruction
(``recover(apply_statements=True)``), replica convergence over both
tailers, the audit invariant (BEFORE guards fire on the replica, AFTER
intents forward to the primary under original attribution and loop
back), degraded modes, and the differential: a primary plus replicas
produce *exactly* the audit log a single node produces for the same
statement stream — including when a replica dies mid-stream.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.database import Database
from repro.durability.journal import AuditJournal, JournalCursor, scan_journal
from repro.errors import (
    AccessDeniedError,
    AuditUnavailableError,
    ExecutionError,
    JournalCorruptionError,
    ReadOnlyReplicaError,
    ReplicationError,
)
from repro.replication import JournalFileTailer, ReplicaDatabase
from repro.replication.tailer import JournalSocketTailer
from repro.server import AsyncServer, Connection, Server
from repro.server import protocol

SCHEMA = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, age INT);
CREATE TABLE log (uid VARCHAR, query VARCHAR, pid INT);
CREATE AUDIT EXPRESSION aud AS SELECT pid FROM patients WHERE age >= 30
    FOR SENSITIVE TABLE patients, PARTITION BY pid;
CREATE TRIGGER ins_log ON ACCESS TO aud AS
    INSERT INTO log SELECT user_id(), sql_text(), pid FROM accessed;
"""

#: the same catalog *before* the trigger DDL — what a replica sees in
#: the window between the primary's CREATE TRIGGER and applying it
SCHEMA_NO_TRIGGER = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, age INT);
CREATE TABLE log (uid VARCHAR, query VARCHAR, pid INT);
CREATE AUDIT EXPRESSION aud AS SELECT pid FROM patients WHERE age >= 30
    FOR SENSITIVE TABLE patients, PARTITION BY pid;
"""


def make_primary(tmp_path, **kwargs) -> Database:
    db = Database(
        user_id="admin", journal_path=tmp_path / "journal", **kwargs
    )
    db.replicate_statements = True
    db.execute_script(SCHEMA)
    for pid in range(1, 9):
        db.execute(
            f"INSERT INTO patients VALUES ({pid}, 'P{pid}', {24 + pid})"
        )
    return db


def log_rows(db: Database) -> list[tuple]:
    db.drain_triggers()
    return sorted(db.execute("SELECT uid, pid FROM log").rows)


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.02)


# ----------------------------------------------------------------------
# statement journaling on the primary


class TestStatementJournaling:
    def kinds(self, path) -> list[tuple[int, str]]:
        return [
            (record.seq, record.kind)
            for record in scan_journal(path).records
        ]

    def test_committed_dml_and_ddl_are_journaled(self, tmp_path) -> None:
        db = make_primary(tmp_path)
        statements = [
            record.data["sql"]
            for record in scan_journal(tmp_path / "journal").records
            if record.kind == "statement"
        ]
        # schema DDL and every INSERT, in order
        assert any("CREATE TABLE patients" in sql for sql in statements)
        assert sum("INSERT INTO patients" in sql for sql in statements) == 8
        db.close()

    def test_rolled_back_dml_is_never_journaled(self, tmp_path) -> None:
        db = make_primary(tmp_path)
        db.execute("BEGIN")
        db.execute("INSERT INTO patients VALUES (90, 'ghost', 40)")
        db.execute("ROLLBACK")
        db.execute("BEGIN")
        db.execute("INSERT INTO patients VALUES (91, 'real', 41)")
        db.execute("COMMIT")
        statements = [
            record.data["sql"]
            for record in scan_journal(tmp_path / "journal").records
            if record.kind == "statement"
        ]
        assert not any("ghost" in sql for sql in statements)
        assert any("real" in sql for sql in statements)
        db.close()

    def test_trigger_body_dml_is_not_journaled(self, tmp_path) -> None:
        db = make_primary(tmp_path)
        db.session.user_id = "alice"
        db.execute("SELECT name FROM patients WHERE pid = 8")  # age 32: fires
        db.drain_triggers()
        assert log_rows(db) == [("alice", 8)]
        statements = [
            record.data["sql"]
            for record in scan_journal(tmp_path / "journal").records
            if record.kind == "statement"
        ]
        # the trigger's INSERT INTO log rides the intent record, not a
        # statement record — journaling it too would double-fire
        # replicas (CREATE TRIGGER's DDL text contains the body, hence
        # the startswith)
        assert not any(
            sql.strip().startswith("INSERT INTO log") for sql in statements
        )
        db.close()

    def test_full_reconstruction_from_journal(self, tmp_path) -> None:
        db = make_primary(tmp_path)
        db.session.user_id = "bob"
        db.execute("SELECT name FROM patients WHERE age >= 30")
        db.drain_triggers()
        expected_log = log_rows(db)
        # the age < 30 predicate stays outside the audit expression, so
        # this diagnostic read fires nothing on either database
        quiet = "SELECT pid, name, age FROM patients WHERE age < 30"
        expected_patients = sorted(db.execute(quiet).rows)
        assert len(expected_patients) == 5
        db.close()
        fresh = Database(user_id="admin")
        report = fresh.recover(tmp_path / "journal", apply_statements=True)
        assert report.statements_applied > 0
        assert log_rows(fresh) == expected_log
        assert sorted(fresh.execute(quiet).rows) == expected_patients
        fresh.close()


# ----------------------------------------------------------------------
# the incremental cursor


class TestJournalCursor:
    def test_incremental_poll_follows_appends(self, tmp_path) -> None:
        journal = AuditJournal(tmp_path / "j")
        cursor = JournalCursor(tmp_path / "j")
        journal.append("statement", {"sql": "one"})
        assert [r.data["sql"] for r in cursor.poll()] == ["one"]
        assert cursor.poll() == []
        journal.append("statement", {"sql": "two"})
        journal.append("statement", {"sql": "three"})
        assert [r.data["sql"] for r in cursor.poll()] == ["two", "three"]
        journal.close()

    def test_cursor_follows_segment_rotation(self, tmp_path) -> None:
        journal = AuditJournal(tmp_path / "j", segment_max_bytes=256)
        cursor = JournalCursor(tmp_path / "j")
        for i in range(40):
            journal.append("statement", {"sql": f"statement-{i:04d}"})
        records = []
        while True:
            batch = cursor.poll()
            if not batch:
                break
            records.extend(batch)
        assert [r.seq for r in records] == list(range(40))
        assert len({r.segment for r in records}) > 1  # really rotated
        journal.close()

    def test_torn_tail_stalls_then_resumes(self, tmp_path) -> None:
        journal = AuditJournal(tmp_path / "j")
        journal.append("statement", {"sql": "whole"})
        cursor = JournalCursor(tmp_path / "j")
        assert len(cursor.poll()) == 1
        # simulate an append caught mid-write: no newline yet
        segment = sorted((tmp_path / "j").glob("audit-*.jsonl"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"deadbeef {\"truncated")
        assert cursor.poll() == []  # stalled, not corrupt
        with open(segment, "ab") as handle:
            handle.write(b"\n")
        # a *completed* bad line on the last segment is still treated as
        # in-progress noise only while trailing; interior damage raises
        journal.close()

    def test_interior_corruption_raises(self, tmp_path) -> None:
        journal = AuditJournal(tmp_path / "j")
        journal.append("statement", {"sql": "one"})
        journal.close()
        segment = sorted((tmp_path / "j").glob("audit-*.jsonl"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"garbage line\n")
            handle.write(b"more garbage\n")
        # rotate past it so the damage is interior
        with open(segment.with_name("audit-000001.jsonl"), "wb") as handle:
            handle.write(b"")
        cursor = JournalCursor(tmp_path / "j")
        with pytest.raises(JournalCorruptionError):
            while cursor.poll():
                pass

    def test_from_seq_skips_already_applied(self, tmp_path) -> None:
        journal = AuditJournal(tmp_path / "j")
        for i in range(6):
            journal.append("statement", {"sql": f"s{i}"})
        cursor = JournalCursor(tmp_path / "j", from_seq=4)
        assert [r.seq for r in cursor.poll()] == [4, 5]
        journal.close()


# ----------------------------------------------------------------------
# replica over the file tailer (in-process primary)


class TestFileReplica:
    def test_replica_converges_and_serves_reads(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        replica = ReplicaDatabase.from_journal(
            tmp_path / "journal", primary=primary
        )
        try:
            token = primary.replication_token()
            assert replica.wait_for(token, timeout=5.0)
            result = replica.execute(
                "SELECT name FROM patients WHERE pid = 2", user_id="reader"
            )
            assert result.rows == [("P2",)]
        finally:
            replica.close()
            primary.close()

    def test_replica_rejects_writes(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        replica = ReplicaDatabase.from_journal(
            tmp_path / "journal", primary=primary
        )
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            with pytest.raises(ReadOnlyReplicaError):
                replica.execute("INSERT INTO patients VALUES (99, 'x', 50)")
            with pytest.raises(ReadOnlyReplicaError):
                replica.execute("DROP TABLE patients")
        finally:
            replica.close()
            primary.close()

    def test_forwarded_intent_lands_on_primary_with_attribution(
        self, tmp_path
    ) -> None:
        primary = make_primary(tmp_path)
        replica = ReplicaDatabase.from_journal(
            tmp_path / "journal", primary=primary
        )
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            # age >= 30 ⇒ pids 6,7,8 are sensitive
            replica.execute(
                "SELECT name FROM patients WHERE age >= 30",
                user_id="dr_remote",
            )
            # fires on the PRIMARY, attributed to the replica's reader
            wait_until(lambda: log_rows(primary) == [
                ("dr_remote", 6), ("dr_remote", 7), ("dr_remote", 8),
            ])
            # ... and loops back into the replica's own audit log
            token = primary.replication_token()
            assert replica.wait_for(token, timeout=5.0)
            wait_until(lambda: sorted(replica.database.execute(
                "SELECT uid, pid FROM log"
            ).rows) == [
                ("dr_remote", 6), ("dr_remote", 7), ("dr_remote", 8),
            ])
        finally:
            replica.close()
            primary.close()

    def test_before_deny_fires_on_the_replica(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        primary.execute(
            "CREATE TRIGGER guard ON ACCESS TO aud BEFORE AS "
            "IF ((SELECT COUNT(*) FROM accessed) > 2) DENY 'too many'"
        )
        replica = ReplicaDatabase.from_journal(
            tmp_path / "journal", primary=primary
        )
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            with pytest.raises(AccessDeniedError):
                replica.execute(
                    "SELECT name FROM patients WHERE age >= 30",
                    user_id="greedy",
                )
            # §II semantics, same as single-node: the rows are withheld
            # but the *attempted* access is still audited — forwarded to
            # the primary like any other firing
            wait_until(lambda: log_rows(primary) == [
                ("greedy", 6), ("greedy", 7), ("greedy", 8),
            ])
        finally:
            replica.close()
            primary.close()

    def test_fail_closed_withholds_rows_when_forwarding_breaks(
        self, tmp_path
    ) -> None:
        primary = make_primary(tmp_path)

        def broken_sink(accessed, sql, user):
            raise ReplicationError("primary unreachable")

        replica = ReplicaDatabase(
            JournalFileTailer(tmp_path / "journal"),
            broken_sink,
            audit_policy="fail_closed",
        )
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            with pytest.raises(AuditUnavailableError):
                replica.execute(
                    "SELECT name FROM patients WHERE age >= 30",
                    user_id="blocked",
                )
        finally:
            replica.close()
            primary.close()

    def test_fail_open_records_a_gap_instead(self, tmp_path) -> None:
        primary = make_primary(tmp_path)

        def broken_sink(accessed, sql, user):
            raise ReplicationError("primary unreachable")

        replica = ReplicaDatabase(
            JournalFileTailer(tmp_path / "journal"),
            broken_sink,
            audit_policy="fail_open",
        )
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            result = replica.execute(
                "SELECT name FROM patients WHERE age >= 30",
                user_id="lucky",
            )
            assert len(result.rows) == 3  # rows served
            health = replica.database.audit_trail_health()
            assert health["audit_gaps"] == 1  # but the gap is on record
        finally:
            replica.close()
            primary.close()

    def test_lag_is_observable(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        replica = ReplicaDatabase.from_journal(
            tmp_path / "journal", primary=primary
        )
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            lag = replica.replication_lag()
            assert lag["lag_records"] == 0
            assert not lag["stalled"]
            assert lag["records_applied"] > 0
            # a burst of 120 writes: the replica falls behind, then
            # catches up to lag zero without stalling
            for k in range(120):
                primary.execute(
                    f"UPDATE patients SET age = {20 + k % 60} "
                    f"WHERE pid = {k % 8 + 1}"
                )
            assert replica.wait_for(
                primary.replication_token(), timeout=30.0
            )
            lag = replica.replication_lag()
            assert lag["lag_records"] == 0
            assert not lag["stalled"]
        finally:
            replica.close()
            primary.close()


# ----------------------------------------------------------------------
# replica over the wire (socket tailer against a live server)


class TestSocketReplica:
    def test_wire_replica_full_loop(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        with AsyncServer(primary, close_database=False) as server:
            replica = ReplicaDatabase.from_primary(server.host, server.port)
            try:
                with Connection(
                    server.host, server.port, user_id="writer"
                ) as conn:
                    conn.execute(
                        "INSERT INTO patients VALUES (50, 'P50', 45)"
                    )
                    token = conn.last_token
                assert token is not None
                assert replica.wait_for(token, timeout=5.0)
                result = replica.execute(
                    "SELECT name FROM patients WHERE pid = 50",
                    user_id="dr_wire",
                )
                assert result.rows == [("P50",)]
                wait_until(
                    lambda: ("dr_wire", 50) in log_rows(primary)
                )
                # loop-back into the replica's audit log
                assert replica.wait_for(
                    primary.replication_token(), timeout=5.0
                )
                wait_until(lambda: ("dr_wire", 50) in sorted(
                    replica.database.execute(
                        "SELECT uid, pid FROM log"
                    ).rows
                ))
            finally:
                replica.close()
        primary.close()

    def test_dead_stream_stalls_the_replica(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        server = AsyncServer(primary, close_database=False).start()
        replica = ReplicaDatabase.from_primary(server.host, server.port)
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            server.shutdown()
            wait_until(lambda: replica.stalled)
            with pytest.raises(ReplicationError):
                replica.execute("SELECT name FROM patients WHERE pid = 1")
        finally:
            replica.close()
            primary.close()


# ----------------------------------------------------------------------
# reads under a write stream: replicas keep serving


READERS = 8
SCALING_PATIENTS = 64


def read_under_writes(
    root, replica_count: int, pace_s: float,
    reads: int | None = None, window_s: float | None = None,
) -> tuple[int, bool]:
    """On an unaudited journaling primary with 64 patients,
    :data:`READERS` threads issue point SELECTs — ``reads`` in all, or
    for ``window_s`` — round-robin over ``replica_count`` file-tailing
    replicas (the primary itself when 0), while a writer streams range
    UPDATEs into the primary every ``pace_s`` (0: back to back).
    Returns the reads served and whether any replica stalled."""
    primary = Database(user_id="admin", journal_path=root / "journal")
    primary.replicate_statements = True
    primary.execute("CREATE TABLE patients (pid INT PRIMARY KEY, "
                    "name VARCHAR, age INT)")
    primary.execute("INSERT INTO patients VALUES " + ", ".join(
        f"({pid}, 'P{pid}', {20 + pid % 40})"
        for pid in range(1, SCALING_PATIENTS + 1)
    ))
    replicas = [
        ReplicaDatabase.from_journal(root / "journal")
        for _ in range(replica_count)
    ]

    def primary_read(sql: str):
        with primary.session.override(sql, "reader"):
            return primary.execute(sql)

    targets = [replica.execute for replica in replicas] or [primary_read]
    stop = threading.Event()

    def writer() -> None:
        k = 0
        while not stop.wait(pace_s):
            low = k % SCALING_PATIENTS + 1
            sql = (f"UPDATE patients SET name = 'W{k}' "
                   f"WHERE pid >= {low} AND pid < {low + 16}")
            with primary.session.override(sql, "writer"):
                primary.execute(sql)
            k += 1

    served = [0] * READERS
    errors: list[Exception] = []

    def reader(index: int) -> None:
        execute = targets[index % len(targets)]
        n = index
        try:
            while (n < reads) if reads else \
                    (time.perf_counter() < deadline):
                execute(f"SELECT name FROM patients "
                        f"WHERE pid = {n % SCALING_PATIENTS + 1}")
                served[index] += 1
                n += READERS
        except Exception as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(READERS)]
    writer_thread = threading.Thread(target=writer)
    try:
        token = primary.replication_token()
        for replica in replicas:
            assert replica.wait_for(token, timeout=30.0)
        deadline = time.perf_counter() + (window_s or 0.0)
        writer_thread.start()
        for thread in threads:
            thread.start()
        if window_s:
            # stop the writer at the deadline so readers blocked on the
            # primary's lock can finish their statement and exit
            time.sleep(max(0.0, deadline - time.perf_counter()))
            stop.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "reader still running after 60 s"
        stalled = any(replica.stalled for replica in replicas)
    finally:
        stop.set()
        if writer_thread.is_alive():
            writer_thread.join(timeout=60)
        for replica in replicas:
            replica.close()
        primary.close()
    if errors:
        raise errors[0]
    return sum(served), stalled


class TestReadScaling:
    @pytest.mark.parametrize("replica_count", [0, 1, 2, 4])
    def test_paced_writes_drop_no_read(self, tmp_path, replica_count):
        served, stalled = read_under_writes(
            tmp_path, replica_count, pace_s=0.001, reads=800
        )
        assert served == 800
        assert not stalled

    def test_replicas_serve_2x_a_primary_starved_by_its_writer(
        self, tmp_path
    ):
        """Under a back-to-back writer, the primary's writer-preferring
        lock starves its own readers; two replicas keep serving, with at
        least twice the reads in the same 0.6 s window."""
        served = {}
        for replica_count in (0, 2):
            served[replica_count], stalled = read_under_writes(
                tmp_path / str(replica_count), replica_count,
                pace_s=0.0, window_s=0.6,
            )
            assert not stalled
        assert served[2] >= 2 * served[0], served


# ----------------------------------------------------------------------
# the differential: replicas change nothing about the audit log


class TestAuditDifferential:
    QUERIES = [
        "SELECT name FROM patients WHERE age >= 30",
        "SELECT COUNT(*) FROM patients WHERE age >= 32",
        "SELECT name FROM patients WHERE pid = 7",
        "SELECT pid FROM patients WHERE age >= 30 ORDER BY pid",
        "SELECT name FROM patients WHERE pid = 2",  # not sensitive
    ]
    USERS = ["alice", "bob", "carol"]

    def _workload(self, seed: int, n: int = 24) -> list[tuple[str, str]]:
        rng = random.Random(seed)
        return [
            (rng.choice(self.USERS), rng.choice(self.QUERIES))
            for _ in range(n)
        ]

    def full_log(self, db: Database) -> list[tuple]:
        db.drain_triggers()
        return sorted(db.execute("SELECT uid, query, pid FROM log").rows)

    def test_reads_across_two_replicas_match_single_node(
        self, tmp_path
    ) -> None:
        workload = self._workload(seed=8)
        # ground truth: every query on one single-node database
        single = Database(user_id="admin")
        single.execute_script(SCHEMA)
        for pid in range(1, 9):
            single.execute(
                f"INSERT INTO patients VALUES ({pid}, 'P{pid}', {24 + pid})"
            )
        for user, sql in workload:
            with single.session.override(sql, user):
                single.execute(sql)
        expected = self.full_log(single)
        single.close()

        # same stream, spread across the primary and two replicas, with
        # the primary firing inline and then through its pipeline
        for trigger_mode in ("sync", "async"):
            root = tmp_path / trigger_mode
            primary = make_primary(root)
            primary.trigger_mode = trigger_mode
            replicas = [
                ReplicaDatabase.from_journal(
                    root / "journal", primary=primary, name=f"replica{i}"
                )
                for i in range(2)
            ]
            try:
                token = primary.replication_token()
                for replica in replicas:
                    assert replica.wait_for(token, timeout=5.0)
                for index, (user, sql) in enumerate(workload):
                    target = index % 3
                    if target == 0:
                        with primary.session.override(sql, user):
                            primary.execute(sql)
                    else:
                        replicas[target - 1].execute(sql, user_id=user)
                # forwarding is synchronous: once the primary drains,
                # its log is complete
                assert self.full_log(primary) == expected, trigger_mode
                # and each replica's own audit log converges to the same
                token = primary.replication_token()
                for replica in replicas:
                    assert replica.wait_for(token, timeout=5.0)
                    wait_until(lambda r=replica: sorted(r.database.execute(
                        "SELECT uid, query, pid FROM log"
                    ).rows) == expected)
                assert not any(replica.stalled for replica in replicas)
            finally:
                for replica in replicas:
                    replica.close()
                primary.close()

    def test_killing_a_replica_loses_zero_firings(self, tmp_path) -> None:
        primary = make_primary(tmp_path)
        replica = ReplicaDatabase.from_journal(
            tmp_path / "journal", primary=primary
        )
        fired: list[tuple[str, str]] = []
        try:
            assert replica.wait_for(
                primary.replication_token(), timeout=5.0
            )
            for index in range(10):
                sql = "SELECT name FROM patients WHERE age >= 30"
                user = f"u{index}"
                replica.execute(sql, user_id=user)
                fired.append((user, sql))
                if index == 4:
                    # kill mid-stream: the applier stops, the engine dies
                    replica.close()
                    # every already-served read either reached the
                    # primary's journal or raised — rerun the rest on a
                    # fresh replica
                    replica = ReplicaDatabase.from_journal(
                        tmp_path / "journal", primary=primary
                    )
                    assert replica.wait_for(
                        primary.replication_token(), timeout=5.0
                    )
            expected = sorted(
                (user, pid) for user, _ in fired for pid in (6, 7, 8)
            )
            wait_until(lambda: log_rows(primary) == expected)
        finally:
            replica.close()
            primary.close()


# ----------------------------------------------------------------------
# stream framing and liveness (regression suite for the review findings)


class TestSocketTailerFraming:
    def _fake_stream_server(self, payload_chunks, pauses):
        """A minimal subscribe endpoint that dribbles bytes on demand.

        Speaks the handshake for real, then writes ``payload_chunks``
        with ``pauses`` seconds of silence between them — longer than
        the tailer's poll interval, so a frame straddles several
        ``poll()`` calls.
        """
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve() -> None:
            sock, _ = listener.accept()
            try:
                assert protocol.recv_frame(sock)["type"] == "hello"
                protocol.send_frame(sock, {
                    "type": "hello_ok",
                    "server": "fake",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "session": 1,
                })
                assert protocol.recv_frame(sock)["type"] == "subscribe"
                protocol.send_frame(
                    sock, {"type": "subscribe_ok", "next_seq": 5}
                )
                for chunk, pause in zip(payload_chunks, pauses):
                    sock.sendall(chunk)
                    time.sleep(pause)
            finally:
                sock.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread

    def test_partial_frame_across_polls_is_not_lost(self) -> None:
        # a journal frame whose bytes straddle idle poll() calls must
        # arrive intact: the old recv-timeout idle signal discarded the
        # partially-read header and desynchronized the stream
        frame = protocol.frame_bytes({
            "type": "journal",
            "records": [
                {"seq": 5, "kind": "statement", "data": {"sql": "X"}}
            ],
            "primary_seq": 6,
        })
        chunks = [frame[:3], frame[3:11], frame[11:]]
        listener, thread = self._fake_stream_server(
            chunks, pauses=[0.15, 0.15, 0.1]
        )
        tailer = JournalSocketTailer(
            "127.0.0.1", listener.getsockname()[1], poll_timeout=0.02
        )
        try:
            records: list = []
            deadline = time.monotonic() + 5.0
            while not records and time.monotonic() < deadline:
                polled, _ = tailer.poll()
                records.extend(polled)
            assert [r.seq for r in records] == [5]
            assert records[0].data == {"sql": "X"}
            assert tailer.primary_seq == 6
        finally:
            tailer.close()
            listener.close()
            thread.join(timeout=5.0)

    def test_quiet_stream_polls_return_empty(self) -> None:
        # idleness is select()-detected: no bytes -> ([], primary_seq),
        # repeatedly, without touching stream position
        listener, thread = self._fake_stream_server([b""], pauses=[0.5])
        tailer = JournalSocketTailer(
            "127.0.0.1", listener.getsockname()[1], poll_timeout=0.02
        )
        try:
            for _ in range(3):
                assert tailer.poll() == ([], 5)
        finally:
            tailer.close()
            listener.close()
            thread.join(timeout=5.0)


class TestStreamLiveness:
    def _subscribe_raw(self, server, from_seq: int) -> socket.socket:
        sock = socket.create_connection(
            (server.host, server.port), timeout=10.0
        )
        protocol.send_frame(sock, {
            "type": "hello",
            "protocol": protocol.PROTOCOL_VERSION,
            "user": "replica",
            "password": None,
        })
        assert protocol.recv_frame(sock)["type"] == "hello_ok"
        protocol.send_frame(
            sock, {"type": "subscribe", "from_seq": from_seq}
        )
        frame = protocol.recv_frame(sock)
        assert frame["type"] == "subscribe_ok"
        return sock

    def test_threaded_server_sends_idle_heartbeats(self, tmp_path) -> None:
        # an idle threaded primary must still refresh primary_seq (the
        # replica's lag metric and liveness signal both ride on it)
        primary = make_primary(tmp_path)
        server = Server(primary, close_database=False).start()
        try:
            head = primary.journal.next_seq
            sock = self._subscribe_raw(server, from_seq=head)
            try:
                sock.settimeout(5.0)
                frame = protocol.recv_frame(sock)
                assert frame["type"] == "journal"
                assert frame["records"] == []
                assert frame["primary_seq"] == head
            finally:
                sock.close()
        finally:
            server.shutdown()
            primary.close()

    def test_async_stream_ends_on_subscriber_half_close(
        self, tmp_path
    ) -> None:
        # a subscriber that SHUT_WRs its side must end the stream task
        # (the old loop condition never consulted closed_event and spun
        # on a half-closed peer forever)
        primary = make_primary(tmp_path)
        server = AsyncServer(primary, close_database=False).start()
        try:
            sock = self._subscribe_raw(
                server, from_seq=primary.journal.next_seq
            )
            try:
                wait_until(lambda: len(server._connections) == 1)
                sock.shutdown(socket.SHUT_WR)
                wait_until(lambda: len(server._connections) == 0)
            finally:
                sock.close()
        finally:
            server.shutdown()
            primary.close()


class TestCatalogLagForwarding:
    def test_lagging_trigger_catalog_still_forwards(self, tmp_path) -> None:
        # DDL-lag window: the replica's catalog predates the primary's
        # CREATE TRIGGER. Forwarding must not be gated on the replica's
        # (stale) view — the primary's triggers still fire and log.
        primary = make_primary(tmp_path)
        lagging = Database(user_id="dr_lag")
        lagging.execute_script(SCHEMA_NO_TRIGGER)
        for pid in range(1, 9):
            lagging.execute(
                f"INSERT INTO patients VALUES ({pid}, 'P{pid}', {24 + pid})"
            )
        lagging.intent_forwarder = primary.apply_forwarded_intent
        try:
            lagging.execute("SELECT name FROM patients WHERE age >= 30")
            wait_until(lambda: log_rows(primary) == [
                ("dr_lag", 6), ("dr_lag", 7), ("dr_lag", 8),
            ])
        finally:
            lagging.close()
            primary.close()

    def test_primary_without_after_trigger_noops_intent(
        self, tmp_path
    ) -> None:
        # the no-AFTER-trigger check lives on the primary (the
        # authoritative catalog): nothing armed -> nothing journaled,
        # nothing fired — exactly what a single-node run would do
        primary = Database(
            user_id="admin", journal_path=tmp_path / "journal"
        )
        primary.execute_script(SCHEMA_NO_TRIGGER)
        head = primary.journal.next_seq
        seq = primary.apply_forwarded_intent(
            {"aud": frozenset({6})}, "SELECT 1", "nobody"
        )
        try:
            assert seq is None
            assert primary.journal.next_seq == head
        finally:
            primary.close()

    def test_bad_intent_is_refused_before_it_is_journaled(
        self, tmp_path
    ) -> None:
        # an intent that failed only when it fired used to be journaled
        # first, leaving an intent without its commit for recovery
        primary = make_primary(tmp_path)
        head = primary.journal.next_seq
        try:
            with pytest.raises(ExecutionError, match="cannot store 'zz'"):
                primary.apply_forwarded_intent(
                    {"aud": frozenset({"zz"})}, "SELECT 1", "r"
                )
            assert primary.journal.next_seq == head
            assert log_rows(primary) == []
        finally:
            primary.close()
        fresh = Database(user_id="admin")
        fresh.execute_script(SCHEMA)
        report = fresh.recover(tmp_path / "journal")
        assert (report.intents, report.uncommitted) == (0, 0)
        assert report.skipped_unknown == 0

    def test_names_that_would_not_fire_are_not_checked(
        self, tmp_path
    ) -> None:
        # a lagging replica may still name an expression the primary has
        # dropped; firing ignores it, so the check must too, and the
        # armed expression beside it still journals and logs
        primary = make_primary(tmp_path)
        try:
            seq = primary.apply_forwarded_intent(
                {"gone": frozenset({3}), "aud": frozenset({6})},
                "SELECT 1", "r",
            )
            assert seq is not None
            assert log_rows(primary) == [("r", 6)]
        finally:
            primary.close()
        fresh = Database(user_id="admin")
        fresh.execute_script(SCHEMA)
        report = fresh.recover(tmp_path / "journal")
        assert (report.intents, report.uncommitted) == (1, 0)
