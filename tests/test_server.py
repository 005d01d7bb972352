"""Tests for the network serving layer (``repro.server``).

Covers the wire protocol codec, authenticated sessions and per-connection
audit attribution, admission control and load shedding, statement
timeouts, idle reaping, audited graceful shutdown (zero uncommitted
intents), malformed and replication frames byte for byte,
``Database.close()`` signal-path safety, and a kill -9-style crash of a
real server subprocess followed by journal recovery.

Every protocol and session class derives from :class:`FrontendSuite`
and has an ``...Async`` twin at the end of the module, so the same tests
run against the threaded and the asyncio front end.
"""

from __future__ import annotations

import datetime
import decimal
import itertools
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.concurrency import DrainGate
from repro.database import Database
from repro.durability.recovery import uncommitted_intents
from repro.durability.journal import scan_journal
from repro.errors import (
    AccessDeniedError,
    AuthenticationError,
    ConnectionClosedError,
    ProtocolError,
    ServerOverloadedError,
    SqlSyntaxError,
    StatementTimeoutError,
)
from repro.server import AsyncServer, Connection, Server, StaticAuthenticator
from repro.server import protocol

INIT_SQL = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, age INT);
CREATE TABLE log (uid VARCHAR, query VARCHAR, pid INT);
CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients
    FOR SENSITIVE TABLE patients, PARTITION BY pid;
CREATE TRIGGER ins_log ON ACCESS TO aud AS
    INSERT INTO log SELECT user_id(), sql_text(), pid FROM accessed
"""

N_PATIENTS = 24


def make_db(**kwargs) -> Database:
    db = Database(user_id="admin", **kwargs)
    db.execute_script(INIT_SQL)
    rows = ", ".join(
        f"({pid}, 'P{pid}', {20 + pid})" for pid in range(1, N_PATIENTS + 1)
    )
    db.execute(f"INSERT INTO patients VALUES {rows}")
    return db


def log_rows(db: Database) -> list[tuple]:
    db.drain_triggers()
    return sorted(db.execute("SELECT uid, pid FROM log").rows)


def point_queries(total: int) -> list[str]:
    return [
        f"SELECT name FROM patients WHERE pid = {index % N_PATIENTS + 1}"
        for index in range(total)
    ]


def run_clients(workers) -> int:
    """Run each ``(execute, statements)`` worker on its own thread;
    returns how many statements came back with their one row, and
    re-raises the first client error."""
    answered: list[str] = []
    errors: list[Exception] = []

    def body(execute, statements) -> None:
        try:
            for sql in statements:
                if len(execute(sql).rows) == 1:
                    answered.append(sql)
        except Exception as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [threading.Thread(target=body, args=work) for work in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "client still running after 60 s"
    if errors:
        raise errors[0]
    return len(answered)


FRONTENDS = {"threaded": Server, "async": AsyncServer}


class FrontendSuite:
    """Protocol and session behaviour both front ends must share.

    Each subclass runs against the threaded server; its ``...Async``
    twin at the end of this module runs the same tests against the
    asyncio server.
    """

    frontend = "threaded"

    def serve(self, db: Database, **kwargs):
        return FRONTENDS[self.frontend](db, **kwargs)


# ----------------------------------------------------------------------
# protocol codec


class TestProtocol:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            -1.5,
            "text with\nnewline",
            datetime.date(2013, 4, 8),
            datetime.datetime(2013, 4, 8, 12, 30, 15),
            decimal.Decimal("12.34"),
            (1, "a", datetime.date(2000, 1, 2)),
        ],
    )
    def test_value_round_trip(self, value):
        assert protocol.decode_value(protocol.encode_value(value)) == value

    def test_interval_round_trip(self):
        from repro.datatypes.intervals import Interval

        value = Interval(3, "MONTH")
        assert protocol.decode_value(protocol.encode_value(value)) == value

    def test_unencodable_value_is_typed(self):
        with pytest.raises(ProtocolError):
            protocol.encode_value(object())

    def test_error_frame_round_trip(self):
        frame = protocol.error_frame(AccessDeniedError("nope"))
        assert frame["code"] == "AccessDeniedError"
        with pytest.raises(AccessDeniedError, match="nope"):
            protocol.raise_error_frame(frame)

    def test_unknown_engine_error_does_not_leak_type(self):
        frame = protocol.error_frame(KeyError("x"))
        assert frame["code"] == "ExecutionError"

    def test_frames_over_a_socket_pair(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, {"type": "ping", "n": 7})
            assert protocol.recv_frame(right) == {"type": "ping", "n": 7}
            left.close()
            assert protocol.recv_frame(right) is None  # clean EOF
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# sessions, execution, typed errors


class TestServing(FrontendSuite):
    def test_execute_rows_accessed_and_columns(self):
        db = make_db()
        with self.serve(db) as server:
            with Connection(
                server.host, server.port, user_id="dr_house"
            ) as conn:
                result = conn.execute(
                    "SELECT pid, name FROM patients WHERE pid <= 2 "
                    "ORDER BY pid"
                )
        assert result.columns == ("pid", "name")
        assert result.rows == [(1, "P1"), (2, "P2")]
        assert result.accessed == {"aud": frozenset({1, 2})}
        assert result.rowcount == 2

    def test_row_batching_streams_large_results(self):
        db = make_db()
        with self.serve(db, batch_rows=5) as server:
            with Connection(server.host, server.port, user_id="u") as conn:
                result = conn.execute("SELECT pid FROM patients ORDER BY pid")
        assert result.column(0) == list(range(1, N_PATIENTS + 1))

    def test_parameters_round_trip(self):
        db = make_db()
        with self.serve(db) as server:
            with Connection(server.host, server.port, user_id="u") as conn:
                result = conn.execute(
                    "SELECT name FROM patients WHERE pid = :pid",
                    {"pid": 3},
                )
        assert result.rows == [("P3",)]

    def test_engine_errors_are_reraised_by_class(self):
        db = make_db()
        with self.serve(db) as server:
            with Connection(server.host, server.port, user_id="u") as conn:
                with pytest.raises(SqlSyntaxError):
                    conn.execute("SELEKT 1")
                # the connection survives a statement error
                assert conn.execute("SELECT 1").scalar() == 1

    def test_deny_trigger_rejects_over_the_wire(self):
        db = make_db()
        db.execute(
            "CREATE TRIGGER gate ON ACCESS TO aud BEFORE AS "
            "IF ((SELECT COUNT(*) FROM accessed) > 3) "
            "DENY 'bulk export denied'"
        )
        with self.serve(db, close_database=False) as server:
            with Connection(server.host, server.port, user_id="u") as conn:
                small = conn.execute("SELECT * FROM patients WHERE pid = 1")
                assert len(small.rows) == 1
                with pytest.raises(AccessDeniedError, match="bulk export"):
                    conn.execute("SELECT * FROM patients")
        # denial withheld the rows but not the evidence
        assert len(log_rows(db)) == 1 + N_PATIENTS

    def test_dml_and_ddl_over_the_wire(self):
        db = make_db()
        with self.serve(db, close_database=False) as server:
            with Connection(server.host, server.port, user_id="writer") as conn:
                conn.execute("CREATE TABLE notes (id INT PRIMARY KEY, t VARCHAR)")
                result = conn.execute(
                    "INSERT INTO notes VALUES (1, 'a'), (2, 'b')"
                )
                assert result.rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM notes").scalar() == 2

    def test_session_user_reported_by_user_id_function(self):
        db = make_db()
        with self.serve(db, close_database=False) as server:
            with Connection(server.host, server.port, user_id="carol") as conn:
                assert conn.execute("SELECT user_id()").scalar() == "carol"
                conn.set_user("mallory")
                assert conn.execute("SELECT user_id()").scalar() == "mallory"
        # the engine's base identity never changed
        assert db.session.user_id == "admin"

    def test_ping(self):
        db = make_db()
        with self.serve(db) as server:
            with Connection(server.host, server.port, user_id="u") as conn:
                assert conn.ping() is True


class TestAuthentication(FrontendSuite):
    def test_static_authenticator_accepts_and_rejects(self):
        db = make_db()
        auth = StaticAuthenticator({"alice": "s3cret"})
        with self.serve(db, authenticator=auth) as server:
            with Connection(
                server.host, server.port, user_id="alice", password="s3cret"
            ) as conn:
                assert conn.execute("SELECT user_id()").scalar() == "alice"
            with pytest.raises(AuthenticationError):
                Connection(
                    server.host, server.port,
                    user_id="alice", password="wrong",
                )
            with pytest.raises(AuthenticationError):
                Connection(server.host, server.port, user_id="eve")

    def test_set_user_reauthenticates(self):
        db = make_db()
        auth = StaticAuthenticator({"alice": "a", "bob": "b"})
        with self.serve(db, authenticator=auth) as server:
            with Connection(
                server.host, server.port, user_id="alice", password="a"
            ) as conn:
                with pytest.raises(AuthenticationError):
                    conn.set_user("bob", password="nope")
                assert conn.user_id == "alice"
                conn.set_user("bob", password="b")
                assert conn.execute("SELECT user_id()").scalar() == "bob"

    def test_empty_user_rejected_by_open_authenticator(self):
        db = make_db()
        with self.serve(db) as server:
            with pytest.raises(AuthenticationError):
                Connection(server.host, server.port, user_id="")


# ----------------------------------------------------------------------
# multi-client attribution (the point of the subsystem)


class TestAttribution(FrontendSuite):
    def test_concurrent_clients_attribute_per_connection(self):
        """N threads, distinct users: every audit row names the right user."""
        db = make_db()
        users = [f"user{i}" for i in range(8)]
        per_user_pid = {user: i + 1 for i, user in enumerate(users)}
        errors: list = []

        with self.serve(db, close_database=False) as server:
            def client(user: str) -> None:
                try:
                    with Connection(
                        server.host, server.port, user_id=user
                    ) as conn:
                        pid = per_user_pid[user]
                        for _ in range(5):
                            result = conn.execute(
                                f"SELECT * FROM patients WHERE pid = {pid}"
                            )
                            assert result.accessed["aud"] == frozenset({pid})
                except Exception as error:  # noqa: BLE001 — collected
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(user,))
                for user in users
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        rows = log_rows(db)
        assert len(rows) == len(users) * 5
        for user in users:
            mine = [pid for uid, pid in rows if uid == user]
            assert mine == [per_user_pid[user]] * 5

    def test_16_clients_match_serial_replay(self):
        """Acceptance: concurrent audit log == serial in-process replay,
        per-user, order-insensitive."""
        statements = [
            (
                f"user{i % 16}",
                f"SELECT name FROM patients WHERE pid = "
                f"{(i * 7) % N_PATIENTS + 1}",
            )
            for i in range(96)
        ]
        by_user: dict[str, list[str]] = {}
        for user, sql in statements:
            by_user.setdefault(user, []).append(sql)

        db = make_db()
        db.trigger_mode = "async"
        errors: list = []
        with self.serve(db, max_connections=16, close_database=False) as server:
            def client(user: str, sqls: list[str]) -> None:
                try:
                    with Connection(
                        server.host, server.port, user_id=user
                    ) as conn:
                        for sql in sqls:
                            conn.execute(sql)
                except Exception as error:  # noqa: BLE001 — collected
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(user, sqls))
                for user, sqls in by_user.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        concurrent_rows = sorted(
            db.execute("SELECT uid, query, pid FROM log").rows
        )

        serial = make_db()
        for user, sql in statements:
            with serial.session.override(sql, user):
                serial.execute(sql)
        serial_rows = sorted(
            serial.execute("SELECT uid, query, pid FROM log").rows
        )
        assert concurrent_rows == serial_rows

    def test_client_counts_drop_no_request_and_no_firing(self):
        """48 point queries dealt over 1, 4 and 16 clients, in process
        and over this front end, with auditing on (async firing) and
        off: every request is answered, and every disclosure — one per
        query when on, none when off — reaches the log exactly once."""
        statements = point_queries(48)
        for armed in (False, True):
            db = make_db()
            db.audit_enabled = armed
            db.trigger_mode = "async"

            def in_process(user: str):
                def execute(sql: str):
                    with db.session.override(sql, user):
                        return db.execute(sql)
                return execute

            with self.serve(
                db, max_connections=20, close_database=False
            ) as server:
                for clients in (1, 4, 16):
                    scripts = [statements[i::clients] for i in range(clients)]
                    connections = [
                        Connection(server.host, server.port, user_id=f"c{i}")
                        for i in range(clients)
                    ]
                    try:
                        for executes in (
                            [in_process(f"c{i}") for i in range(clients)],
                            [conn.execute for conn in connections],
                        ):
                            before = len(log_rows(db))
                            answered = run_clients(zip(executes, scripts))
                            assert answered == len(statements), (
                                armed, clients
                            )
                            assert len(log_rows(db)) == before + (
                                len(statements) if armed else 0
                            ), (armed, clients)
                    finally:
                        for conn in connections:
                            conn.close()
            db.close()


# ----------------------------------------------------------------------
# admission control / backpressure


class TestAdmission(FrontendSuite):
    def test_64_open_connections_serve_every_request(self):
        """64 connections open at once and 256 point queries spread over
        them by 16 driver threads: nothing is shed, dropped or lost."""
        db = make_db()
        db.trigger_mode = "async"
        with self.serve(
            db, max_connections=80, admission_queue=80,
            admission_timeout=60.0, close_database=False,
        ) as server:
            connections = [
                Connection(server.host, server.port, user_id=f"c{i}")
                for i in range(64)
            ]
            try:
                statements = point_queries(256)
                workers = []
                for i in range(16):
                    rotation = itertools.cycle(connections[i::16])
                    workers.append((
                        lambda sql, rotation=rotation:
                            next(rotation).execute(sql),
                        statements[i::16],
                    ))
                assert run_clients(workers) == len(statements)
            finally:
                for conn in connections:
                    conn.close()
        assert len(log_rows(db)) == len(statements)
        db.close()

    def test_overloaded_connection_is_shed_with_typed_error(self):
        db = make_db()
        with self.serve(db, max_connections=1, admission_queue=0) as server:
            with Connection(server.host, server.port, user_id="first"):
                with pytest.raises(ServerOverloadedError):
                    Connection(server.host, server.port, user_id="second")

    def test_queue_wait_timeout_sheds(self):
        db = make_db()
        with self.serve(
            db, max_connections=1, admission_queue=1, admission_timeout=0.15
        ) as server:
            with Connection(server.host, server.port, user_id="first"):
                started = time.monotonic()
                with pytest.raises(ServerOverloadedError):
                    Connection(server.host, server.port, user_id="second")
                assert time.monotonic() - started >= 0.1

    def test_queued_connection_admitted_when_slot_frees(self):
        db = make_db()
        with self.serve(
            db, max_connections=1, admission_queue=1, admission_timeout=5.0
        ) as server:
            first = Connection(server.host, server.port, user_id="first")
            timer = threading.Timer(0.1, first.close)
            timer.start()
            try:
                with Connection(
                    server.host, server.port, user_id="second"
                ) as second:
                    assert second.execute("SELECT 1").scalar() == 1
            finally:
                timer.cancel()
        stats = server.stats()
        assert stats["admission"]["admitted_total"] == 2
        assert stats["admission"]["peak_waiting"] == 1


# ----------------------------------------------------------------------
# timeouts and idle reaping


class TestTimeouts(FrontendSuite):
    def test_statement_timeout_is_typed_and_audit_still_lands(self):
        db = make_db()
        original = db.execute

        def slow_execute(sql, parameters=None):
            if "pid = 5" in sql:
                time.sleep(0.4)
            return original(sql, parameters)

        db.execute = slow_execute
        with self.serve(
            db, statement_timeout=0.1, close_database=False
        ) as server:
            with Connection(server.host, server.port, user_id="slowpoke") as conn:
                with pytest.raises(StatementTimeoutError):
                    conn.execute("SELECT * FROM patients WHERE pid = 5")
                # the connection survives; fast statements still serve
                assert conn.execute("SELECT 1").scalar() == 1
            # the timed-out statement ran to completion in the
            # background: a timeout withholds results, not evidence
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if ("slowpoke", 5) in log_rows(db):
                    break
                time.sleep(0.02)
        assert ("slowpoke", 5) in log_rows(db)
        assert server.stats()["timeouts_total"] == 1

    def test_idle_connection_is_reaped(self):
        db = make_db()
        with self.serve(db, idle_timeout=0.15) as server:
            conn = Connection(server.host, server.port, user_id="u")
            assert conn.execute("SELECT 1").scalar() == 1
            deadline = time.monotonic() + 5.0
            while server.stats()["reaped_total"] == 0:
                assert time.monotonic() < deadline, "connection never reaped"
                time.sleep(0.02)
            with pytest.raises(ConnectionClosedError):
                conn.execute("SELECT 1")
                conn.execute("SELECT 1")  # second try if close raced the first

    def test_active_connection_is_not_reaped(self):
        db = make_db()
        with self.serve(db, idle_timeout=0.3) as server:
            with Connection(server.host, server.port, user_id="u") as conn:
                for _ in range(10):
                    assert conn.execute("SELECT 1").scalar() == 1
                    time.sleep(0.05)
            assert server.stats()["reaped_total"] == 0


# ----------------------------------------------------------------------
# graceful shutdown (audited)


class TestShutdown(FrontendSuite):
    def test_shutdown_under_load_loses_no_journaled_intents(self, tmp_path):
        journal_dir = tmp_path / "journal"
        db = make_db(journal_path=str(journal_dir), journal_fsync="always")
        db.trigger_mode = "async"
        server = self.serve(db, max_connections=8).start()
        stop = threading.Event()
        completed: list[int] = []
        errors: list = []

        def client(index: int) -> None:
            try:
                with Connection(
                    server.host, server.port, user_id=f"u{index}"
                ) as conn:
                    count = 0
                    while not stop.is_set():
                        try:
                            conn.execute(
                                "SELECT * FROM patients WHERE pid = "
                                f"{index + 1}"
                            )
                            count += 1
                        except (ConnectionClosedError, Exception):
                            break
                    completed.append(count)
            except Exception as error:  # noqa: BLE001 — collected
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # load in flight
        stats = server.shutdown(timeout=30.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert stats["drained"]
        # the acceptance criterion: every journaled intent has a commit
        assert uncommitted_intents(journal_dir) == []
        assert sum(completed) > 0

    def test_shutdown_is_idempotent_and_reentrant(self):
        db = make_db()
        server = self.serve(db).start()
        first = server.shutdown()
        second = server.shutdown()
        assert first["drained"] and second["drained"]

    def test_new_connections_refused_after_shutdown(self):
        db = make_db()
        server = self.serve(db).start()
        server.shutdown()
        with pytest.raises(ConnectionClosedError):
            Connection(server.host, server.port, user_id="late")


# ----------------------------------------------------------------------
# malformed frames and replication frames, byte for byte


def raw_session(server, user: str = "raw") -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=5.0)
    protocol.send_frame(sock, {
        "type": "hello",
        "protocol": protocol.PROTOCOL_VERSION,
        "user": user,
        "password": None,
    })
    assert protocol.recv_frame(sock)["type"] == "hello_ok"
    return sock


def assert_serves(sock: socket.socket) -> None:
    protocol.send_frame(sock, {"type": "ping"})
    assert protocol.recv_frame(sock) == {"type": "pong"}


MALFORMED = {
    "parameters-list": (
        {"type": "execute", "sql": "SELECT 1", "parameters": [1]},
        "parameters",
    ),
    "parameter-bad-date": (
        {"type": "execute", "sql": "SELECT :d",
         "parameters": {"d": {"$id": "date", "v": "notadate"}}},
        "parameters",
    ),
    "parameter-unknown-tag": (
        {"type": "execute", "sql": "SELECT :d",
         "parameters": {"d": {"$id": "bogus"}}},
        "parameters",
    ),
    "intent-accessed-list": (
        {"type": "intent", "accessed": [1, 2], "sql": "SELECT 1",
         "user": "replica"},
        "accessed",
    ),
}


class TestMalformedFrames(FrontendSuite):
    @pytest.mark.parametrize(
        "frame, field", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_payload_is_answered_and_connection_serves_on(
        self, frame, field
    ):
        with self.serve(make_db()) as server:
            sock = raw_session(server)
            try:
                protocol.send_frame(sock, frame)
                reply = protocol.recv_frame(sock)
                assert reply["type"] == "error"
                assert reply["code"] == "ProtocolError"
                assert field in reply["message"]
                assert_serves(sock)
            finally:
                sock.close()

    def test_unexpected_failure_ends_connection_with_error_frame(
        self, monkeypatch
    ):
        with self.serve(make_db()) as server:
            def boom(session, frame):
                raise RuntimeError("boom")

            monkeypatch.setattr(server.core, "control", boom)
            sock = raw_session(server)
            try:
                protocol.send_frame(sock, {"type": "ping"})
                reply = protocol.recv_frame(sock)
                assert reply["type"] == "error"
                assert "boom" in reply["message"]
                assert protocol.recv_frame(sock) is None  # closed, not hung
            finally:
                sock.close()


class TestReplicationFrames(FrontendSuite):
    def test_subscriber_is_never_reaped_beside_a_reaped_connection(
        self, tmp_path
    ):
        db = make_db(journal_path=str(tmp_path / "journal"))
        db.replicate_statements = True
        with self.serve(db, idle_timeout=0.3) as server:
            idle = raw_session(server)
            stream = raw_session(server, "replica")
            try:
                protocol.send_frame(stream, {
                    "type": "subscribe", "from_seq": db.journal.next_seq,
                })
                assert protocol.recv_frame(stream)["type"] == "subscribe_ok"
                assert protocol.recv_frame(idle) == {
                    "type": "goodbye", "reason": "idle timeout",
                }
                # two idle heartbeats span well over 3x idle_timeout
                for _ in range(2):
                    frame = protocol.recv_frame(stream)
                    assert frame["type"] == "journal"
                    assert frame["records"] == []
                assert server.stats()["reaped_total"] == 1
            finally:
                idle.close()
                stream.close()

    def test_failed_subscribe_keeps_the_connection(self):
        with self.serve(make_db()) as server:
            sock = raw_session(server)
            try:
                protocol.send_frame(sock, {"type": "subscribe", "from_seq": 0})
                reply = protocol.recv_frame(sock)
                assert reply["type"] == "error"
                assert reply["code"] == "DurabilityError"
                assert_serves(sock)
            finally:
                sock.close()
            assert server.stats()["subscriptions_total"] == 0

    def test_forwarded_intent_fires_and_is_counted(self):
        db = make_db()
        with self.serve(db, close_database=False) as server:
            with Connection(server.host, server.port, user_id="r") as conn:
                conn.forward_intent(
                    {"aud": frozenset({3})}, "SELECT * FROM patients", "dr_x"
                )
            assert server.stats()["intents_forwarded_total"] == 1
        assert log_rows(db) == [("dr_x", 3)]

    def test_bad_intent_is_refused_and_the_connection_serves_on(
        self, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        db = make_db(journal_path=str(journal_dir))
        head = db.journal.next_seq
        with self.serve(db, close_database=False) as server:
            sock = raw_session(server, "replica")
            try:
                protocol.send_frame(sock, {
                    "type": "intent", "accessed": {"aud": ["zz"]},
                    "sql": "SELECT * FROM patients", "user": "dr_x",
                })
                reply = protocol.recv_frame(sock)
                assert reply["type"] == "error"
                assert reply["code"] == "ExecutionError"
                assert_serves(sock)
            finally:
                sock.close()
            assert server.stats()["intents_forwarded_total"] == 0
        assert db.journal.next_seq == head  # nothing journaled
        assert log_rows(db) == []
        db.close()
        assert uncommitted_intents(journal_dir) == []


# ----------------------------------------------------------------------
# Database.close(): signal-handler path safety (satellite)


class TestDatabaseClose:
    def test_close_is_idempotent(self):
        db = make_db()
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE pid = 1")
        db.close()
        db.close()
        assert db.trigger_errors == []

    def test_concurrent_close_callers_are_safe(self, tmp_path):
        db = make_db(journal_path=str(tmp_path / "j"))
        db.trigger_mode = "async"
        for pid in range(1, 9):
            db.execute(f"SELECT * FROM patients WHERE pid = {pid}")
        errors: list = []

        def closer() -> None:
            try:
                db.close()
            except Exception as error:  # noqa: BLE001 — collected
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert db.journal.closed
        # every journaled intent was committed before the journal closed
        assert uncommitted_intents(tmp_path / "j") == []

    def test_close_orders_pipeline_drain_before_journal_close(self, tmp_path):
        """The shutdown ordering contract, observed via call sequence."""
        db = make_db(journal_path=str(tmp_path / "j"))
        db.trigger_mode = "async"
        db.execute("SELECT * FROM patients WHERE pid = 1")
        order: list[str] = []
        pipeline = db._pipeline()
        original_pipeline_close = pipeline.close
        original_journal_close = db.journal.close

        def pipeline_close():
            order.append("pipeline")
            original_pipeline_close()

        def journal_close():
            order.append("journal")
            original_journal_close()

        pipeline.close = pipeline_close
        db.journal.close = journal_close
        db.close()
        assert order == ["pipeline", "journal"]


class TestDrainGate:
    def test_enter_leave_and_drain(self):
        gate = DrainGate()
        assert gate.try_enter()
        done = []

        def drainer():
            done.append(gate.drain(timeout=5.0))

        thread = threading.Thread(target=drainer)
        thread.start()
        time.sleep(0.05)
        assert not done  # still in flight
        gate.leave()
        thread.join(timeout=5.0)
        assert done == [True]

    def test_closed_gate_refuses_entry(self):
        gate = DrainGate()
        gate.close()
        assert not gate.try_enter()
        assert gate.refused_total == 1
        assert gate.drain(timeout=0.1)

    def test_drain_timeout(self):
        gate = DrainGate()
        gate.try_enter()
        assert gate.drain(timeout=0.05) is False
        gate.leave()


# ----------------------------------------------------------------------
# kill -9 crash of a real server process, then recovery


CRASH_INIT = INIT_SQL + """;
CREATE TABLE heavy (k INT PRIMARY KEY);
INSERT INTO heavy VALUES {heavy_rows};
INSERT INTO patients VALUES {patient_rows};
CREATE TRIGGER slow_burn ON ACCESS TO aud AS
    IF ((SELECT COUNT(*) FROM heavy a, heavy b, heavy c) >= 0)
    NOTIFY 'burned'
"""


@pytest.mark.slow
class TestCrashRecovery:
    def _spawn_server(self, tmp_path, journal_dir):
        # each firing's triple cross join costs ~100ms+ in this engine —
        # far more than a wire round trip — so the async pipeline
        # provably lags the clients and SIGKILL strands firings
        heavy_rows = ", ".join(f"({k})" for k in range(60))
        patient_rows = ", ".join(
            f"({pid}, 'P{pid}', {20 + pid})"
            for pid in range(1, N_PATIENTS + 1)
        )
        init_file = tmp_path / "init.sql"
        init_file.write_text(
            CRASH_INIT.format(
                heavy_rows=heavy_rows, patient_rows=patient_rows
            )
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server",
                "--port", "0",
                "--init", str(init_file),
                "--journal", str(journal_dir),
                "--fsync", "always",
                "--trigger-mode", "async",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        line = process.stdout.readline()
        assert "listening on" in line, line
        port = int(line.strip().rsplit(":", 1)[1])
        return process, port

    def test_kill9_mid_flight_intents_replay_on_recovery(self, tmp_path):
        journal_dir = tmp_path / "journal"
        process, port = self._spawn_server(tmp_path, journal_dir)
        try:
            # the slow_burn trigger makes each async firing expensive, so
            # the pipeline lags the wire: by the time clients have their
            # results, firings are provably still mid-flight
            completions = 0
            with Connection("127.0.0.1", port, user_id="mallory") as conn:
                for pid in range(1, 13):
                    conn.execute(
                        f"SELECT * FROM patients WHERE pid = {pid}"
                    )
                    completions += 1
        finally:
            process.kill()  # SIGKILL: no drain, no journal close
            process.wait(timeout=10)

        uncommitted = uncommitted_intents(journal_dir)
        scan = scan_journal(journal_dir)
        intents = {
            record.seq: record.data
            for record in scan.records
            if record.kind == "intent"
        }
        # every completed statement journaled its intent *before*
        # returning results over the wire
        assert len(intents) >= completions
        # the pipeline lagged: some firings never committed
        assert uncommitted, "expected mid-flight firings at SIGKILL time"

        # reconstruct (schema + audit config survive as DDL, not state).
        # A fresh process replays *every* intent — committed firings died
        # with the in-memory log table; the commits only verify which
        # firings the crashed process finished.
        recovered = make_db()
        report = recovered.recover(journal_dir)
        assert report.uncommitted == len(uncommitted)
        assert report.replayed == len(intents)
        assert report.skipped_unknown == 0
        # the replayed firings are attributed to the original wire user
        rows = log_rows(recovered)
        expected = sorted(
            ("mallory", data["accessed"]["aud"][0])
            for data in intents.values()
        )
        assert rows == expected
        assert all(data["user"] == "mallory" for data in intents.values())
        # recovery is idempotent
        assert recovered.recover(journal_dir).replayed == 0

    def test_sigterm_drains_before_exit(self, tmp_path):
        journal_dir = tmp_path / "journal"
        process, port = self._spawn_server(tmp_path, journal_dir)
        with Connection("127.0.0.1", port, user_id="alice") as conn:
            for pid in range(1, 5):
                conn.execute(f"SELECT * FROM patients WHERE pid = {pid}")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        # graceful: every journaled intent committed before exit
        assert uncommitted_intents(journal_dir) == []

# ----------------------------------------------------------------------
# the same suite against the asyncio front end


class TestServingAsync(TestServing):
    frontend = "async"


class TestAuthenticationAsync(TestAuthentication):
    frontend = "async"


class TestAttributionAsync(TestAttribution):
    frontend = "async"


class TestAdmissionAsync(TestAdmission):
    frontend = "async"


class TestTimeoutsAsync(TestTimeouts):
    frontend = "async"


class TestShutdownAsync(TestShutdown):
    frontend = "async"


class TestMalformedFramesAsync(TestMalformedFrames):
    frontend = "async"


class TestReplicationFramesAsync(TestReplicationFrames):
    frontend = "async"
