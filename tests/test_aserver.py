"""Tests for the asyncio serving front end (``repro.server.aserver``).

The protocol and session behaviour both front ends share is one suite
in ``tests/test_server.py``, run against each. This module keeps what is
particular to the asyncio concurrency shape: idle connections do not
consume threads, statements run on a bounded worker pool, admission
sheds with a machine-readable ``retry_after``, and graceful shutdown
still ends with zero uncommitted intents.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.database import Database
from repro.durability.journal import scan_journal
from repro.durability.recovery import uncommitted_intents
from repro.errors import AccessDeniedError, ServerOverloadedError
from repro.server import AsyncServer, Connection

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


class TestRoundTrip:
    def test_attribution_per_connection(self) -> None:
        db = make_db()
        with AsyncServer(db, close_database=False) as server:
            with Connection(server.host, server.port, user_id="alice") as a, \
                    Connection(server.host, server.port, user_id="bob") as b:
                a.execute("SELECT name FROM patients WHERE pid = 1")
                b.execute("SELECT name FROM patients WHERE pid = 2")
        assert log_rows(db) == [("alice", 1), ("bob", 2)]
        db.close()

    def test_set_user_and_health(self) -> None:
        with AsyncServer(make_db()) as server:
            with Connection(server.host, server.port, user_id="alice") as c:
                assert c.set_user("bob") == "bob"
                report = c.health()
                assert report["audit_trail"]["audit_gaps"] == 0
                assert report["cluster"] is None


class TestConcurrencyShape:
    def test_idle_connections_do_not_add_threads(self) -> None:
        with AsyncServer(make_db(), workers=2) as server:
            before = threading.active_count()
            connections = [
                Connection(server.host, server.port) for _ in range(32)
            ]
            try:
                # 32 idle connections: no handler threads appear
                assert threading.active_count() == before
                deadline = time.monotonic() + 5.0
                while server.stats()["connections"] < 32:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                for connection in connections[:4]:
                    connection.execute("SELECT COUNT(*) FROM patients")
            finally:
                for connection in connections:
                    connection.close()

    def test_admission_shed_carries_retry_after(self) -> None:
        with AsyncServer(
            make_db(), max_connections=1, admission_queue=0,
            admission_timeout=0.8,
        ) as server:
            with Connection(server.host, server.port):
                with pytest.raises(ServerOverloadedError) as info:
                    Connection(server.host, server.port)
                assert info.value.retry_after == pytest.approx(0.8)

    def test_client_retries_ride_out_overload(self) -> None:
        with AsyncServer(
            make_db(), max_connections=1, admission_queue=0,
            admission_timeout=0.1,
        ) as server:
            first = Connection(server.host, server.port)

            def release_soon() -> None:
                time.sleep(0.3)
                first.close()

            threading.Thread(target=release_soon, daemon=True).start()
            # opts into backoff: retries until the slot frees
            second = Connection(
                server.host, server.port, retries=10, max_backoff=0.2
            )
            assert second.ping()
            second.close()

    def test_before_deny_refuses_over_the_wire(self) -> None:
        db = make_db()
        db.execute(
            "CREATE TRIGGER guard ON ACCESS TO aud BEFORE AS "
            "IF ((SELECT COUNT(*) FROM accessed) > 2) DENY 'too many'"
        )
        with AsyncServer(db) as server:
            with Connection(server.host, server.port) as c:
                with pytest.raises(AccessDeniedError):
                    c.execute("SELECT * FROM patients")
                ok = c.execute("SELECT name FROM patients WHERE pid = 1")
                assert ok.rows == [("P1",)]


class TestShutdown:
    def test_graceful_shutdown_zero_uncommitted_intents(
        self, tmp_path
    ) -> None:
        db = make_db(journal_path=tmp_path / "journal")
        db.trigger_mode = "async"
        server = AsyncServer(db).start()
        with Connection(server.host, server.port, user_id="alice") as c:
            for pid in range(1, 9):
                c.execute(f"SELECT name FROM patients WHERE pid = {pid}")
        stats = server.shutdown()
        assert stats["drained"]
        result = scan_journal(tmp_path / "journal")
        assert result.records
        assert not uncommitted_intents(tmp_path / "journal")
