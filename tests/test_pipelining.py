"""Protocol-interleaving tests: pipelined statements on one connection.

The wire contract (``repro.server.protocol``): each statement's reply is
zero or more ``rows`` frames terminated by exactly one ``done`` or
``error`` frame, *in statement order*. A client may therefore send N
``execute`` frames before reading any reply — these tests drive that
directly with raw frames, against both front ends: the threaded server
processes frames one at a time from its loop, the asyncio server queues
them through its per-connection consumer. A mid-pipeline failure must
occupy exactly its own reply slot, never corrupting the framing of its
neighbors.
"""

from __future__ import annotations

import gc
import socket
import struct
import threading
import time

import pytest

from repro.database import Database
from repro.server import AsyncServer, Connection, Server
from repro.server import protocol
from repro.errors import CatalogError

INIT_SQL = """
CREATE TABLE items (k INT PRIMARY KEY, v VARCHAR);
"""


def make_db() -> Database:
    db = Database(user_id="admin")
    db.execute_script(INIT_SQL)
    for k in range(16):
        db.execute(f"INSERT INTO items VALUES ({k}, 'v{k}')")
    return db


@pytest.fixture(params=["threaded", "async"])
def server(request):
    factory = Server if request.param == "threaded" else AsyncServer
    instance = factory(make_db()).start()
    yield instance
    instance.shutdown()


def raw_session(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    protocol.send_frame(sock, {
        "type": "hello",
        "protocol": protocol.PROTOCOL_VERSION,
        "user": "pipeliner",
        "password": None,
    })
    frame = protocol.recv_frame(sock)
    assert frame is not None and frame["type"] == "hello_ok"
    return sock


def read_reply(sock) -> dict:
    """Read one statement's reply; returns its terminating frame."""
    rows = []
    while True:
        frame = protocol.recv_frame(sock)
        assert frame is not None
        if frame["type"] == "rows":
            rows.extend(frame["rows"])
            continue
        frame["_rows"] = rows
        return frame


class TestRawInterleaving:
    def test_n_pipelined_sends_yield_n_ordered_replies(self, server) -> None:
        n = 20
        sock = raw_session(server)
        try:
            for k in range(n):
                protocol.send_frame(sock, {
                    "type": "execute",
                    "sql": f"SELECT v FROM items WHERE k = {k % 16}",
                })
            # only now read: n done frames, in statement order
            for k in range(n):
                reply = read_reply(sock)
                assert reply["type"] == "done", reply
                assert reply["_rows"] == [[f"v{k % 16}"]]
        finally:
            sock.close()

    def test_mid_pipeline_error_keeps_framing(self, server) -> None:
        sock = raw_session(server)
        try:
            statements = [
                "SELECT v FROM items WHERE k = 1",
                "SELECT v FROM no_such_table",   # typed failure mid-run
                "SELECT v FROM items WHERE k = 2",
            ]
            for sql in statements:
                protocol.send_frame(sock, {"type": "execute", "sql": sql})
            first = read_reply(sock)
            assert first["type"] == "done"
            assert first["_rows"] == [["v1"]]
            second = read_reply(sock)
            assert second["type"] == "error"
            assert second["code"] == "CatalogError"
            third = read_reply(sock)
            assert third["type"] == "done"
            assert third["_rows"] == [["v2"]]
        finally:
            sock.close()

    def test_control_frame_between_executes_stays_ordered(
        self, server
    ) -> None:
        sock = raw_session(server)
        try:
            protocol.send_frame(sock, {
                "type": "execute", "sql": "SELECT v FROM items WHERE k = 3",
            })
            protocol.send_frame(sock, {"type": "ping"})
            protocol.send_frame(sock, {
                "type": "execute", "sql": "SELECT v FROM items WHERE k = 4",
            })
            assert read_reply(sock)["_rows"] == [["v3"]]
            assert protocol.recv_frame(sock)["type"] == "pong"
            assert read_reply(sock)["_rows"] == [["v4"]]
        finally:
            sock.close()


class TestExecuteMany:
    def test_batch_returns_ordered_results(self, server) -> None:
        with Connection(server.host, server.port) as conn:
            outcomes = conn.execute_many([
                f"SELECT v FROM items WHERE k = {k}" for k in range(8)
            ])
            assert [outcome.rows for outcome in outcomes] == [
                [(f"v{k}",)] for k in range(8)
            ]

    def test_batch_error_slots_and_survival(self, server) -> None:
        with Connection(server.host, server.port) as conn:
            outcomes = conn.execute_many(
                [
                    "SELECT v FROM items WHERE k = 0",
                    "SELECT * FROM missing",
                    "SELECT v FROM items WHERE k = 1",
                ],
                raise_on_error=False,
            )
            assert outcomes[0].rows == [("v0",)]
            assert isinstance(outcomes[1], CatalogError)
            assert outcomes[2].rows == [("v1",)]
            # raise_on_error drains the full stream first, so the
            # connection stays usable afterwards
            with pytest.raises(CatalogError):
                conn.execute_many(["SELECT * FROM missing"])
            assert conn.ping()

    def test_batch_with_parameters(self, server) -> None:
        with Connection(server.host, server.port) as conn:
            outcomes = conn.execute_many([
                ("SELECT v FROM items WHERE k = :k", {"k": 5}),
                ("SELECT v FROM items WHERE k = :k", {"k": 6}),
            ])
            assert outcomes[0].rows == [("v5",)]
            assert outcomes[1].rows == [("v6",)]

    def test_large_batch_with_small_window_stays_ordered(
        self, server
    ) -> None:
        # a batch far larger than the window, with result rows flowing
        # the whole time — exercises the send/drain interleaving on
        # both front ends
        with Connection(server.host, server.port, max_pipeline=4) as conn:
            n = 200
            outcomes = conn.execute_many([
                f"SELECT v FROM items WHERE k = {k % 16}" for k in range(n)
            ])
            assert [outcome.rows for outcome in outcomes] == [
                [(f"v{k % 16}",)] for k in range(n)
            ]

    def test_pipelined_batch_beats_one_at_a_time(self, server) -> None:
        # 80 point SELECTs on one connection, one at a time and then as
        # one pipelined batch (best of 5 rounds each): both serve every
        # statement, and the asyncio front end, which runs consecutive
        # pipelined statements in one worker-pool hop, takes at most
        # half the time
        batch = [f"SELECT v FROM items WHERE k = {k % 16}" for k in range(80)]
        serial_s = batched_s = float("inf")
        with Connection(server.host, server.port) as conn:
            conn.execute("SELECT 1")  # warm both ends
            for _ in range(5):
                gc.collect()
                started = time.perf_counter()
                served = sum(len(conn.execute(sql).rows) for sql in batch)
                serial_s = min(serial_s, time.perf_counter() - started)
                started = time.perf_counter()
                outcomes = conn.execute_many(batch)
                batched_s = min(batched_s, time.perf_counter() - started)
                assert served == len(batch)
                assert sum(len(o.rows) for o in outcomes) == len(batch)
        if isinstance(server, AsyncServer):
            assert serial_s >= 2.0 * batched_s, (serial_s, batched_s)


class TestExecuteManyWindow:
    """The in-flight bound itself, against an instrumented fake socket.

    ``execute_many`` must never have more than ``max_pipeline``
    statements sent-but-unanswered: blasting the whole batch before
    reading any reply deadlocks once requests plus unread replies
    exceed the kernel socket buffers (the server blocks — or pauses,
    under the async write high-water mark — writing replies the client
    is not reading, while the client blocks in ``sendall`` the server
    is not reading).
    """

    @staticmethod
    def _count_frames(payload: bytes) -> int:
        count, offset = 0, 0
        while offset < len(payload):
            (length,) = struct.unpack(">I", payload[offset:offset + 4])
            offset += 4 + length
            count += 1
        assert offset == len(payload), "payload tore a frame"
        return count

    def test_inflight_never_exceeds_max_pipeline(self) -> None:
        conn = Connection.__new__(Connection)
        conn._lock = threading.Lock()
        conn._closed = False
        conn.max_pipeline = 4
        inflight = {"now": 0, "max": 0}
        outer = self

        class FakeSock:
            def sendall(self, payload: bytes) -> None:
                inflight["now"] += outer._count_frames(payload)
                inflight["max"] = max(inflight["max"], inflight["now"])

        conn._sock = FakeSock()

        def fake_read_result() -> str:
            assert inflight["now"] > 0, "read with nothing in flight"
            inflight["now"] -= 1
            return "ok"

        conn._read_result = fake_read_result
        outcomes = conn.execute_many(
            [f"SELECT {k}" for k in range(50)], raise_on_error=False
        )
        assert outcomes == ["ok"] * 50
        assert inflight["max"] == 4  # window filled, never exceeded
        assert inflight["now"] == 0  # fully drained
