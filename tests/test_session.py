"""The serving core (``repro.server.session``), driven with no sockets.

Frame fuzz: both front ends hand every client frame to the same
:class:`~repro.server.session.ServingCore`, so fuzzing the core fuzzes
what either server does with a frame. Each example draws a frame type
from the protocol's client set or an arbitrary string, fills its fields
with arbitrary JSON (plus the typed ``$id`` value wrappers the codec
decodes), and routes it the way the transports do. The contract:

* every reply is a frame of a type the server is documented to send,
  and it serializes onto the wire;
* nothing but :class:`~repro.errors.ProtocolError` escapes the core;
* no statement is left counted in flight (``gate.active == 0``).

The counters are bumped from handler threads, worker threads and the
event loop at once; a stress test holds them to exact totals.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.database import Database
from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.session import ServingCore

INIT_SQL = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR);
CREATE TABLE log (uid VARCHAR, pid INT);
INSERT INTO patients VALUES (1, 'P1'), (2, 'P2'), (3, 'P3');
CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients
    FOR SENSITIVE TABLE patients, PARTITION BY pid;
CREATE TRIGGER ins_log ON ACCESS TO aud AS
    INSERT INTO log SELECT user_id(), pid FROM accessed
"""

#: every frame type the server is documented to send (``protocol``)
SERVER_FRAME_TYPES = {
    "hello_ok", "rows", "done", "ok", "health", "pong", "error",
    "goodbye", "subscribe_ok", "journal", "intent_ok",
}
CLIENT_TYPES = [
    "hello", "execute", "set_user", "health", "ping", "quit",
    "subscribe", "intent",
]

scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
tagged = st.fixed_dictionaries({
    "$id": st.sampled_from(
        ["date", "datetime", "decimal", "tuple", "interval", "bogus"]
    ),
    "v": scalars | st.lists(scalars, max_size=3),
})
json_values = st.recursive(
    scalars | tagged,
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3)
    ),
    max_leaves=8,
)
FIELDS = {
    "protocol": st.just(protocol.PROTOCOL_VERSION) | json_values,
    "user": st.sampled_from(["alice", ""]) | json_values,
    "password": json_values,
    "sql": st.sampled_from([
        "SELECT name FROM patients WHERE pid = :pid",
        "SELECT :p",
        "SELECT * FROM patients",
        "SELEKT 1",
    ]) | json_values,
    "parameters": st.dictionaries(
        st.sampled_from(["pid", "p"]), json_values, max_size=2
    ) | json_values,
    "from_seq": st.integers(min_value=-2, max_value=50) | json_values,
    "accessed": st.dictionaries(
        st.sampled_from(["aud", "nope"]),
        st.lists(json_values, max_size=3),
        max_size=2,
    ) | json_values,
}
frames = st.builds(
    lambda kind, fields: {"type": kind, **fields},
    st.sampled_from(CLIENT_TYPES) | json_values,
    st.fixed_dictionaries({}, optional=FIELDS),
)


def feed(core: ServingCore, session, frame: dict) -> list[dict]:
    """Route one frame the way both transports do; return the replies."""
    kind = frame.get("type")
    if kind == "hello":
        return [core.hello(frame, "fuzz:0")[1]]
    if kind == "execute":
        sql, parameters = core.decode_execute(frame)
        try:
            result = core.run(session, sql, parameters)
        except Exception as error:  # noqa: BLE001 — becomes a frame
            return [core.failure_frame(error)]
        return list(core.reply_frames(result))
    if kind == "subscribe":
        reply, stream = core.subscribe(session, frame)
        follow = stream.next_frame() if stream is not None else None
        return [reply] if follow is None else [reply, follow]
    if kind == "intent":
        return [core.intent(frame)]
    return [core.control(session, frame)]


@pytest.fixture(scope="module")
def core(tmp_path_factory):
    db = Database(
        user_id="admin",
        journal_path=str(tmp_path_factory.mktemp("fuzz") / "journal"),
    )
    db.execute_script(INIT_SQL)
    db.replicate_statements = True
    core = ServingCore(db, batch_rows=2)
    yield core
    db.close()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(frame=frames)
def test_any_frame_gets_a_protocol_reply(core, frame):
    session, reply = core.hello(
        {"type": "hello", "protocol": protocol.PROTOCOL_VERSION,
         "user": "fuzzer"},
        "fuzz:0",
    )
    assert reply["type"] == "hello_ok"
    try:
        replies = feed(core, session, frame)
    except ProtocolError:
        replies = []
    for reply in replies:
        assert reply["type"] in SERVER_FRAME_TYPES
        protocol.frame_bytes(reply)
    assert core.gate.active == 0


def test_counters_lose_no_update_under_contention():
    core = ServingCore(Database(user_id="admin"))
    session, _ = core.hello(
        {"type": "hello", "protocol": protocol.PROTOCOL_VERSION,
         "user": "u"},
        "stress:0",
    )
    threads, per_thread = 8, 200

    def work() -> None:
        for _ in range(per_thread):
            core.run(session, "SELECT 1", None)
            core.count("reaped_total")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    stats = core.stats()
    assert stats["statements_total"] == threads * per_thread
    assert stats["reaped_total"] == threads * per_thread
    assert stats["in_flight"] == 0
