"""The serving core both front ends drive (DESIGN.md §9, §13).

Everything a connection *means* lives here, once: the handshake, the
decoding of client frames, the statement body that pins attribution
(``DrainGate`` ▸ ``Session.override`` ▸ ``Database.execute``), the
``rows``/``done`` reply with ACCESSED and the replication token, control
frames, forwarded intents, journal streams, the idle policy, the audited
shutdown ordering and the serving counters.

The core is sans-IO: it reads no socket, starts no thread and never
awaits. Its methods take frames and return frames. The two transports —
:class:`~repro.server.server.Server` (a thread per connection) and
:class:`~repro.server.aserver.AsyncServer` (coroutines over one event
loop) — own only how bytes move and where statements wait, so the two
cannot drift apart on what a frame does.

A malformed client frame raises :class:`~repro.errors.ProtocolError`
naming the bad field; that is the one exception a core method lets
escape. Transports answer it with an ``error`` frame and keep the
connection open.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator

from repro.concurrency import DrainGate, GateClosedError
from repro.durability.journal import JournalCursor
from repro.errors import (
    AuthenticationError,
    DurabilityError,
    ProtocolError,
    ServerShutdownError,
    StatementTimeoutError,
)
from repro.server import protocol
from repro.server.auth import Authenticator, ClientSession, OpenAuthenticator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.database import Database, QueryResult

#: rows per ``rows`` frame (bounds per-frame memory, keeps latency low)
DEFAULT_BATCH_ROWS = 256

#: idle journal-stream heartbeat: an empty ``journal`` frame refreshing
#: ``primary_seq`` so a subscriber's lag metric stays honest on a quiet
#: primary (the socket tailer's liveness and EOF detection rely on it)
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: seconds a new connection has to send its ``hello``
HANDSHAKE_TIMEOUT = 5.0

#: how long an idle journal stream waits before polling the journal again
SUBSCRIBE_POLL = 0.02

#: the reply to a client that never said ``hello``
HANDSHAKE_TIMED_OUT = protocol.error_frame(
    ProtocolError("handshake timed out waiting for hello")
)

#: the serving counters :meth:`ServingCore.stats` reports
COUNTERS = (
    "statements_total", "timeouts_total", "reaped_total",
    "subscriptions_total", "intents_forwarded_total",
)

#: how a transport's bounded wait reports a statement past its timeout
_WAIT_TIMEOUTS = (concurrent.futures.TimeoutError, asyncio.TimeoutError)


def goodbye_frame(reason: str) -> dict:
    return {"type": "goodbye", "reason": reason}


def _text(frame: dict, field: str, default: str | None = "") -> str | None:
    """A string field of a client frame (``default`` when absent)."""
    value = frame.get(field, default)
    if value is not default and not isinstance(value, str):
        raise ProtocolError(
            f"{frame.get('type')} field {field!r} must be a string, "
            f"got {type(value).__name__}"
        )
    return value


def _decoded(field: str, decode: Callable[[object], object], raw: object):
    """``decode(raw)``, with any failure reported as a wire error."""
    try:
        return decode(raw)
    except Exception as error:  # noqa: BLE001 — client input, typed below
        raise ProtocolError(f"undecodable {field!r} field: {error}") from error


def _decode_parameters(raw: dict) -> dict[str, object]:
    return {name: protocol.decode_value(value) for name, value in raw.items()}


class JournalStream:
    """One subscriber's journal tail: which frame to send next, if any."""

    def __init__(self, journal, from_seq: int) -> None:
        self._journal = journal
        self._cursor = JournalCursor(journal.path, from_seq=from_seq)
        self._last_beat = time.monotonic()

    def next_frame(self) -> dict | None:
        """New records, a heartbeat when one is due, else None.

        Reads journal files, so an event loop calls it on a worker.
        """
        records = self._cursor.poll()
        now = time.monotonic()
        if not records and now - self._last_beat < DEFAULT_HEARTBEAT_INTERVAL:
            return None
        self._last_beat = now
        return {
            "type": "journal",
            "records": [
                {"seq": r.seq, "kind": r.kind, "data": r.data}
                for r in records
            ],
            "primary_seq": self._journal.next_seq,
        }


class ServingCore:
    """Session logic shared by both front ends; see the module docstring."""

    def __init__(
        self,
        database: "Database",
        *,
        authenticator: Authenticator | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        statement_timeout: float | None = None,
        idle_timeout: float | None = None,
        close_database: bool = True,
    ) -> None:
        self.database = database
        self.authenticator = authenticator or OpenAuthenticator()
        self.batch_rows = max(1, batch_rows)
        self.statement_timeout = statement_timeout
        self.idle_timeout = idle_timeout
        self.close_database = close_database
        #: in-flight statement accounting; closed+drained by shutdown
        self.gate = DrainGate()
        #: set when shutdown begins / once it has finished
        self.stopping = threading.Event()
        self.stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._counts_lock = threading.Lock()

    @property
    def reap_interval(self) -> float | None:
        """How often a transport checks :meth:`reapable` (None: never)."""
        if self.idle_timeout is None:
            return None
        return min(0.25, self.idle_timeout / 4)

    # ------------------------------------------------------------------
    # handshake and control frames

    def hello(
        self, frame: dict, peer: str
    ) -> tuple[ClientSession | None, dict]:
        """A connection's first frame: the new session and ``hello_ok``,
        or no session and the ``error`` frame to close with."""
        try:
            if frame.get("type") != "hello":
                raise ProtocolError(
                    f"expected a hello frame, got {frame.get('type')!r}"
                )
            if frame.get("protocol") != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {frame.get('protocol')!r}"
                    f" (server speaks {protocol.PROTOCOL_VERSION})"
                )
            user = self._authenticate(frame)
        except (AuthenticationError, ProtocolError) as error:
            return None, protocol.error_frame(error)
        session = ClientSession(user_id=user, peer=peer)
        return session, {
            "type": "hello_ok",
            "server": "repro",
            "protocol": protocol.PROTOCOL_VERSION,
            "session": session.session_id,
        }

    def _authenticate(self, frame: dict) -> str:
        return self.authenticator.authenticate(
            _text(frame, "user"), _text(frame, "password", None)
        )

    def control(self, session: ClientSession, frame: dict) -> dict:
        """The reply to ``set_user``, ``health``, ``ping``, ``quit`` or an
        unknown frame type. A ``goodbye`` reply ends the connection."""
        kind = frame.get("type")
        if kind == "ping":
            return {"type": "pong"}
        if kind == "set_user":
            try:
                session.user_id = self._authenticate(frame)
            except AuthenticationError as error:
                return protocol.error_frame(error)
            return {"type": "ok", "user": session.user_id}
        if kind == "health":
            # ``cluster`` carries a ClusterDatabase's breaker/retry
            # snapshot, so remote operators can tell a journal hiccup
            # from a quarantined shard; null on a single node
            cluster_health = getattr(self.database, "cluster_health", None)
            return {
                "type": "health",
                "audit_trail": self.database.audit_trail_health(),
                "cluster": (
                    cluster_health() if callable(cluster_health) else None
                ),
            }
        if kind == "quit":
            return goodbye_frame("client quit")
        return protocol.error_frame(
            ProtocolError(f"unknown frame type {kind!r}")
        )

    # ------------------------------------------------------------------
    # statements

    def decode_execute(
        self, frame: dict
    ) -> tuple[str, dict[str, object] | None]:
        sql = frame.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("execute frame carries no sql")
        raw = frame.get("parameters") or None
        if raw is None:
            return sql, None
        if not isinstance(raw, dict):
            raise ProtocolError(
                "execute field 'parameters' must be an object, "
                f"got {type(raw).__name__}"
            )
        return sql, _decoded("parameters", _decode_parameters, raw)

    def run(
        self,
        session: ClientSession,
        sql: str,
        parameters: dict[str, object] | None,
    ) -> "QueryResult":
        """The worker-thread body: gate, impersonate, execute."""
        with self.gate.entered():
            # the override pins this worker thread's identity to the
            # connection for the statement — including the ACCESSED
            # capture the async pipeline snapshots — so a shared engine
            # still attributes per connection
            with self.database.session.override(sql, session.user_id):
                result = self.database.execute(sql, parameters)
        self.count("statements_total")
        return result

    def reply_frames(self, result: "QueryResult") -> Iterator[dict]:
        """A statement's ``rows`` batches, then its ``done`` frame."""
        rows = result.rows
        step = self.batch_rows
        for start in range(0, len(rows), step):
            yield {
                "type": "rows",
                "rows": [
                    protocol.encode_row(row) for row in rows[start:start + step]
                ],
            }
        done = {
            "type": "done",
            "columns": list(result.columns),
            "rowcount": result.rowcount,
            "accessed": protocol.encode_accessed(result.accessed),
        }
        if getattr(self.database, "replicate_statements", False):
            # read-your-writes token: a replica that has applied every
            # journal record below this seq has seen this statement
            token = self.database.replication_token()
            if token is not None:
                done["token"] = token
        yield done

    def failure_frame(self, error: BaseException) -> dict:
        """The ``error`` frame for a statement that did not return.

        A transport reports a statement past ``statement_timeout`` by
        passing its wait's timeout error. The statement is not killed:
        Python offers no safe thread preemption, and killing it would
        strand a journaled intent without its firing. It runs on, and its
        audit records land; only the results are withheld.
        """
        if isinstance(error, GateClosedError):
            error = ServerShutdownError(
                "server is draining for shutdown; statement refused"
            )
        elif isinstance(error, _WAIT_TIMEOUTS):
            self.count("timeouts_total")
            error = StatementTimeoutError(
                f"statement exceeded {self.statement_timeout:.3f}s (it "
                "completes in the background; its audit records are "
                "preserved)"
            )
        return protocol.error_frame(error)

    # ------------------------------------------------------------------
    # replication frames (DESIGN.md §13)

    def intent(self, frame: dict) -> dict:
        """Journal and fire a replica's firing under its original
        attribution; blocks on the engine, so run it on a worker."""
        raw = frame.get("accessed") or {}
        if not isinstance(raw, dict) or not all(
            isinstance(ids, list) for ids in raw.values()
        ):
            raise ProtocolError(
                "intent field 'accessed' must map expression names to "
                "ID lists"
            )
        accessed = _decoded("accessed", protocol.decode_accessed, raw)
        sql_text, user_id = _text(frame, "sql"), _text(frame, "user")
        try:
            with self.gate.entered():
                seq = self.database.apply_forwarded_intent(
                    accessed, sql_text, user_id
                )
        except GateClosedError:
            return protocol.error_frame(ServerShutdownError(
                "server is draining for shutdown; intent refused"
            ))
        except Exception as error:  # noqa: BLE001 — typed frame
            return protocol.error_frame(error)
        self.count("intents_forwarded_total")
        return {"type": "intent_ok", "seq": seq}

    def subscribe(
        self, session: ClientSession, frame: dict
    ) -> tuple[dict, JournalStream | None]:
        """``subscribe_ok`` and the stream the connection now carries, or
        an ``error`` frame and no stream (the connection stays open)."""
        journal = getattr(self.database, "journal", None)
        if journal is None:
            return protocol.error_frame(DurabilityError(
                "no audit journal attached; nothing to stream"
            )), None
        from_seq = frame.get("from_seq") or 0
        if type(from_seq) is not int or from_seq < 0:
            raise ProtocolError(
                "subscribe field 'from_seq' must be a non-negative integer"
            )
        # a subscriber idles by design between journal frames: never reaped
        session.subscribed = True
        self.count("subscriptions_total")
        reply = {"type": "subscribe_ok", "next_seq": journal.next_seq}
        return reply, JournalStream(journal, from_seq)

    # ------------------------------------------------------------------
    # idle reaping, shutdown, stats

    def reapable(
        self, session: ClientSession, now: float | None = None
    ) -> bool:
        """The idle policy: silent past ``idle_timeout``, not a stream."""
        return (
            self.idle_timeout is not None
            and not session.subscribed
            and session.idle_for(now) > self.idle_timeout
        )

    def shutdown(
        self,
        stop_accepting: Callable[[], None],
        close_connections: Callable[[], None],
        timeout: float | None,
    ) -> bool:
        """Audited graceful shutdown; idempotent and thread-safe.

        The ordering is the durability contract: (1) the transport stops
        accepting and sheds queued admissions, (2) new statements are
        refused, (3) in-flight statements drain, (4) the async trigger
        pipeline drains so every journaled intent commits, (5) the
        transport says goodbye to and closes its connections, (6) the
        database closes — trigger pipeline, then audit journal. Returns
        whether the in-flight statements drained within ``timeout``.
        """
        with self._shutdown_lock:
            if self.stopped.is_set():
                return True
            self.stopping.set()
            stop_accepting()
            self.gate.close()
            drained = self.gate.drain(timeout)
            self.database.drain_triggers()
            close_connections()
            if self.close_database:
                self.database.close()
            self.stopped.set()
            return drained

    def count(self, counter: str) -> None:
        """Add one to a serving counter; safe from any thread."""
        with self._counts_lock:
            self._counts[counter] += 1

    def stats(self) -> dict:
        with self._counts_lock:
            counts = dict(self._counts)
        return {"in_flight": self.gate.active, **counts}


class Frontend:
    """The embedding surface both transports share.

    A subclass sets ``core``, ``admission``, ``host``, ``port`` and
    ``_started``, and supplies ``start``, ``_stop_accepting`` and
    ``_close_connections`` (the two shutdown hooks) and
    ``_connection_count``.
    """

    def __enter__(self):
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.shutdown()
        return False

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (signal-handler friendly)."""
        if not self._started:
            self.start()
        self.core.stopped.wait()

    def shutdown(self, timeout: float | None = 30.0) -> dict:
        """Audited graceful shutdown (:meth:`ServingCore.shutdown`);
        returns whether it drained plus the final :meth:`stats`."""
        drained = self.core.shutdown(
            self._stop_accepting, self._close_connections, timeout
        )
        return {"drained": drained, **self.stats()}

    def stats(self) -> dict:
        """Live serving counters (tests and operators)."""
        return {
            **self.core.stats(),
            "connections": self._connection_count(),
            "admission": self.admission.stats(),
        }


__all__ = [
    "ServingCore",
    "JournalStream",
    "Frontend",
    "DEFAULT_BATCH_ROWS",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "HANDSHAKE_TIMEOUT",
    "goodbye_frame",
]
