"""The threaded TCP transport over the serving core.

Architecture (DESIGN.md §9)::

    accept thread ──► AdmissionController ──► handler thread per client
                                                   │  (blocking frames)
                                                   ▼
                                   statement executor (thread pool)
                                     ServingCore.run: DrainGate ▸
                                     Session.override ▸ Database.execute

What a frame *means* — the handshake, per-connection attribution, the
``rows``/``done`` reply carrying ACCESSED, control and replication
frames, the idle policy and the audited shutdown ordering — is
:class:`~repro.server.session.ServingCore`'s, shared with the asyncio
front end. This module owns only the concurrency shape: the accept
thread, one handler thread per connection doing blocking
``recv_frame``/``send_frame``, the reaper thread, and the executor
future whose bounded wait enforces ``statement_timeout`` (the statement
itself runs to completion so its audit firings still land).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import logging
import select
import socket
import threading
from typing import TYPE_CHECKING

from repro.errors import (
    ConnectionClosedError,
    ProtocolError,
    ServerError,
    ServerOverloadedError,
)
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.auth import Authenticator, ClientSession
from repro.server.session import (
    DEFAULT_BATCH_ROWS,
    HANDSHAKE_TIMED_OUT,
    HANDSHAKE_TIMEOUT,
    SUBSCRIBE_POLL,
    Frontend,
    JournalStream,
    ServingCore,
    goodbye_frame,
)

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.database import Database

_log = logging.getLogger(__name__)

DEFAULT_MAX_CONNECTIONS = 32
DEFAULT_ADMISSION_QUEUE = 8


class Server(Frontend):
    """A threaded TCP front end over one :class:`~repro.database.Database`.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`). The server owns the database's shutdown by default
    (``close_database=True``): :meth:`shutdown` drains and closes it so
    the audit journal ends with zero uncommitted intents.
    """

    def __init__(
        self,
        database: "Database",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        admission_queue: int = DEFAULT_ADMISSION_QUEUE,
        admission_timeout: float = 5.0,
        statement_timeout: float | None = None,
        idle_timeout: float | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        authenticator: Authenticator | None = None,
        close_database: bool = True,
    ) -> None:
        self.core = ServingCore(
            database,
            authenticator=authenticator,
            batch_rows=batch_rows,
            statement_timeout=statement_timeout,
            idle_timeout=idle_timeout,
            close_database=close_database,
        )
        self.host = host
        self.port = port
        self.admission = AdmissionController(
            max_connections,
            queue_limit=admission_queue,
            queue_timeout=admission_timeout,
        )
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_connections + 4,
            thread_name_prefix="repro-stmt",
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: dict[socket.socket, ClientSession] = {}
        self._handlers: list[threading.Thread] = []
        self._conn_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "Server":
        """Bind, listen, and spawn the accept (and reaper) threads."""
        if self._started:
            raise ServerError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()
        if self.core.reap_interval is not None:
            threading.Thread(
                target=self._reap_loop, name="repro-reaper", daemon=True
            ).start()
        return self

    def _stop_accepting(self) -> None:
        self.admission.close()
        if self._listener is not None:
            _quietly_close(self._listener)

    def _close_connections(self) -> None:
        with self._conn_lock:
            sockets = list(self._connections)
        for sock in sockets:
            _say_goodbye(sock, "server shutdown")
        accept = self._accept_thread
        if accept is not None and accept is not threading.current_thread():
            accept.join(timeout=5.0)
        with self._conn_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            if handler is not threading.current_thread():
                handler.join(timeout=5.0)
        self._executor.shutdown(wait=False)

    def _connection_count(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    # ------------------------------------------------------------------
    # accept / reap threads

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self.core.stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            # without TCP_NODELAY, Nagle holds the small rows/done frames
            # for the peer's delayed ACK — ~40 ms per statement on
            # loopback, dwarfing execution itself
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = threading.Thread(
                target=self._serve_connection,
                args=(sock, f"{addr[0]}:{addr[1]}"),
                name=f"repro-client-{addr[1]}",
                daemon=True,
            )
            with self._conn_lock:
                self._handlers.append(handler)
            handler.start()

    def _reap_loop(self) -> None:
        while not self.core.stopping.wait(self.core.reap_interval):
            with self._conn_lock:
                victims = [
                    sock
                    for sock, session in self._connections.items()
                    if self.core.reapable(session)
                ]
                for sock in victims:
                    # ended: not reaped twice, nor said goodbye to twice
                    del self._connections[sock]
            for sock in victims:
                self.core.count("reaped_total")
                _say_goodbye(sock, "idle timeout")

    # ------------------------------------------------------------------
    # per-connection handler

    def _serve_connection(self, sock: socket.socket, peer: str) -> None:
        session: ClientSession | None = None
        try:
            try:
                self.admission.admit()
            except ServerOverloadedError as error:
                _quietly_send(sock, protocol.error_frame(error))
                return
            try:
                session = self._handshake(sock, peer)
                if session is None:
                    return
                with self._conn_lock:
                    self._connections[sock] = session
                self._frame_loop(sock, session)
            finally:
                self.admission.release()
        except (ConnectionClosedError, OSError):
            pass  # peer vanished; nothing to tell it
        except ProtocolError as error:  # an unreadable stream
            _quietly_send(sock, protocol.error_frame(error))
        except Exception as error:  # noqa: BLE001 — a bug must not go silent
            _log.exception("connection %s failed", peer)
            _quietly_send(sock, protocol.error_frame(error))
        finally:
            if session is not None:
                with self._conn_lock:
                    self._connections.pop(sock, None)
            _quietly_close(sock)
            with self._conn_lock:
                if threading.current_thread() in self._handlers:
                    self._handlers.remove(threading.current_thread())

    def _handshake(
        self, sock: socket.socket, peer: str
    ) -> ClientSession | None:
        sock.settimeout(HANDSHAKE_TIMEOUT)
        try:
            frame = protocol.recv_frame(sock)
        except socket.timeout:
            _quietly_send(sock, HANDSHAKE_TIMED_OUT)
            return None
        finally:
            sock.settimeout(None)
        if frame is None:
            return None
        session, reply = self.core.hello(frame, peer)
        protocol.send_frame(sock, reply)
        return session

    def _frame_loop(self, sock: socket.socket, session: ClientSession) -> None:
        core = self.core
        while True:
            frame = protocol.recv_frame(sock)
            if frame is None:
                return
            session.touch()
            kind = frame.get("type")
            try:
                if kind == "execute":
                    self._execute(sock, session, frame)
                elif kind == "subscribe":
                    reply, stream = core.subscribe(session, frame)
                    protocol.send_frame(sock, reply)
                    if stream is not None:
                        # a subscribed connection is a one-way stream
                        self._stream_journal(sock, stream)
                        return
                elif kind == "intent":
                    protocol.send_frame(sock, core.intent(frame))
                else:
                    reply = core.control(session, frame)
                    protocol.send_frame(sock, reply)
                    if reply["type"] == "goodbye":
                        return
            except ProtocolError as error:
                protocol.send_frame(sock, protocol.error_frame(error))

    def _execute(
        self, sock: socket.socket, session: ClientSession, frame: dict
    ) -> None:
        sql, parameters = self.core.decode_execute(frame)
        future = self._executor.submit(self.core.run, session, sql, parameters)
        try:
            result = future.result(timeout=self.core.statement_timeout)
        except Exception as error:  # noqa: BLE001 — typed frame
            protocol.send_frame(sock, self.core.failure_frame(error))
            return
        for reply in self.core.reply_frames(result):
            protocol.send_frame(sock, reply)
        session.touch()

    def _stream_journal(
        self, sock: socket.socket, stream: JournalStream
    ) -> None:
        while not self.core.stopping.is_set():
            frame = stream.next_frame()
            if frame is not None:
                protocol.send_frame(sock, frame)
                if frame["records"]:
                    continue
            # idle: watch the socket so a departing subscriber is
            # noticed promptly (readable + empty recv = EOF)
            readable, _, _ = select.select([sock], [], [], SUBSCRIBE_POLL)
            if readable:
                try:
                    if not sock.recv(1, socket.MSG_PEEK):
                        return
                except OSError:
                    return


# ----------------------------------------------------------------------
# socket helpers (best-effort: the peer may already be gone)

def _quietly_send(sock: socket.socket, frame: dict) -> None:
    with contextlib.suppress(OSError):
        protocol.send_frame(sock, frame)


def _say_goodbye(sock: socket.socket, reason: str) -> None:
    _quietly_send(sock, goodbye_frame(reason))
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)


def _quietly_close(sock: socket.socket) -> None:
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


__all__ = [
    "Server",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_ADMISSION_QUEUE",
]
