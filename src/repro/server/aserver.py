"""The asyncio transport: thousands of connections, a bounded thread pool.

Same wire protocol and the same :class:`~repro.server.session.
ServingCore` as the threaded :class:`~repro.server.server.Server`; only
the concurrency shape differs (DESIGN.md §13)::

    event loop (1 thread) ──► AsyncAdmissionController
      per connection: reader coroutine ──► bounded frame queue
                      consumer coroutine ◄─┘   (pipelining, in order)
                           │ run_in_executor (bounded worker pool)
                           ▼
              ServingCore.run: DrainGate ▸ Session.override ▸ execute

An idle connection costs a file descriptor and two coroutines; only
*executing* statements occupy one of ``workers`` threads. A client may
pipeline N ``execute`` frames before reading any reply: the single
consumer keeps replies in order and bridges up to :data:`EXEC_BATCH`
consecutive executes to the pool in one hop. Writes go through
``drain()`` against :data:`WRITE_HIGH_WATER`, so a slow reader pauses
its own connection, never the loop. Admission sheds like the threaded
server's, but queued waiters are futures, not threads. Blocking core
calls (statements, forwarded intents, journal polls) run on the pool.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import contextlib
import logging
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
from repro.server.admission import AsyncAdmissionController
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

#: default connection cap — connections are cheap here, so the default
#: is two orders of magnitude above the threaded server's
DEFAULT_ASYNC_CONNECTIONS = 2048
DEFAULT_ASYNC_ADMISSION_QUEUE = 128

#: bounded worker pool bridging onto the threaded engine — the knob that
#: decouples thread count from connection count
DEFAULT_WORKERS = 8

#: execute frames a connection may have in flight before its reader
#: coroutine stops reading (per-connection pipeline depth)
MAX_PIPELINE = 32

#: consecutive pipelined execute frames bridged to the pool in one hop
EXEC_BATCH = 16

#: transport write-buffer high-water mark: past this, ``drain()`` blocks
#: and the connection's streaming (and reading) pauses
WRITE_HIGH_WATER = 256 * 1024


class _AsyncConnection:
    """Per-connection state shared by the reader/consumer coroutines."""

    __slots__ = ("reader", "writer", "session", "closed_event")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session: ClientSession,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.session = session
        #: set when the peer is gone or the server ended the connection
        self.closed_event = asyncio.Event()


class AsyncServer(Frontend):
    """An asyncio TCP front end over one :class:`~repro.database.Database`.

    Drop-in peer of the threaded :class:`~repro.server.server.Server`:
    same protocol, same blocking :class:`~repro.server.client.Connection`
    client, same shutdown contract. ``start()``/``shutdown()`` are
    synchronous — the event loop runs on a background thread, so the
    server embeds anywhere the threaded one does.
    """

    def __init__(
        self,
        database: "Database",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = DEFAULT_ASYNC_CONNECTIONS,
        admission_queue: int = DEFAULT_ASYNC_ADMISSION_QUEUE,
        admission_timeout: float = 5.0,
        statement_timeout: float | None = None,
        idle_timeout: float | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        workers: int = DEFAULT_WORKERS,
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
        self.workers = max(1, workers)
        # a statement timeout needs one wait_for per statement, so the
        # one-hop batching of consecutive executes is disabled with it
        self._exec_batch = 1 if statement_timeout is not None else EXEC_BATCH
        self.admission = AsyncAdmissionController(
            max_connections,
            queue_limit=admission_queue,
            queue_timeout=admission_timeout,
        )
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-aworker",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._asyncio_server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._connections: dict[asyncio.StreamWriter, _AsyncConnection] = {}
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._started = False
        #: pipelined execute frames bridged in multi-statement hops
        self.batched_statements_total = 0

    # ------------------------------------------------------------------
    # lifecycle (synchronous surface, threaded-server parity)

    def start(self) -> "AsyncServer":
        """Spawn the event-loop thread; returns once the port is bound."""
        if self._started:
            raise ServerError("server already started")
        self._started = True
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aserver", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._startup_error = None
            raise error
        return self

    def stats(self) -> dict:
        return {
            **super().stats(),
            "workers": self.workers,
            "batched_statements_total": self.batched_statements_total,
        }

    def _connection_count(self) -> int:
        return len(self._connections)

    def _on_loop(self, callback) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(callback)

    def _stop_accepting(self) -> None:
        self._on_loop(self._stop_accepting_on_loop)

    def _close_connections(self) -> None:
        self._on_loop(self._finalize_connections)
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # event-loop thread

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # noqa: BLE001 — surfaced via start()
            self._startup_error = self._startup_error or error
        finally:
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._client_connected, self.host, self.port, backlog=512
            )
        except OSError as error:
            self._startup_error = ServerError(
                f"cannot bind {self.host}:{self.port}: {error}"
            )
            return
        self._asyncio_server = server
        self.port = server.sockets[0].getsockname()[1]
        reaper: asyncio.Task | None = None
        if self.core.reap_interval is not None:
            reaper = asyncio.create_task(self._reap_loop())
        self._ready.set()
        await self._stop_event.wait()
        if reaper is not None:
            reaper.cancel()
        server.close()
        if self._conn_tasks:
            # connections got EOF/goodbye in _finalize_connections; give
            # their coroutines a moment to unwind, then cancel stragglers
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        for task in list(self._conn_tasks):
            task.cancel()
        with contextlib.suppress(Exception):  # best-effort teardown
            await server.wait_closed()

    def _stop_accepting_on_loop(self) -> None:
        self.admission.close()
        if self._asyncio_server is not None:
            self._asyncio_server.close()

    def _finalize_connections(self) -> None:
        for conn in list(self._connections.values()):
            _say_goodbye(conn, "server shutdown")
        if self._stop_event is not None:
            self._stop_event.set()

    async def _reap_loop(self) -> None:
        while not self.core.stopping.is_set():
            await asyncio.sleep(self.core.reap_interval)
            for conn in list(self._connections.values()):
                if not conn.closed_event.is_set() and \
                        self.core.reapable(conn.session):
                    self.core.count("reaped_total")
                    _say_goodbye(conn, "idle timeout")

    # ------------------------------------------------------------------
    # per-connection coroutines

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.core.stopping.is_set():
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Nagle vs delayed-ACK stalls small reply frames, same as in
            # the threaded server
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        conn: _AsyncConnection | None = None
        try:
            try:
                await self.admission.admit()
            except ServerOverloadedError as error:
                await _write_best_effort(writer, protocol.error_frame(error))
                return
            try:
                session = await self._handshake(reader, writer)
                if session is None:
                    return
                conn = _AsyncConnection(reader, writer, session)
                self._connections[writer] = conn
                queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_PIPELINE)
                consumer = asyncio.create_task(self._consume(conn, queue))
                try:
                    await self._read_loop(conn, queue)
                finally:
                    await consumer
            finally:
                self.admission.release()
        except asyncio.CancelledError:
            pass  # shutdown teardown cancelled a straggler
        except (ConnectionClosedError, OSError):
            pass  # peer vanished; nothing to tell it
        except ProtocolError as error:  # an unreadable stream
            await _write_best_effort(writer, protocol.error_frame(error))
        except Exception as error:  # noqa: BLE001 — a bug must not go silent
            _log.exception("connection %s failed", _peer(writer))
            await _write_best_effort(writer, protocol.error_frame(error))
        finally:
            if conn is not None:
                self._connections.pop(writer, None)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> ClientSession | None:
        try:
            frame = await asyncio.wait_for(
                protocol.read_frame_async(reader), HANDSHAKE_TIMEOUT
            )
        except asyncio.TimeoutError:
            await _write_best_effort(writer, HANDSHAKE_TIMED_OUT)
            return None
        if frame is None:
            return None
        session, reply = self.core.hello(frame, _peer(writer))
        writer.write(protocol.frame_bytes(reply))
        await writer.drain()
        return session

    async def _read_loop(
        self, conn: _AsyncConnection, queue: asyncio.Queue
    ) -> None:
        try:
            while True:
                # backpressure: a write buffer past the high-water mark
                # pauses this connection's reads until the peer catches
                # up — pipelined statements cannot outrun their replies
                await conn.writer.drain()
                frame = await protocol.read_frame_async(conn.reader)
                if frame is None:
                    break
                conn.session.touch()
                await queue.put(frame)
                if frame.get("type") == "quit":
                    break
        finally:
            conn.closed_event.set()
            await queue.put(None)

    async def _consume(
        self, conn: _AsyncConnection, queue: asyncio.Queue
    ) -> None:
        """Single consumer per connection: replies stay in request order.

        A ``ProtocolError`` answers its own frame and the connection
        serves on; any other failure ends the connection with an
        ``error`` frame — the consumer never dies while the reader runs.
        """
        pending: collections.deque = collections.deque()
        while True:
            item = pending.popleft() if pending else await queue.get()
            if item is None:
                return
            if conn.writer.is_closing():
                continue  # discard: the connection ended mid-pipeline
            try:
                try:
                    await self._dispatch(conn, queue, pending, item)
                except ProtocolError as error:
                    await self._send(conn, protocol.error_frame(error))
            except (ConnectionClosedError, OSError):
                _say_goodbye(conn, None)
            except Exception as error:  # noqa: BLE001 — never strand it
                _log.exception("connection %s failed", conn.session.peer)
                await _write_best_effort(
                    conn.writer, protocol.error_frame(error)
                )
                _say_goodbye(conn, None)

    async def _dispatch(
        self,
        conn: _AsyncConnection,
        queue: asyncio.Queue,
        pending: collections.deque,
        frame: dict,
    ) -> None:
        core = self.core
        kind = frame.get("type")
        if kind == "execute":
            batch = [frame]
            # greedy pipelining: bridge consecutive queued executes to
            # the worker pool in one hop (order preserved; a non-execute
            # frame ends the run and is handled next)
            while len(batch) < self._exec_batch:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if isinstance(nxt, dict) and nxt.get("type") == "execute":
                    batch.append(nxt)
                else:
                    pending.append(nxt)
                    break
            await self._execute(conn, batch)
            conn.session.touch()
        elif kind == "subscribe":
            reply, stream = core.subscribe(conn.session, frame)
            await self._send(conn, reply)
            if stream is not None:
                await self._stream_journal(conn, stream)
        elif kind == "intent":
            loop = asyncio.get_running_loop()
            await self._send(
                conn,
                await loop.run_in_executor(self._executor, core.intent, frame),
            )
        else:
            reply = core.control(conn.session, frame)
            await self._send(conn, reply)
            if reply["type"] == "goodbye":
                conn.closed_event.set()

    # ------------------------------------------------------------------
    # statements

    async def _execute(
        self, conn: _AsyncConnection, frames: list[dict]
    ) -> None:
        """One worker-pool hop for ``frames``, then their replies in order."""
        if len(frames) > 1:
            self.batched_statements_total += len(frames)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor, self._run_batch, conn.session, frames
        )
        timeout = self.core.statement_timeout
        try:
            # one statement per hop in timeout mode (see _exec_batch)
            outcomes = await (
                future if timeout is None
                else asyncio.wait_for(asyncio.shield(future), timeout)
            )
        except asyncio.TimeoutError as error:
            outcomes = [error]
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                await self._send(conn, self.core.failure_frame(outcome))
                continue
            for reply in self.core.reply_frames(outcome):
                await self._send(conn, reply)

    def _run_batch(
        self, session: ClientSession, frames: list[dict]
    ) -> list:
        """Worker-pool body: decode and run pipelined executes in order.

        Per-statement failures become list entries, not raises — each
        maps back to its own ``error`` frame, so one bad statement never
        corrupts the framing of its pipeline neighbors.
        """
        outcomes: list = []
        for frame in frames:
            try:
                sql, parameters = self.core.decode_execute(frame)
                outcomes.append(self.core.run(session, sql, parameters))
            except Exception as error:  # noqa: BLE001 — typed frame
                outcomes.append(error)
        return outcomes

    async def _stream_journal(
        self, conn: _AsyncConnection, stream: JournalStream
    ) -> None:
        """Carry ``stream`` until the subscriber leaves or shutdown."""
        loop = asyncio.get_running_loop()
        while not (
            self.core.stopping.is_set()
            or conn.closed_event.is_set()
            or conn.writer.is_closing()
        ):
            frame = await loop.run_in_executor(
                self._executor, stream.next_frame
            )
            if frame is not None:
                await self._send(conn, frame)
                if frame["records"]:
                    continue
            try:
                await asyncio.wait_for(
                    conn.closed_event.wait(), SUBSCRIBE_POLL
                )
            except asyncio.TimeoutError:
                pass

    async def _send(self, conn: _AsyncConnection, frame: dict) -> None:
        if conn.writer.is_closing():
            raise ConnectionClosedError("client connection closed")
        conn.writer.write(protocol.frame_bytes(frame))
        await conn.writer.drain()


# ----------------------------------------------------------------------
# write helpers (best-effort: the peer may already be gone)

def _peer(writer: asyncio.StreamWriter) -> str:
    host, port = (writer.get_extra_info("peername") or ("?", 0))[:2]
    return f"{host}:{port}"


def _say_goodbye(conn: _AsyncConnection, reason: str | None) -> None:
    """End ``conn`` from the loop: a ``goodbye`` (if ``reason``), close."""
    with contextlib.suppress(Exception):
        if reason is not None:
            conn.writer.write(protocol.frame_bytes(goodbye_frame(reason)))
        conn.writer.close()
    conn.closed_event.set()


async def _write_best_effort(
    writer: asyncio.StreamWriter, frame: dict
) -> None:
    with contextlib.suppress(Exception):
        writer.write(protocol.frame_bytes(frame))
        await writer.drain()


__all__ = [
    "AsyncServer",
    "DEFAULT_ASYNC_CONNECTIONS",
    "DEFAULT_WORKERS",
]
