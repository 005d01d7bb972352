"""The wire protocol: length-prefixed JSON frames.

Every message on the socket is one *frame*: a 4-byte big-endian length
followed by that many bytes of UTF-8 compact JSON encoding a single
object with a ``type`` key. Length-prefixing (rather than line framing)
keeps SQL text and string values unescaped-newline-safe; JSON keeps the
journal, the protocol, and the tests mutually greppable.

Client → server frame types::

    {"type": "hello", "protocol": 1, "user": ..., "password": ...}
    {"type": "execute", "sql": ..., "parameters": {...}?}
    {"type": "set_user", "user": ..., "password": ...}
    {"type": "health"}
    {"type": "ping"}
    {"type": "quit"}
    {"type": "subscribe", "from_seq": N}             # journal stream
    {"type": "intent", "accessed": {expr: [ids]},
     "sql": ..., "user": ...}                        # replica firing

Server → client::

    {"type": "hello_ok", "server": ..., "protocol": 1, "session": ...}
    {"type": "rows", "rows": [[...], ...]}          # 1 per batch
    {"type": "done", "columns": [...], "rowcount": N,
     "accessed": {expr: [ids]}, "token": <seq>?}
    {"type": "ok", ...}                              # set_user ack
    {"type": "health", "audit_trail": {...}, "cluster": {...} | null}
    {"type": "pong"}
    {"type": "error", "code": <exception class name>, "message": ...,
     "retry_after": <seconds>?}
    {"type": "goodbye", "reason": ...}
    {"type": "subscribe_ok", "next_seq": N}
    {"type": "journal", "records": [{"seq": ..., "kind": ...,
     "data": {...}}, ...], "primary_seq": N}         # stream batches
    {"type": "intent_ok", "seq": N | null}

The replication frames (DESIGN.md §13): ``subscribe`` switches a
connection into a one-way journal stream — the server replies
``subscribe_ok`` then pushes ``journal`` frames (record payloads are the
journal's own encoded form, IDs tagged via :func:`encode_id`) with
``primary_seq`` carrying the primary's current append position so
replicas can report lag. ``intent`` is the reverse direction: a replica
ships a locally-computed ACCESSED set to the primary, which journals and
fires it under the original attribution and acks with ``intent_ok``.
``token`` on ``done`` frames is the read-your-writes token
(:meth:`~repro.database.Database.replication_token`), present only when
the server journals statements for replication.

``health`` reports the database's audit-trail damage counters
(:meth:`~repro.database.Database.audit_trail_health`) and — when the
server fronts a :class:`~repro.cluster.ClusterDatabase` — the cluster's
fault-tolerance snapshot (``cluster_health()``: per-shard breaker
states, degraded-read / retry / timeout counters); ``cluster`` is null
on a single-node server. ``retry_after`` appears on error frames whose
exception carries a machine-readable backoff hint (admission shedding),
and the client re-raises it on the reconstructed exception.

A statement's response is zero or more ``rows`` frames terminated by
exactly one ``done`` or ``error`` frame, so a client can stream large
results without buffering the whole set. Values ride the wire through
the same typed codec the audit journal uses
(:func:`repro.durability.journal.encode_id`), so dates, datetimes,
Decimals, and composite keys round-trip exactly; SQL ``INTERVAL`` values
get their own tag here. Error frames carry the *name* of the
:mod:`repro.errors` class that was raised server-side; the client
re-raises the same class, so ``except AccessDeniedError:`` works
identically in-process and over the network.
"""

from __future__ import annotations

import json
import socket
import struct

from repro import errors as _errors
from repro.datatypes.intervals import Interval
from repro.durability.journal import ID_TAG, decode_id, encode_id
from repro.errors import (
    ConnectionClosedError,
    DurabilityError,
    ProtocolError,
    ReproError,
)

PROTOCOL_VERSION = 1

#: refuse frames larger than this (a corrupt length prefix must not
#: allocate gigabytes)
MAX_FRAME_BYTES = 32 << 20

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------------
# value codec

def encode_value(value: object) -> object:
    """JSON-safe encoding of one SQL value, round-trippable.

    Delegates to the journal's partition-ID codec and adds the one
    engine value type the journal never sees (``INTERVAL``). Raises
    :class:`ProtocolError` on a value that cannot ride the wire
    losslessly.
    """
    if isinstance(value, Interval):
        return {ID_TAG: "interval", "v": [value.count, value.unit]}
    try:
        return encode_id(value)
    except DurabilityError as error:
        raise ProtocolError(str(error)) from error


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and value.get(ID_TAG) == "interval":
        count, unit = value["v"]
        return Interval(count, unit)
    return decode_id(value)


def encode_row(row: tuple) -> list:
    return [encode_value(value) for value in row]


def decode_row(row: list) -> tuple:
    return tuple(decode_value(value) for value in row)


def encode_accessed(accessed: dict) -> dict:
    return {
        name: [encode_value(value) for value in sorted(ids, key=repr)]
        for name, ids in accessed.items()
    }


def decode_accessed(accessed: dict) -> dict:
    return {
        name: frozenset(decode_value(value) for value in ids)
        for name, ids in accessed.items()
    }


# ----------------------------------------------------------------------
# error codec

def _error_registry() -> dict[str, type]:
    """Name → class for every engine exception (ReproError subclasses)."""
    registry: dict[str, type] = {}
    for name in dir(_errors):
        candidate = getattr(_errors, name)
        if isinstance(candidate, type) and issubclass(candidate, ReproError):
            registry[name] = candidate
    return registry


ERROR_TYPES = _error_registry()


def error_frame(error: BaseException) -> dict:
    """The wire form of one server-side failure."""
    code = type(error).__name__
    if code not in ERROR_TYPES:
        # engine internals (KeyError, AssertionError, ...) must not leak
        # their types into the protocol contract
        code = "ExecutionError"
    frame = {"type": "error", "code": code, "message": str(error)}
    retry_after = getattr(error, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        frame["retry_after"] = float(retry_after)
    return frame


def raise_error_frame(frame: dict) -> None:
    """Re-raise the engine exception an ``error`` frame describes."""
    exc_type = ERROR_TYPES.get(frame.get("code", ""), ReproError)
    error = exc_type(frame.get("message", "server error"))
    retry_after = frame.get("retry_after")
    if isinstance(retry_after, (int, float)):
        # reattach the backoff hint so remote except-clauses can read
        # ``error.retry_after`` exactly like in-process ones
        error.retry_after = float(retry_after)
    raise error


# ----------------------------------------------------------------------
# framing

def frame_bytes(message: dict) -> bytes:
    """Serialize one frame to its on-wire bytes (length prefix included)."""
    try:
        data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"frame is not JSON-serializable: {error}"
        ) from error
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(data)) + data


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize and send one frame (atomic ``sendall``)."""
    sock.sendall(frame_bytes(message))


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    length = frame_length(header)
    data = _recv_exact(sock, length, eof_ok=False)
    return decode_frame(data)


def frame_length(header: bytes) -> int:
    """The body length a frame header announces, refusing oversized ones
    (shared by the sync and async read paths)."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream is corrupt or hostile"
        )
    return length


def decode_frame(data: bytes) -> dict:
    """Decode one frame body (shared by the sync and async read paths)."""
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not an object with a 'type' key")
    return message


async def read_frame_async(reader) -> dict | None:
    """Asyncio twin of :func:`recv_frame` over a ``StreamReader``.

    Returns None on a clean EOF at a frame boundary; EOF mid-frame
    raises :class:`~repro.errors.ConnectionClosedError`.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ConnectionClosedError(
            "connection closed mid-frame "
            f"({len(error.partial)}/{_LENGTH.size} header bytes received)"
        ) from error
    length = frame_length(header)
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionClosedError(
            "connection closed mid-frame "
            f"({len(error.partial)}/{length} bytes received)"
        ) from error
    return decode_frame(data)


def _recv_exact(
    sock: socket.socket, count: int, eof_ok: bool
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ConnectionClosedError(
                "connection closed mid-frame "
                f"({count - remaining}/{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ERROR_TYPES",
    "encode_value",
    "decode_value",
    "encode_row",
    "decode_row",
    "encode_accessed",
    "decode_accessed",
    "error_frame",
    "raise_error_frame",
    "frame_bytes",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "read_frame_async",
]
