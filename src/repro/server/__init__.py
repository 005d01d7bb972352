"""repro.server — the network serving layer (DESIGN.md §9, §13).

The paper's setting is a DBMS serving live queries from many
authenticated users; this package gives the reproduction that boundary:

* :class:`ServingCore` (:mod:`repro.server.session`) — what a connection
  means, written once: handshake and authentication, per-connection
  attribution (``Session.override``), ``done`` frames carrying ACCESSED,
  control frames, forwarded intents and journal streams (the
  replication endpoint), the idle policy, audited graceful shutdown and
  the serving counters. It does no I/O; both front ends drive it;
* :class:`Server` — the threaded transport: a handler thread per
  connection, admission control (connection cap + bounded queue +
  :class:`~repro.errors.ServerOverloadedError` shedding), and
  per-statement timeouts on an executor future;
* :class:`AsyncServer` — the asyncio transport: idle connections cost a
  file descriptor and two coroutines instead of a thread, statements
  bridge onto a bounded worker pool, clients may pipeline, and
  streaming is backpressure-aware;
* :class:`Connection` — the blocking client library (also what
  ``python -m repro --connect host:port`` uses), with opt-in overload
  retries and ``execute_many`` pipelining;
* :mod:`repro.server.protocol` — the length-prefixed JSON wire protocol.

Run a standalone server with ``python -m repro.server`` (pick the front
end with ``--frontend threaded|async``); embed one with
``Database.serve(...)`` or ``Database.serve_async(...)``.
"""

from repro.server.admission import (
    AdmissionController,
    AsyncAdmissionController,
)
from repro.server.aserver import (
    DEFAULT_ASYNC_CONNECTIONS,
    DEFAULT_WORKERS,
    AsyncServer,
)
from repro.server.auth import (
    Authenticator,
    ClientSession,
    OpenAuthenticator,
    StaticAuthenticator,
)
from repro.server.client import Connection
from repro.server.server import (
    DEFAULT_ADMISSION_QUEUE,
    DEFAULT_MAX_CONNECTIONS,
    Server,
)
from repro.server.session import DEFAULT_BATCH_ROWS, ServingCore

__all__ = [
    "Server",
    "AsyncServer",
    "ServingCore",
    "Connection",
    "AdmissionController",
    "AsyncAdmissionController",
    "Authenticator",
    "OpenAuthenticator",
    "StaticAuthenticator",
    "ClientSession",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_ADMISSION_QUEUE",
    "DEFAULT_BATCH_ROWS",
    "DEFAULT_ASYNC_CONNECTIONS",
    "DEFAULT_WORKERS",
]
