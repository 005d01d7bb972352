"""Authenticated per-connection sessions.

The audit log's whole value is *attribution*: ``user_id()`` in a trigger
action must name the human who ran the query, which is only trustworthy
if identity is established at the database boundary (the handshake), not
claimed per-statement by the embedding process. The server therefore
authenticates once per connection (and on explicit ``set_user``
re-authentication) and pins the resulting ``user_id`` into every
statement via the thread-local ``Session.override`` API.

Two authenticators ship:

* :class:`OpenAuthenticator` — any non-empty user name is accepted
  (development default; identity is still per-connection, just
  unverified);
* :class:`StaticAuthenticator` — a fixed user → password map, constant
  -time comparison, unknown users rejected.
"""

from __future__ import annotations

import hmac
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.errors import AuthenticationError

_SESSION_IDS = itertools.count(1)


class Authenticator:
    """Base contract: :meth:`authenticate` returns the canonical user id
    or raises :class:`AuthenticationError`."""

    def authenticate(self, user: str, password: str | None) -> str:
        raise NotImplementedError


class OpenAuthenticator(Authenticator):
    """Accept any non-empty user name (no password check)."""

    def authenticate(self, user: str, password: str | None) -> str:
        if not user or not isinstance(user, str):
            raise AuthenticationError("a non-empty user name is required")
        return user


class StaticAuthenticator(Authenticator):
    """A fixed user → password table."""

    def __init__(self, credentials: dict[str, str]) -> None:
        self._credentials = dict(credentials)

    def authenticate(self, user: str, password: str | None) -> str:
        expected = self._credentials.get(user)
        if expected is None:
            raise AuthenticationError(f"unknown user {user!r}")
        if not hmac.compare_digest(expected, password or ""):
            raise AuthenticationError(f"bad password for user {user!r}")
        return user


@dataclass
class ClientSession:
    """One connection's server-side state."""

    user_id: str
    peer: str = ""
    session_id: int = field(default_factory=lambda: next(_SESSION_IDS))
    started_at: float = field(default_factory=time.monotonic)
    #: monotonic timestamp of the last frame received (idle reaping)
    last_activity: float = field(default_factory=time.monotonic)
    #: a journal subscriber idles by design: exempt from idle reaping
    subscribed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def touch(self) -> None:
        with self._lock:
            self.last_activity = time.monotonic()

    def idle_for(self, now: float | None = None) -> float:
        with self._lock:
            return (now or time.monotonic()) - self.last_activity


__all__ = [
    "Authenticator",
    "OpenAuthenticator",
    "StaticAuthenticator",
    "ClientSession",
]
