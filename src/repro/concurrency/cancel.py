"""Cooperative cancellation for long-running plan executions.

Python offers no safe thread preemption, so the engine cannot *kill* a
running fragment — it can only ask it to stop. A
:class:`CancellationToken` is that ask: the cluster coordinator installs
one on each scatter fragment's :class:`~repro.exec.context.
ExecutionContext`, and :func:`~repro.exec.operators.base.collect_rows`
checks it at every batch boundary. A fragment whose deadline expires
therefore unwinds at its next checkpoint — releasing its shard read
lock — instead of running an abandoned query to completion.

Cancellation raises :class:`~repro.errors.OperationCancelledError` from
inside the execution, which the canceller is expected to absorb (it
asked for it). The partially-recorded ACCESSED state survives on the
context: rows the fragment touched before the checkpoint were disclosed
and must still be audited (§II abort semantics).
"""

from __future__ import annotations

import threading
import time

from repro.errors import OperationCancelledError


class CancellationToken:
    """A one-way latch asking a cooperative execution to stop."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise OperationCancelledError(
                "execution cancelled at a cooperative checkpoint"
            )

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout``); True when cancelled."""
        return self._event.wait(timeout)


class DeadlineToken(CancellationToken):
    """A token that also trips once a ``time.monotonic()`` deadline passes.

    The parallel scatter enforces deadlines from the gather thread: it
    cancels a worker's plain token when ``future.result`` times out.
    Inline execution (trigger firing, single-shard clusters) has no
    second thread to do the cancelling, so the token itself carries the
    budget — every cooperative checkpoint compares the clock, and a
    latency fault or slow scan unwinds at its next check instead of
    running unbounded while the caller holds shard locks.
    """

    __slots__ = ("_deadline",)

    def __init__(self, deadline: float) -> None:
        super().__init__()
        self._deadline = deadline

    @property
    def cancelled(self) -> bool:
        return self._event.is_set() or time.monotonic() >= self._deadline

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise OperationCancelledError(
                "execution cancelled at a cooperative checkpoint"
            )

    def wait(self, timeout: float | None = None) -> bool:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            return True
        if timeout is None or timeout > remaining:
            timeout = remaining
        if self._event.wait(timeout):
            return True
        return time.monotonic() >= self._deadline


def interruptible_sleep(
    seconds: float, token: CancellationToken | None
) -> None:
    """Sleep ``seconds`` unless ``token`` is cancelled first.

    Used for modeled I/O stalls and retry backoff on paths that must
    stay responsive to a deadline's cancellation.
    """
    if seconds <= 0:
        return
    if token is None:
        time.sleep(seconds)
        return
    if token.wait(seconds):
        token.raise_if_cancelled()


__all__ = [
    "CancellationToken",
    "DeadlineToken",
    "interruptible_sleep",
]
