"""Cooperative deadlines for long-running plan executions.

Python offers no safe thread preemption, so the engine cannot *kill* a
running fragment — it can only have the fragment check the clock. A
:class:`DeadlineToken` carries that budget: the cluster coordinator
installs one on each scatter fragment's :class:`~repro.exec.context.
ExecutionContext`, and :func:`~repro.exec.operators.base.collect_rows`
checks it at every batch boundary. Fragments run on the caller's thread,
so no second thread exists to stop one; a fragment whose deadline passes
unwinds at its next checkpoint — releasing its shard read lock — instead
of running an abandoned query to completion.

An expired token raises :class:`~repro.errors.OperationCancelledError`
from inside the execution, which the coordinator absorbs as a deadline
miss. The partially-recorded ACCESSED state survives on the context:
rows the fragment touched before the checkpoint were disclosed and must
still be audited (§II abort semantics).
"""

from __future__ import annotations

import time

from repro.errors import OperationCancelledError


class DeadlineToken:
    """Trips once a ``time.monotonic()`` deadline passes."""

    __slots__ = ("deadline",)

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    @property
    def cancelled(self) -> bool:
        return time.monotonic() >= self.deadline

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise OperationCancelledError(
                "execution cancelled at a cooperative checkpoint"
            )


def interruptible_sleep(
    seconds: float, token: DeadlineToken | None
) -> None:
    """Sleep ``seconds``, or until ``token``'s deadline if that is sooner.

    A sleep cut short by the deadline raises
    :class:`~repro.errors.OperationCancelledError`. Used for modeled I/O
    stalls and retry backoff on paths that must stay within a deadline.
    """
    if seconds <= 0:
        return
    if token is None:
        time.sleep(seconds)
        return
    remaining = token.deadline - time.monotonic()
    if seconds < remaining:
        time.sleep(seconds)
        return
    time.sleep(max(remaining, 0.0))
    raise OperationCancelledError("sleep cut short by its deadline")


__all__ = [
    "DeadlineToken",
    "interruptible_sleep",
]
