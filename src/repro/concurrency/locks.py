"""A reentrant, writer-preferring read-write lock.

The engine serializes *mutations* while letting SELECTs run concurrently:
readers share the lock, writers exclude everyone. Statement execution
nests — a trigger body runs statements while its firing already holds the
write side, ``INSERT ... SELECT`` runs a read-side SELECT under a
write-side INSERT — so both sides are reentrant per thread:

* a thread holding either side may re-acquire the read side;
* a thread holding the write side may re-acquire the write side;
* a thread holding *only* the read side must not request the write side
  (a classic upgrade deadlock when two readers try it); the lock raises
  ``RuntimeError`` instead of deadlocking, because in this engine trigger
  actions always fire after the reading query has released its lock.

Writers are preferred: once a writer is waiting, new first-time readers
queue behind it, so a stream of short SELECTs cannot starve DML.
"""

from __future__ import annotations

import threading


class ReadWriteLock:
    """Shared/exclusive lock with per-thread reentrancy."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        #: thread ident -> read-side nesting depth
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._writer_nesting = 0
        self._writers_waiting = 0
        self._read = _Side(self, self.acquire_read, self.release_read)
        self._write = _Side(self, self.acquire_write, self.release_write)

    # ------------------------------------------------------------------
    # read side

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._condition:
            if self._writer == me or me in self._readers:
                # reentrant: a nested statement on a thread that already
                # holds either side never blocks (and never deadlocks
                # against itself)
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._condition.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._condition:
            nesting = self._readers.get(me)
            if nesting is None:
                raise RuntimeError("release_read without acquire_read")
            if nesting > 1:
                self._readers[me] = nesting - 1
                return
            del self._readers[me]
            # only writers wait for readers to leave
            if self._writers_waiting and not self._readers:
                self._condition.notify_all()

    # ------------------------------------------------------------------
    # write side

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._condition:
            if self._writer == me:
                self._writer_nesting += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "read-to-write lock upgrade would deadlock; release "
                    "the read side before acquiring the write side"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._condition.wait()
            except BaseException:
                # readers queued behind this writer must not wait for it
                self._condition.notify_all()
                raise
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_nesting = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._condition:
            if self._writer != me:
                raise RuntimeError("release_write without acquire_write")
            self._writer_nesting -= 1
            if self._writer_nesting == 0:
                self._writer = None
                self._condition.notify_all()

    # ------------------------------------------------------------------
    # context managers and introspection

    def read(self) -> _Side:
        """``with lock.read():`` holds the read side for the block."""
        return self._read

    def write(self) -> _Side:
        """``with lock.write():`` holds the write side for the block."""
        return self._write

    def held_read(self) -> bool:
        """True when the calling thread holds the read side."""
        with self._condition:
            return threading.get_ident() in self._readers

    def held_write(self) -> bool:
        """True when the calling thread holds the write side."""
        with self._condition:
            return self._writer == threading.get_ident()


class _Side:
    """One side of a :class:`ReadWriteLock` as a context manager. It keeps
    no state (the lock counts holders per thread), so one instance per
    side serves every ``with`` on every thread."""

    __slots__ = ("_lock", "_acquire", "_release")

    def __init__(self, lock, acquire, release) -> None:
        self._lock = lock
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> ReadWriteLock:
        self._acquire()
        return self._lock

    def __exit__(self, *exc_info) -> None:
        self._release()


__all__ = ["ReadWriteLock"]
