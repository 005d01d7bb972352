"""Concurrent serving: locks and the asynchronous audit-trigger pipeline.

The engine's concurrency model (DESIGN.md §7) is two-layered:

* :class:`ReadWriteLock` — a reentrant, writer-preferring read-write lock.
  SELECTs execute under the read side (N concurrent snapshot readers),
  every mutating statement (DML, DDL, trigger actions) takes the write
  side. Nested statements — trigger bodies, ``INSERT ... SELECT`` — are
  reentrant no-ops on a thread that already holds a side.
* :class:`TriggerPipeline` — a bounded queue plus one background worker
  that drains :class:`TriggerBatch` records (the ACCESSED state and query
  metadata captured at SELECT time) and runs the AFTER-timing trigger
  actions off the caller's critical path, with backpressure when full and
  per-batch error isolation.
* :class:`DrainGate` — in-flight work accounting for graceful shutdown:
  the network server admits each statement through the gate, and
  shutdown closes it and drains before the trigger pipeline and the
  audit journal are closed (DESIGN.md §9).
* :class:`SequenceBarrier` — a monotonic high-watermark with blocking
  waits: the replication applier advances it per applied journal record,
  and read-your-writes tokens block on it (DESIGN.md §13).
* :class:`DeadlineToken` — a cooperative deadline for long-running
  executions: the cluster coordinator gives each scatter fragment one,
  and ``collect_rows`` checkpoints unwind a fragment whose deadline
  passed at the next batch boundary (DESIGN.md §12).
"""

from repro.concurrency.barrier import SequenceBarrier
from repro.concurrency.cancel import DeadlineToken, interruptible_sleep
from repro.concurrency.gate import DrainGate, GateClosedError
from repro.concurrency.locks import ReadWriteLock
from repro.concurrency.pipeline import (
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_RETRY_LIMIT,
    EMPTY_STATS,
    TriggerBatch,
    TriggerPipeline,
)

__all__ = [
    "DeadlineToken",
    "DrainGate",
    "GateClosedError",
    "interruptible_sleep",
    "ReadWriteLock",
    "SequenceBarrier",
    "TriggerBatch",
    "TriggerPipeline",
    "DEFAULT_QUEUE_CAPACITY",
    "DEFAULT_RETRY_LIMIT",
    "EMPTY_STATS",
]
