"""Exception hierarchy for the repro database engine.

Every error raised by the engine derives from :class:`ReproError` so that
applications can catch engine failures without masking programming errors.
The hierarchy mirrors the major subsystems: SQL front end, binding/planning,
execution, storage/constraints, and the audit framework.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so callers can point at the source.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class BindError(ReproError):
    """Name resolution or type checking of a statement failed."""


class CatalogError(ReproError):
    """A catalog object is missing, duplicated, or inconsistently defined."""


class StorageError(ReproError):
    """A storage-level operation failed (row format, index maintenance)."""


class ConstraintError(StorageError):
    """A declared constraint (primary key, not null, foreign key) was violated."""


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class OperationCancelledError(ExecutionError):
    """A cooperative checkpoint found its deadline passed.

    Raised from inside plan execution when the execution's
    :class:`~repro.concurrency.DeadlineToken` has expired — e.g. a
    cluster scatter fragment that overran ``shard_deadline``. The partial
    work's ACCESSED state is still merged by the caller (§II: rows a
    cancelled fragment already touched were disclosed)."""


class PlanError(ReproError):
    """The optimizer produced or received an invalid plan shape."""


class TriggerError(ReproError):
    """Trigger definition or firing failed (e.g. cascade depth exceeded)."""


class PipelineClosedError(TriggerError):
    """A trigger batch was submitted to a closed trigger pipeline.

    Raised instead of blocking on (or silently dropping into) the queue of
    a pipeline whose worker has been shut down.
    """


class AccessDeniedError(TriggerError):
    """A BEFORE-timing SELECT trigger vetoed the query's results.

    The query already executed (accesses were recorded and logged), but a
    ``DENY`` action withheld the result set from the caller.
    """

    def __init__(self, message: str = "access denied by SELECT trigger"
                 ) -> None:
        super().__init__(message)
        self.message = message


class AuditError(ReproError):
    """Audit expression definition, compilation, or placement failed."""


class DurabilityError(ReproError):
    """A failure in the durable audit journal subsystem."""


class JournalCorruptionError(DurabilityError):
    """A journal segment contains a record that fails its CRC check.

    Torn writes at the tail of the *last* segment are expected after a
    crash and are tolerated; corruption anywhere else means the journal
    (or the disk under it) was damaged and recovery refuses to guess.
    """


class AuditUnavailableError(DurabilityError):
    """The audit trail cannot be made durable and policy is ``fail_closed``.

    Queries that accessed sensitive data raise this instead of returning
    results when the audit journal or the trigger pipeline is down —
    serving the rows would create an unauditable disclosure.
    """


class AuditTrailIncompleteError(AuditError):
    """An audit-log read under ``fail_closed`` while the trail has gaps.

    Failed trigger batches, dead-lettered firings, or recorded journal
    gaps mean the log may be missing disclosures; ``fail_closed`` refuses
    to present it as complete.
    """


class AuditTrailWarning(UserWarning):
    """The audit trail may be incomplete (``fail_open`` counterpart of
    :class:`AuditTrailIncompleteError`)."""


class ServerError(ReproError):
    """A failure in the network serving layer (``repro.server``)."""


class ProtocolError(ServerError):
    """A malformed, oversized, or out-of-sequence wire-protocol frame."""


class AuthenticationError(ServerError):
    """The connection handshake presented credentials the server rejects."""


class ServerOverloadedError(ServerError):
    """Admission control shed this connection.

    The server is at its connection cap and the bounded admission queue
    is full (or the queue wait timed out). Load is shed with this typed
    error instead of queueing unboundedly; clients should back off and
    retry. ``retry_after`` (seconds, when known) is a machine-readable
    backoff hint that rides the wire in the error frame, so remote
    clients can sleep instead of hammering a shedding server.
    """

    def __init__(
        self, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StatementTimeoutError(ServerError):
    """A statement exceeded the server's per-statement timeout.

    The client gets this error instead of rows. The server does not kill
    the executing thread (Python offers no safe preemption): the
    statement runs to completion in the background and its audit-trigger
    firings still land — a timeout withholds results, never evidence.
    """


class ServerShutdownError(ServerError):
    """The statement arrived while the server was draining for shutdown."""


class ConnectionClosedError(ServerError):
    """The server closed this connection (shutdown, idle reaping, or a
    network failure) before or while a response was expected."""


class ClusterError(ReproError):
    """A failure in the sharded execution layer (``repro.cluster``)."""


class ClusterRoutingError(ClusterError):
    """A statement the coordinator cannot route soundly across shards.

    Raised instead of silently computing a wrong (partition-local) answer:
    e.g. joining two hash-partitioned tables, reading a partitioned table
    from inside a subquery expression, or reassigning a partition key in
    an UPDATE. The statement is valid SQL — run it on a single-node
    :class:`~repro.database.Database` or restructure it.
    """


class ClusterDegradedError(ClusterError):
    """A statement refused because shards it needs are unavailable.

    Raised for reads when the audit policy is ``fail_closed`` (or
    ``degraded_reads`` is off) and a shard is quarantined, timed out, or
    failed past its retry budget — partial results would be an
    incompletely audited disclosure. Always raised for DML that targets
    a quarantined shard's partitions and for DDL while any shard is
    quarantined: applying either on a subset of shards would diverge the
    replicas. ``shards`` names the offending shard indexes.
    """

    def __init__(self, message: str, shards: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.shards = tuple(shards)


class ShardTimeoutError(ClusterError):
    """A scatter fragment missed its per-shard deadline.

    The fragment's cancellation token is cancelled (it stops at its next
    cooperative checkpoint and releases its shard read lock); the
    coordinator then applies the degraded-read policy. Deadline misses
    are never retried — a slow shard only gets slower under more load.
    """


class ReplicationError(ReproError):
    """A failure in the journal-shipping replication layer
    (``repro.replication``)."""


class ReadOnlyReplicaError(ReplicationError):
    """A mutating statement was sent to a read-only replica.

    Replicas replay the primary's journal; accepting local DML or DDL
    would diverge them from the stream. Run writes against the primary
    — the replica serves SELECTs only.
    """


class TransactionError(ReproError):
    """Invalid transaction control (COMMIT/ROLLBACK without BEGIN, ...)."""


class UnsupportedSqlError(ReproError):
    """A syntactically valid construct that this engine does not implement."""
