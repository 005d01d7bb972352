"""The public engine facade.

:class:`Database` wires together the catalog, storage, SQL front end,
optimizer, executor, audit manager, and trigger manager. Typical use::

    db = Database()
    db.execute("CREATE TABLE patients (patientid INT PRIMARY KEY, "
               "name VARCHAR, age INT, zip VARCHAR)")
    db.execute("INSERT INTO patients VALUES (1, 'Alice', 40, '98101')")
    db.execute(
        "CREATE AUDIT EXPRESSION audit_alice AS "
        "SELECT * FROM patients WHERE name = 'Alice' "
        "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
    )
    db.execute("CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
               "INSERT INTO log SELECT now(), user_id(), sql_text(), "
               "patientid FROM accessed")
    result = db.execute("SELECT * FROM patients WHERE age > 30")
    # result.accessed == {'audit_alice': {1}}  and the log has a row

SELECT queries are instrumented with audit operators between logical and
physical optimization (§IV-B); after execution (even an aborted one), the
SELECT triggers of every audit expression with recorded accesses fire as
their own system transaction (§II-C).
"""

from __future__ import annotations

import datetime
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.audit.manager import AuditManager
from repro.concurrency import (
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_RETRY_LIMIT,
    EMPTY_STATS,
    ReadWriteLock,
    TriggerBatch,
    TriggerPipeline,
)
from repro.audit.placement import HEURISTIC_HCN
from repro.catalog.catalog import Catalog, IndexDefinition
from repro.catalog.schema import Column, ForeignKey, TableSchema
from repro.datatypes import type_from_name
from repro.errors import (
    AuditUnavailableError,
    CatalogError,
    ConstraintError,
    DurabilityError,
    ExecutionError,
    PipelineClosedError,
    ReadOnlyReplicaError,
    ReproError,
    UnsupportedSqlError,
)
from repro.durability.journal import encode_id
from repro.testing.faults import NO_FAULTS, FaultInjector
from repro.exec.context import ExecutionContext, Session
from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Expression
from repro.optimizer.optimizer import Optimizer
from repro.plan.builder import PlanBuilder, Scope
from repro.plancache import CachedPlan, PlanCache
from repro.plan.logical import LogicalPlan, PlanColumn
from repro.sql import ast
from repro.sql.parser import parse_statement, parse_statements_with_text
from repro.storage.blocks import DEFAULT_BLOCK_CAPACITY
from repro.storage.table import Table
from repro.triggers.definitions import DmlTrigger, SelectTrigger
from repro.triggers.manager import TriggerManager


@dataclass
class QueryResult:
    """Materialized result of a SELECT (or the row count of a DML)."""

    columns: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    #: audit expression name -> accessed partition-by IDs (ACCESSED state)
    accessed: dict[str, frozenset] = field(default_factory=dict)
    rowcount: int = 0

    def rows_list(self) -> list[tuple]:
        return self.rows

    def scalar(self) -> object:
        """First column of the first row (None for empty results)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, index: int = 0) -> list[object]:
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """An in-memory relational database with SELECT-trigger auditing."""

    def __init__(
        self,
        user_id: str = "admin",
        audit_heuristic: str = HEURISTIC_HCN,
        clock: Callable[[], datetime.datetime] | None = None,
        journal_path: str | None = None,
        journal_fsync: str = "batch",
        audit_policy: str = "fail_open",
        fault_injector: FaultInjector | None = None,
        read_only: bool = False,
    ) -> None:
        self.catalog = Catalog()
        self.session = Session(user_id=user_id, clock=clock)
        self._builder = PlanBuilder(self.catalog)
        self.audit_manager = AuditManager(
            self.catalog, self._materialize_ids, heuristic=audit_heuristic
        )
        self._optimizer = Optimizer(
            self.catalog, self.audit_manager.resolve_view
        )
        self.trigger_manager = TriggerManager(self)
        #: set False to execute queries without audit instrumentation
        self.audit_enabled = True
        #: rows per storage block in tables created after the change
        #: (each block keeps zone maps + a sensitive-ID sketch)
        self.block_size = DEFAULT_BLOCK_CAPACITY
        #: consult block zone maps / ID sketches to skip blocks during
        #: scans and audit probes; skips are conservative, so results,
        #: ACCESSED sets, and audit verdicts are knob-independent
        self.skipping = True
        #: offline-auditor strategy: 'auto' (one lineage-capturing run
        #: when the plan shape is certifiable, deletion tests otherwise),
        #: 'lineage' (same, kept as an explicit request), or 'deletion'
        #: (always the literal Definition-2.3 re-runs)
        self.offline_audit_mode = "auto"
        #: thread-pool width for deletion-test fallback batches (1 =
        #: serial; the pool shares one compiled plan across workers)
        self.offline_audit_workers = 1
        self._offline_auditor = None
        #: compiled-plan cache keyed on SQL text + engine version tags
        self.plan_cache = PlanCache()
        #: messages emitted by SEND EMAIL / NOTIFY trigger actions
        self.notifications: list[str] = []
        self._trigger_local = threading.local()
        # transaction state: the active undo log (explicit transaction or
        # per-statement autocommit scope) and whether BEGIN is open.
        # Transactions are *session*-scoped: statements from any thread
        # join the open transaction (all undo manipulation happens under
        # the engine write lock, so the structures stay consistent).
        self._active_undo = None
        self._in_explicit_transaction = False
        # concurrency: SELECTs share the read side, mutating statements
        # and trigger actions take the write side (DESIGN.md §7)
        self._engine_lock = ReadWriteLock()
        #: SELECT-trigger firing: 'sync' runs AFTER-timing actions on the
        #: caller's thread before execute() returns (the seed semantics);
        #: 'async' defers them to the background trigger pipeline.
        #: BEFORE-timing triggers always run synchronously — they gate
        #: the query's results (DENY).
        self._trigger_mode = "sync"
        #: bound of the async trigger queue (backpressure when full);
        #: read when the pipeline is first created
        self.trigger_queue_capacity = DEFAULT_QUEUE_CAPACITY
        self._trigger_pipeline: TriggerPipeline | None = None
        self._pipeline_init_lock = threading.Lock()
        # close() serialization: signal handlers and server shutdown may
        # race; the lock keeps the drain -> journal-close order intact
        # under concurrent callers
        self._close_lock = threading.Lock()
        #: retries before an async trigger batch is dead-lettered; read
        #: when the pipeline is first created
        self.trigger_retry_limit = DEFAULT_RETRY_LIMIT
        #: first retry delay (doubles per attempt)
        self.trigger_backoff_base_s = 0.01
        # durability (DESIGN.md §8): the write-ahead audit journal, its
        # dead-letter companion, and the degraded-mode policy
        self.faults = fault_injector or NO_FAULTS
        self._journal = None
        self._dead_letter_journal = None
        self._audit_policy = "fail_open"
        self.audit_policy = audit_policy  # validates
        #: fail-open degradation events: audit work the engine could not
        #: make durable (site, error, sql, user)
        self.audit_gaps: list[dict] = []
        # journal sequence numbers whose firings completed in this
        # process — the dedup set for at-least-once recovery replay
        self._applied_seqs: set[int] = set()
        self._seq_lock = threading.Lock()
        # audit_trail_health() baseline set by acknowledge_audit_failures
        self._acknowledged_failures: dict[str, int] = {}
        # replication (DESIGN.md §13): a read-only engine refuses
        # depth-0 mutations (replicas mutate only through journal
        # replay); ``replicate_statements`` makes the journal a full
        # statement WAL by also appending 'statement' records for
        # depth-0 DML/DDL; ``intent_forwarder`` reroutes a replica's
        # SELECT-trigger firings to its primary
        self.read_only = read_only
        #: journal a 'statement' record for every depth-0 DML/DDL so
        #: replicas (and full-WAL recovery) can replay data, not just
        #: firings; off by default — it changes journal sequence layout
        self.replicate_statements = False
        #: callable(accessed, sql_text, user_id) a replica installs to
        #: ship firing intents to its primary instead of firing locally
        self.intent_forwarder: Callable[[dict, str, str], None] | None = None
        self._replication_local = threading.local()
        # DML statement records buffered during an explicit transaction;
        # flushed to the journal at COMMIT, dropped at ROLLBACK
        self._pending_statement_records: list[dict] = []
        if journal_path is not None:
            self.attach_journal(journal_path, fsync=journal_fsync)

    @property
    def join_strategy(self) -> str:
        """Join strategy knob: ``'auto'`` (cost-based), ``'hash'``, or
        ``'index-nl'`` (force apply-style index nested-loop joins)."""
        return self._optimizer.join_strategy

    @join_strategy.setter
    def join_strategy(self, strategy: str) -> None:
        self._optimizer.join_strategy = strategy

    @property
    def exec_mode(self) -> str:
        """Always ``"columnar"``, read-only: there is one executor.

        Exists for ``benchmarks/e2e/staged.py``, which passes it to
        ``collect_rows(mode=)``, and goes when a benchmark change drops
        that use.
        """
        return "columnar"

    # ------------------------------------------------------------------
    # concurrency: trigger pipeline and serving knobs

    @property
    def trigger_mode(self) -> str:
        """SELECT-trigger firing mode: ``'sync'`` or ``'async'``."""
        return self._trigger_mode

    @trigger_mode.setter
    def trigger_mode(self, mode: str) -> None:
        if mode not in ("sync", "async"):
            raise ValueError(
                f"trigger_mode must be 'sync' or 'async', got {mode!r}"
            )
        if mode == "sync":
            # pending deferred batches must land before sync firings can
            # interleave behind them, or the audit log loses its order
            self.drain_triggers()
        self._trigger_mode = mode

    @property
    def _trigger_depth(self) -> int:
        """Per-thread nesting depth of trigger-body statement execution."""
        return getattr(self._trigger_local, "depth", 0)

    def _pipeline(self) -> TriggerPipeline:
        pipeline = self._trigger_pipeline
        if pipeline is None:
            with self._pipeline_init_lock:
                pipeline = self._trigger_pipeline
                if pipeline is None:
                    pipeline = TriggerPipeline(
                        self._fire_trigger_batch,
                        capacity=self.trigger_queue_capacity,
                        retry_limit=self.trigger_retry_limit,
                        backoff_base_s=self.trigger_backoff_base_s,
                        dead_letter=self._spill_dead_letter,
                        faults=self.faults,
                    )
                    self._trigger_pipeline = pipeline
        return pipeline

    def drain_triggers(self) -> dict[str, int]:
        """Block until every deferred trigger batch has fired.

        Flush point for tests, shutdown, and audit-log readers in async
        mode; a no-op returning zeroed stats when nothing was deferred.
        """
        pipeline = self._trigger_pipeline
        if pipeline is None:
            return dict(EMPTY_STATS)
        pipeline.drain()
        return pipeline.stats()

    @property
    def trigger_errors(self) -> list:
        """(batch, exception) records of failed async trigger firings."""
        pipeline = self._trigger_pipeline
        if pipeline is None:
            return []
        return list(pipeline.errors)

    def close(self) -> None:
        """Shut the engine's background machinery down, in order.

        Ordering is the durability contract: the trigger pipeline is
        drained and stopped *first* (its firings append commit records),
        then the audit journal and its dead-letter companion are closed.
        Safe from a signal-handler path: idempotent, and concurrent
        callers serialize on an internal lock — the second caller blocks
        until the first close completes, then returns.
        """
        with self._close_lock:
            pipeline = self._trigger_pipeline
            if pipeline is not None:
                pipeline.close()
                self._trigger_pipeline = None
            if self._journal is not None:
                self._journal.close()
            if self._dead_letter_journal is not None:
                self._dead_letter_journal.close()

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ):
        """Start a network server over this database (not yet accepting
        until ``.start()`` — or use it as a context manager).

        Returns a :class:`repro.server.Server`; see that class for the
        admission/timeout/authentication knobs. The server's graceful
        shutdown closes this database (pipeline drain, then journal
        close) unless ``close_database=False`` is passed.
        """
        from repro.server import Server

        return Server(self, host=host, port=port, **kwargs)

    def serve_async(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ):
        """Like :meth:`serve`, but returns the asyncio front end.

        :class:`repro.server.AsyncServer` speaks the same wire protocol
        from one event loop: thousands of idle connections cost a file
        descriptor and a coroutine each, statements are pipelined per
        connection, and execution bridges onto this (threaded) engine
        through a bounded worker pool.
        """
        from repro.server import AsyncServer

        return AsyncServer(self, host=host, port=port, **kwargs)

    # ------------------------------------------------------------------
    # durability: the audit journal, policies, and recovery

    @property
    def audit_policy(self) -> str:
        """Degraded-mode policy when the audit trail cannot be made
        durable: ``'fail_closed'`` (queries raise
        :class:`AuditUnavailableError`) or ``'fail_open'`` (serve the
        results, record the gap in :attr:`audit_gaps`)."""
        return self._audit_policy

    @audit_policy.setter
    def audit_policy(self, policy: str) -> None:
        if policy not in ("fail_open", "fail_closed"):
            raise ValueError(
                "audit_policy must be 'fail_open' or 'fail_closed', "
                f"got {policy!r}"
            )
        self._audit_policy = policy

    @property
    def journal(self):
        """The attached :class:`~repro.durability.AuditJournal` (or None)."""
        return self._journal

    @property
    def dead_letter_journal(self):
        """The attached :class:`~repro.durability.DeadLetterJournal`
        (or None)."""
        return self._dead_letter_journal

    def attach_journal(self, path, fsync: str = "batch"):
        """Attach a write-ahead audit journal at directory ``path``.

        From this point every audited query appends an *intent* record
        before its results are returned and a *commit* record when its
        AFTER-timing trigger actions complete; permanently-failed async
        batches spill to ``<path>/dead-letter.jsonl``. Appending to an
        existing journal continues its sequence numbers.
        """
        from repro.durability import AuditJournal, DeadLetterJournal
        import pathlib

        if self._journal is not None:
            raise DurabilityError("an audit journal is already attached")
        self._journal = AuditJournal(path, fsync=fsync, faults=self.faults)
        self._dead_letter_journal = DeadLetterJournal(
            pathlib.Path(path) / "dead-letter.jsonl", faults=self.faults
        )
        return self._journal

    def recover(
        self,
        journal_path=None,
        strict: bool = True,
        apply_statements: bool = False,
    ):
        """Rebuild the audit trail from a journal after a crash.

        Scans the journal's segments (verifying every CRC; a torn final
        line is tolerated, interior corruption raises
        :class:`~repro.errors.JournalCorruptionError` unless
        ``strict=False``), then re-fires each intent's AFTER-timing
        trigger actions under the originating query's
        ``sql_text``/``user_id``. Delivery is at-least-once, deduplicated
        by journal sequence number — see
        :mod:`repro.durability.recovery`. The database must already hold
        the crashed instance's schema, audit expressions, and triggers.

        ``journal_path`` defaults to the attached journal's directory, so
        a database constructed with ``journal_path=...`` over a surviving
        journal recovers in place and keeps journaling into it. With
        ``apply_statements=True``, 'statement' records (written under
        ``replicate_statements``) are replayed too — a journal written
        that way rebuilds schema *and* data into a fresh database.
        Returns a :class:`~repro.durability.RecoveryReport`.
        """
        from repro.durability.recovery import recover_database

        path = journal_path
        if path is None:
            if self._journal is None:
                raise DurabilityError(
                    "no journal attached and no journal_path given"
                )
            path = self._journal.path
        return recover_database(
            self, path, strict=strict, apply_statements=apply_statements
        )

    def is_seq_applied(self, seq: int) -> bool:
        with self._seq_lock:
            return seq in self._applied_seqs

    def mark_seq_applied(self, seq: int, recovered: bool = False) -> None:
        """Record that intent ``seq``'s firing completed in this process.

        During recovery (``recovered=True``) a commit record is also
        journaled when a journal is attached, so post-crash verification
        tools see the replay.
        """
        with self._seq_lock:
            self._applied_seqs.add(seq)
        if recovered and self._journal is not None:
            try:
                self._journal.append(
                    "commit", {"intent": seq, "recovered": True}
                )
            except (DurabilityError, OSError) as error:
                self._note_gap("journal-commit", error)

    def audit_trail_health(self) -> dict[str, int]:
        """Unacknowledged audit-trail damage counters.

        Non-zero values mean the in-memory audit log may be missing
        disclosures; :class:`~repro.audit.logging.AuditLog` readers raise
        (``fail_closed``) or warn (``fail_open``) on them.
        """
        pipeline = self._trigger_pipeline
        stats = pipeline.stats() if pipeline is not None else EMPTY_STATS
        current = {
            "failed_batches": stats["failed"],
            "lost_batches": stats["lost"],
            "retried_batches": stats["retried"],
            "dead_letters": stats["dead_letter_count"],
            "audit_gaps": len(self.audit_gaps),
        }
        return {
            key: max(0, value - self._acknowledged_failures.get(key, 0))
            for key, value in current.items()
        }

    def acknowledge_audit_failures(self) -> dict[str, int]:
        """Mark current trail damage as handled by the admin.

        Returns the counters that were acknowledged; subsequent
        :meth:`audit_trail_health` calls report only *new* damage.
        """
        acknowledged = self.audit_trail_health()
        for key, value in acknowledged.items():
            self._acknowledged_failures[key] = (
                self._acknowledged_failures.get(key, 0) + value
            )
        return acknowledged

    # -- internal durability plumbing ----------------------------------

    def _journal_intent(self, accessed: dict) -> int | None:
        """Append the intent record for one query's ACCESSED state.

        Returns the sequence number, or None when no journal is attached
        or the append failed under ``fail_open`` (the gap is recorded);
        raises :class:`AuditUnavailableError` under ``fail_closed``.
        """
        journal = self._journal
        if journal is None:
            return None
        try:
            # encode_id raises DurabilityError on IDs that cannot be
            # journaled losslessly, feeding the same policy as a failed
            # disk write — a lossy stand-in would replay wrong IDs
            payload = {
                "accessed": {
                    name: [
                        encode_id(value)
                        for value in sorted(ids, key=repr)
                    ]
                    for name, ids in accessed.items()
                },
                "sql": self.session.sql_text,
                "user": self.session.user_id,
            }
            return journal.append("intent", payload)
        except (DurabilityError, OSError) as error:
            self._record_audit_gap("journal-intent", error)
            return None

    def _journal_commit(self, seq: int | None) -> None:
        """Append the commit record matching intent ``seq`` (if any)."""
        if seq is None:
            return
        self.mark_seq_applied(seq)
        journal = self._journal
        if journal is None:
            return
        try:
            journal.append("commit", {"intent": seq})
        except (DurabilityError, OSError) as error:
            self._record_audit_gap("journal-commit", error)

    def _record_audit_gap(self, site: str, error: BaseException) -> None:
        """Apply the degraded-mode policy to one durability failure."""
        if self._audit_policy == "fail_closed":
            raise AuditUnavailableError(
                f"audit trail unavailable at {site}: {error}"
            ) from error
        self._note_gap(site, error)

    def _note_gap(self, site: str, error: BaseException) -> None:
        self.audit_gaps.append({
            "site": site,
            "error": repr(error),
            "sql": self.session.sql_text,
            "user": self.session.user_id,
        })

    def _spill_dead_letter(self, batch, error, reason, attempts) -> None:
        """Pipeline dead-letter sink: durable when a journal is attached."""
        journal = self._dead_letter_journal
        if journal is None:
            return
        try:
            journal.spill(batch, error, reason=reason, attempts=attempts)
        except (DurabilityError, OSError) as spill_error:
            # the pipeline swallows sink exceptions (a worker must not
            # die over bookkeeping), so a failed spill would otherwise
            # vanish — record it as trail damage
            self._note_gap("dead-letter-spill", spill_error)

    # ------------------------------------------------------------------
    # replication (DESIGN.md §13)

    @property
    def replaying(self) -> bool:
        """True while this thread is applying replicated journal records."""
        return getattr(self._replication_local, "applying", False)

    @contextmanager
    def replication_apply(self):
        """Mark this thread as applying the primary's journal stream.

        Inside the context, depth-0 statements bypass the read-only
        check (replay is the one legitimate mutation path on a replica)
        and suppress their own trigger dispatch — the stream carries the
        primary's intent records, which are replayed separately, so
        re-firing or re-forwarding here would double the audit trail.
        """
        previous = getattr(self._replication_local, "applying", False)
        self._replication_local.applying = True
        try:
            yield self
        finally:
            self._replication_local.applying = previous

    def apply_forwarded_intent(
        self, accessed: dict, sql_text: str, user_id: str
    ) -> int | None:
        """Journal and fire a replica-computed ACCESSED set (primary side).

        The replica ran the SELECT and computed what it disclosed; the
        primary owns the audit trail, so the intent is journaled and the
        AFTER-timing actions fire *here*, under the originating query's
        ``sql_text``/``user_id`` — attribution is identical to a
        single-node run. Returns the intent's journal sequence number.

        Replicas forward unconditionally (their trigger catalog may lag
        this primary's DDL), so the no-AFTER-trigger check lives here,
        against the authoritative catalog: with nothing armed, a
        single-node run would neither journal nor fire, and neither
        does the forwarded intent.
        """
        if not self.trigger_manager.has_select_triggers("after"):
            return None
        with self.session.override(sql_text, user_id):
            seq = self._journal_intent(accessed)
            self._fire_accessed(accessed, timing="after")
            self._journal_commit(seq)
        return seq

    def replication_token(self) -> int | None:
        """Read-your-writes token: the journal position after your write.

        A replica has caught up to this write once it has applied every
        record below the token (``ReplicaDatabase.wait_for(token)``).
        None when no journal is attached (nothing to wait for).
        """
        journal = self._journal
        if journal is None:
            return None
        return journal.next_seq

    def _journal_statement(
        self,
        statement: ast.Statement,
        source_sql: str,
        parameters: dict[str, object] | None,
    ) -> None:
        """Append (or buffer) one statement-replication record.

        Runs with the engine write lock held, right after the statement
        succeeded. DML inside an explicit transaction is buffered and
        flushed at COMMIT (dropped at ROLLBACK) so replicas never apply
        rolled-back changes; DDL is journaled immediately — it is not
        undo-logged, so it survives ROLLBACK and replicas must apply it
        regardless of the enclosing transaction's fate.
        """
        if isinstance(statement, ast.TransactionStatement):
            if statement.action == "commit":
                pending = self._pending_statement_records
                self._pending_statement_records = []
                for payload in pending:
                    self._append_statement_record(payload)
            elif statement.action == "rollback":
                self._pending_statement_records = []
            return
        if isinstance(
            statement,
            (ast.IfStatement, ast.NotifyStatement, ast.DenyStatement),
        ):
            return  # trigger-body constructs; never top-level state
        payload: dict = {
            "sql": source_sql,
            "user": self.session.user_id,
        }
        if parameters:
            try:
                payload["params"] = {
                    name: encode_id(value)
                    for name, value in parameters.items()
                }
            except DurabilityError as error:
                self._record_audit_gap("journal-statement", error)
                return
        is_dml = isinstance(
            statement,
            (ast.InsertStatement, ast.UpdateStatement, ast.DeleteStatement),
        )
        if is_dml and self._in_explicit_transaction:
            self._pending_statement_records.append(payload)
            return
        self._append_statement_record(payload)

    def _append_statement_record(self, payload: dict) -> None:
        try:
            self._journal.append("statement", payload)
        except (DurabilityError, OSError) as error:
            self._record_audit_gap("journal-statement", error)

    # ------------------------------------------------------------------
    # public execution API

    def execute(
        self,
        sql: str,
        parameters: dict[str, object] | None = None,
    ) -> QueryResult:
        """Parse and execute one SQL statement (plan-cache aware)."""
        text = sql.strip()
        if self._trigger_depth == 0:
            self.session.sql_text = text
        template, entry = self.plan_cache.match(
            sql, self._plan_cache_tags()
        )
        if entry is not None:
            # warm hit: skip parsing, binding, rewriting, audit placement,
            # and physical planning entirely
            return self._run_select(
                entry.column_names, entry.physical,
                template.bind(parameters), None,
            )
        return self._execute_statement(
            template.parse(), template.bind(parameters),
            sql_key=template.key, source_sql=text,
        )

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a semicolon-separated script; returns per-statement results."""
        results = []
        for statement, text in parse_statements_with_text(sql):
            results.append(
                self._execute_statement(statement, None, source_sql=text)
            )
        return results

    def explain(self, sql: str, parameters: dict[str, object] | None = None
                ) -> str:
        """Logical (instrumented) and physical plan of a SELECT, as text."""
        from repro.plan.logical import format_plan
        from repro.exec.operators.base import format_physical

        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedSqlError("EXPLAIN supports only SELECT")
        with self._engine_lock.read():
            logical = self._optimizer.optimize_logical(
                self._builder.build_select(statement),
                instrument=self._instrument_hook(),
            )
            physical = self._optimizer.compile(logical)
        return (
            "-- logical --\n"
            + format_plan(logical)
            + "\n-- physical --\n"
            + format_physical(physical)
        )

    # ------------------------------------------------------------------
    # engine services used by the audit / trigger subsystems

    def make_context(
        self,
        parameters: dict[str, object] | None = None,
        base_outer_rows: tuple[tuple, ...] = (),
        tombstones: dict[str, set] | None = None,
    ) -> ExecutionContext:
        context = ExecutionContext(
            session=self.session,
            parameters=parameters,
            compile_subquery=self._optimizer.compile,
            base_outer_rows=base_outer_rows,
        )
        if tombstones:
            context.tombstones = tombstones
        context.data_skipping = self.skipping
        return context

    def plan_query(
        self, sql: str, parameters: dict[str, object] | None = None
    ) -> LogicalPlan:
        """Rewritten (uninstrumented) logical plan of a SELECT."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedSqlError("plan_query supports only SELECT")
        with self._engine_lock.read():
            return self._optimizer.optimize_logical(
                self._builder.build_select(statement)
            )

    def offline_audit(
        self,
        sql: str,
        audit_expression: str,
        parameters: dict[str, object] | None = None,
    ) -> set:
        """Exact accessed-ID set of ``audit_expression`` for one query.

        Runs the offline auditor (Definition 2.3 ground truth) under the
        ``offline_audit_mode`` / ``offline_audit_workers`` knobs, reusing
        one auditor instance so compiled audit plans persist across
        calls. The instance is exposed as :attr:`offline_auditor` for
        telemetry (``last_mode``, ``last_deletion_runs``, ...).
        """
        return self.offline_auditor.audit(sql, audit_expression, parameters)

    @property
    def offline_auditor(self):
        """The database's shared :class:`~repro.audit.offline.OfflineAuditor`."""
        if self._offline_auditor is None:
            from repro.audit.offline import OfflineAuditor

            self._offline_auditor = OfflineAuditor(self)
        return self._offline_auditor

    def run_physical(
        self,
        physical: PhysicalOperator,
        parameters: dict[str, object] | None = None,
        tombstones: dict[str, set] | None = None,
    ) -> QueryResult:
        """Run a compiled plan without trigger side effects (auditor use)."""
        context = self.make_context(parameters, tombstones=tombstones)
        with self._engine_lock.read():
            rows = collect_rows(physical, context)
        return QueryResult(
            rows=rows,
            accessed={
                name: frozenset(ids)
                for name, ids in context.accessed.items()
            },
            rowcount=len(rows),
        )

    def execute_trigger_statement(
        self,
        statement: ast.Statement,
        scope_columns: tuple[PlanColumn, ...] | None = None,
        pseudo_row: tuple | None = None,
    ) -> QueryResult:
        """Execute one trigger-body statement (NEW/OLD row optional)."""
        self._trigger_local.depth = self._trigger_depth + 1
        try:
            return self._execute_statement(
                statement,
                None,
                scope_columns=scope_columns,
                pseudo_row=pseudo_row,
            )
        finally:
            self._trigger_local.depth = self._trigger_depth - 1

    # ------------------------------------------------------------------
    # statement dispatch

    def _execute_statement(
        self,
        statement: ast.Statement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None = None,
        pseudo_row: tuple | None = None,
        sql_key: str | None = None,
        source_sql: str | None = None,
    ) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            # SELECTs run under the shared (read) side of the engine
            # lock, acquired inside the select path so trigger firing
            # can happen after the lock is released
            return self._execute_select(
                statement, parameters, scope_columns, pseudo_row,
                sql_key=sql_key,
            )
        if (
            self.read_only
            and self._trigger_depth == 0
            and not self.replaying
        ):
            # trigger-body DML (depth > 0) and journal replay still
            # mutate: the replica's audit-log tables are rebuilt through
            # exactly those two paths
            raise ReadOnlyReplicaError(
                f"{type(statement).__name__} refused: this engine is a "
                "read-only replica (writes go to the primary)"
            )
        # every other statement mutates engine state (tables, catalog,
        # audit configuration, transaction scope): exclusive write side.
        # Reentrant: trigger bodies and cascades already hold it.
        with self._engine_lock.write():
            result = self._execute_write_statement(
                statement, parameters, scope_columns, pseudo_row
            )
            if (
                self.replicate_statements
                and self._journal is not None
                and self._trigger_depth == 0
                and source_sql is not None
                and not self.replaying
            ):
                # append while still holding the write lock, so journal
                # order is apply order and replicas replay a serial
                # history equivalent to the primary's
                self._journal_statement(statement, source_sql, parameters)
            return result

    def _execute_write_statement(
        self,
        statement: ast.Statement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None = None,
        pseudo_row: tuple | None = None,
    ) -> QueryResult:
        if isinstance(statement, ast.InsertStatement):
            return self._atomic_dml(
                lambda: self._execute_insert(
                    statement, parameters, scope_columns, pseudo_row
                )
            )
        if isinstance(statement, ast.UpdateStatement):
            return self._atomic_dml(
                lambda: self._execute_update(statement, parameters)
            )
        if isinstance(statement, ast.DeleteStatement):
            return self._atomic_dml(
                lambda: self._execute_delete(statement, parameters)
            )
        if isinstance(statement, ast.TransactionStatement):
            return self._execute_transaction_control(statement)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndexStatement):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.DropTableStatement):
            self._check_drop_table_dependencies(statement.name)
            self.catalog.drop_table(statement.name)
            return QueryResult()
        if isinstance(statement, ast.AnalyzeStatement):
            return self._execute_analyze(statement)
        if isinstance(statement, ast.CreateAuditExpressionStatement):
            self.audit_manager.create_expression(statement)
            return QueryResult()
        if isinstance(statement, ast.DropAuditExpressionStatement):
            self.audit_manager.drop_expression(statement.name)
            return QueryResult()
        if isinstance(statement, ast.CreateSelectTriggerStatement):
            self.trigger_manager.add_select_trigger(
                SelectTrigger(
                    statement.name.lower(),
                    statement.audit_expression.lower(),
                    statement.body,
                    statement.timing,
                )
            )
            return QueryResult()
        if isinstance(statement, ast.CreateDmlTriggerStatement):
            self.trigger_manager.add_dml_trigger(
                DmlTrigger(
                    statement.name.lower(),
                    statement.table.lower(),
                    statement.event,
                    statement.body,
                )
            )
            return QueryResult()
        if isinstance(statement, ast.DropTriggerStatement):
            self.trigger_manager.drop_trigger(statement.name)
            return QueryResult()
        if isinstance(statement, ast.IfStatement):
            return self._execute_if(
                statement, parameters, scope_columns, pseudo_row
            )
        if isinstance(statement, ast.NotifyStatement):
            return self._execute_notify(
                statement, parameters, scope_columns, pseudo_row
            )
        if isinstance(statement, ast.DenyStatement):
            return self._execute_deny(
                statement, parameters, scope_columns, pseudo_row
            )
        raise UnsupportedSqlError(
            f"cannot execute {type(statement).__name__}"
        )

    # ------------------------------------------------------------------
    # SELECT

    def _instrument_hook(self):
        if not self.audit_enabled:
            return None
        if not self.audit_manager.expressions():
            return None
        return self.audit_manager.instrument

    def _plan_cache_tags(self) -> tuple:
        """Version tags a cached plan must match to stay servable.

        Catalog DDL version and audit configuration version cover CREATE /
        DROP of tables, indexes, triggers, and audit expressions; the
        statistics epoch covers DML that materially moves cardinalities
        (a plan costed against an empty table must not survive a bulk
        load); the knob values cover instrumentation and physical-planning
        choices baked into the compiled tree.
        """
        return (
            self.catalog.version,
            self.catalog.refresh_stats_version(),
            self.audit_manager.config_version,
            self.audit_enabled,
            self.audit_manager.heuristic,
            self.join_strategy,
            self._optimizer.join_reorder,
        )

    def _execute_select(
        self,
        statement: ast.SelectStatement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None = None,
        pseudo_row: tuple | None = None,
        sql_key: str | None = None,
    ) -> QueryResult:
        # compile under the read side: binding and planning read the
        # catalog, statistics, and audit configuration
        with self._engine_lock.read():
            entry = self.trigger_manager.firing.plan(
                statement,
                lambda: self._compile_select(statement, scope_columns),
            )
            # Top-level SELECTs are cacheable; DML-trigger body selects
            # see NEW/OLD pseudo-rows through their scope and are
            # compiled fresh each time.
            if sql_key is not None and scope_columns is None \
                    and pseudo_row is None:
                entry.sql = sql_key
                entry.tags = self._plan_cache_tags()
                self.plan_cache.store(entry)
        return self._run_select(
            entry.column_names, entry.physical, parameters, pseudo_row
        )

    def _compile_select(
        self, statement: ast.SelectStatement,
        scope_columns: tuple[PlanColumn, ...] | None,
    ) -> CachedPlan:
        """Bind, rewrite, instrument and compile one SELECT (untagged)."""
        outer_scope = Scope(scope_columns) if scope_columns else None
        logical = self._builder.build_select(statement, outer_scope)
        column_names = tuple(column.name for column in logical.columns)
        logical = self._optimizer.optimize_logical(
            logical, instrument=self._instrument_hook()
        )
        return CachedPlan(
            column_names, logical, self._optimizer.compile(logical)
        )

    def _run_select(
        self,
        column_names: tuple[str, ...],
        physical: PhysicalOperator,
        parameters: dict[str, object] | None,
        pseudo_row: tuple | None,
    ) -> QueryResult:
        base_rows = (pseudo_row,) if pseudo_row is not None else ()
        context = self.make_context(parameters, base_outer_rows=base_rows)
        try:
            # snapshot execution: N threads share the read side; the
            # lock is released *before* trigger firing, which needs the
            # write side for the actions' audit-log INSERTs
            with self._engine_lock.read():
                rows = collect_rows(physical, context)
        except BaseException:
            # §II: the (AFTER) action executes even if the query aborts,
            # to account for readers that consume a prefix of the result
            self._dispatch_after_triggers(context)
            raise
        # BEFORE-timing triggers gate the results: a DENY action raises
        # AccessDeniedError and the rows never reach the caller — but the
        # AFTER-timing audit actions still record the (attempted) access.
        # BEFORE actions run synchronously in every trigger mode. During
        # journal replay the depth-0 gate is skipped: the primary already
        # adjudicated this statement, and a replayed DENY would wedge the
        # replica's apply loop.
        try:
            if not (self.replaying and self._trigger_depth == 0):
                self._fire_accessed(context.accessed, timing="before")
        finally:
            self._dispatch_after_triggers(context)
        return QueryResult(
            columns=column_names,
            rows=rows,
            accessed={
                name: frozenset(ids)
                for name, ids in context.accessed.items()
            },
            rowcount=len(rows),
        )

    def _dispatch_after_triggers(self, context: ExecutionContext) -> None:
        """Fire or defer the AFTER-timing SELECT triggers of one query.

        With a journal attached, the query's *intent* is journaled here —
        synchronously, before ``execute`` returns its results — so a
        firing lost anywhere downstream (a crash, a dead pipeline worker,
        an exhausted retry budget) is detectable and replayable.
        """
        accessed = context.accessed
        if not accessed:
            return
        if self.replaying and self._trigger_depth == 0:
            # journal replay: the stream carries this statement's own
            # intent record (replayed separately), so journaling,
            # forwarding, or firing here would double the trail. Depth>0
            # cascades still dispatch — they are part of an intent
            # replay already in progress.
            return
        has_after = self.trigger_manager.has_select_triggers("after")
        if self.intent_forwarder is not None and self._trigger_depth == 0:
            # replica path: ACCESSED was computed here, but the firing
            # belongs to the primary — it journals the intent and runs
            # the actions under this query's attribution, and the
            # journal stream loops the result back to every replica.
            # Forwarding is NOT gated on this replica's trigger catalog:
            # between the primary running CREATE TRIGGER and this
            # replica applying that DDL record, the local catalog lags,
            # and skipping here would silently drop evidence the
            # primary's triggers should have recorded. The primary's
            # apply_forwarded_intent consults *its* catalog — the truth
            # — and no-ops when no AFTER trigger is armed.
            try:
                self.intent_forwarder(
                    {
                        name: frozenset(ids)
                        for name, ids in accessed.items()
                    },
                    self.session.sql_text,
                    self.session.user_id,
                )
            except (ReproError, OSError) as error:
                # fail_closed: refuse the rows rather than serve an
                # unattributable disclosure; fail_open: record the gap
                self._record_audit_gap("intent-forward", error)
            return
        seq = None
        if has_after and self._trigger_depth == 0:
            # cascaded firings (depth > 0) are part of their parent
            # intent; journaling them too would double-replay cascades
            seq = self._journal_intent(accessed)
        if (
            self._trigger_mode == "async"
            and self._trigger_depth == 0
            and has_after
        ):
            # capture ACCESSED plus the metadata the actions read
            # (sql_text() / user_id()); blocks when the queue is full —
            # backpressure instead of dropped audit records. Cascaded
            # firings (depth > 0) stay synchronous so the pipeline
            # worker never deadlocks submitting to its own queue.
            batch = TriggerBatch(
                accessed={
                    name: frozenset(ids)
                    for name, ids in accessed.items()
                },
                sql_text=self.session.sql_text,
                user_id=self.session.user_id,
                journal_seq=seq,
            )
            try:
                self._pipeline().submit(batch)
            except PipelineClosedError as error:
                if self._audit_policy == "fail_closed":
                    raise AuditUnavailableError(
                        "trigger pipeline is closed; the access cannot "
                        "be audited asynchronously"
                    ) from error
                # fail_open degraded mode: fire on the caller's thread so
                # the trail stays complete; note the degradation
                self._note_gap("pipeline-closed", error)
                self._fire_accessed(accessed, timing="after")
                self._journal_commit(seq)
            return
        self._fire_accessed(accessed, timing="after")
        self._journal_commit(seq)

    def _fire_trigger_batch(self, batch: TriggerBatch) -> None:
        """Pipeline-worker entry: fire one deferred batch's actions."""
        with self.session.override(batch.sql_text, batch.user_id):
            self._fire_accessed(batch.accessed, timing="after")
        # the firing succeeded: a commit-append failure must NOT bubble
        # into the pipeline's retry loop (re-firing would duplicate the
        # audit rows) — record it as a gap instead, whatever the policy
        try:
            self._journal_commit(batch.journal_seq)
        except AuditUnavailableError as error:
            self._note_gap("journal-commit", error)

    def _fire_accessed(self, accessed: dict, timing: str) -> None:
        if not accessed:
            return
        if not self.trigger_manager.has_select_triggers(timing):
            return
        self.faults.fire("trigger-action")
        # trigger actions mutate state (audit-log INSERTs, the transient
        # ``accessed`` relation): exclusive write side
        with self._engine_lock.write():
            # §II-C: the action executes as its own *system transaction*
            # — its writes commit independently of any enclosing user
            # transaction (a later ROLLBACK must not erase the audit
            # trail)
            previous_undo = self._active_undo
            self._active_undo = None
            try:
                self.trigger_manager.fire_select_triggers(accessed, timing)
            finally:
                self._active_undo = previous_undo

    # ------------------------------------------------------------------
    # transactions

    def _record_change(self, change) -> None:
        """Table observer feeding the active undo log."""
        if self._active_undo is not None:
            self._active_undo.record(change)

    def _atomic_dml(self, action) -> QueryResult:
        """Run a DML statement atomically.

        Inside an explicit transaction the statement rolls back to its own
        savepoint on failure (the transaction stays open); in autocommit a
        fresh per-statement undo scope is created and dropped.
        """
        from repro.storage.undo import UndoLog

        created_scope = self._active_undo is None
        if created_scope:
            self._active_undo = UndoLog(self.catalog)
        savepoint = self._active_undo.savepoint()
        try:
            return action()
        except BaseException:
            self._active_undo.rollback(savepoint)
            raise
        finally:
            if created_scope:
                self._active_undo = None

    def _execute_transaction_control(
        self, statement: ast.TransactionStatement
    ) -> QueryResult:
        from repro.errors import TransactionError
        from repro.storage.undo import UndoLog

        if statement.action == "begin":
            if self._in_explicit_transaction:
                raise TransactionError("a transaction is already open")
            self._active_undo = UndoLog(self.catalog)
            self._in_explicit_transaction = True
            return QueryResult()
        if not self._in_explicit_transaction:
            raise TransactionError(
                f"{statement.action.upper()} without an open transaction"
            )
        if statement.action == "rollback":
            assert self._active_undo is not None
            undone = self._active_undo.rollback(0)
            self._active_undo = None
            self._in_explicit_transaction = False
            return QueryResult(rowcount=undone)
        # commit: the changes are already applied; drop the undo log
        self._active_undo = None
        self._in_explicit_transaction = False
        return QueryResult()

    def transaction(self):
        """Context manager: BEGIN on entry, COMMIT on clean exit,
        ROLLBACK when the body raises."""
        database = self

        class _Transaction:
            def __enter__(self):
                database.execute("BEGIN")
                return database

            def __exit__(self, exc_type, exc, traceback) -> bool:
                if database._in_explicit_transaction:
                    database.execute(
                        "ROLLBACK" if exc_type is not None else "COMMIT"
                    )
                return False

        return _Transaction()

    @property
    def in_transaction(self) -> bool:
        return self._in_explicit_transaction

    # ------------------------------------------------------------------
    # DML

    def _execute_insert(
        self,
        statement: ast.InsertStatement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None = None,
        pseudo_row: tuple | None = None,
    ) -> QueryResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        if statement.select is not None:
            source = self._execute_select(
                statement.select, parameters, scope_columns, pseudo_row
            )
            value_rows: Iterable[tuple] = source.rows
        else:
            outer_scope = Scope(scope_columns) if scope_columns else None
            base_rows = (pseudo_row,) if pseudo_row is not None else ()
            context = self.make_context(parameters, base_outer_rows=base_rows)
            scope = outer_scope or Scope(())
            value_rows = [
                tuple(
                    evaluate(
                        self._builder.bind_expression(expression, scope),
                        pseudo_row or (),
                        context,
                    )
                    for expression in row
                )
                for row in statement.rows
            ]
        count = 0
        for values in value_rows:
            full_row = self._arrange_insert_row(schema, statement.columns, values)
            self._check_foreign_keys(schema, full_row)
            table.insert(full_row)
            count += 1
        return QueryResult(rowcount=count)

    def _arrange_insert_row(
        self,
        schema: TableSchema,
        columns: tuple[str, ...],
        values: tuple,
    ) -> tuple:
        if not columns:
            if len(values) != len(schema.columns):
                raise ExecutionError(
                    f"INSERT supplies {len(values)} values but table "
                    f"{schema.name!r} has {len(schema.columns)} columns"
                )
            return tuple(values)
        if len(columns) != len(values):
            raise ExecutionError(
                "INSERT column list and VALUES length differ"
            )
        row: list[object] = [None] * len(schema.columns)
        for name, value in zip(columns, values):
            row[schema.position_of(name)] = value
        return tuple(row)

    def _check_foreign_keys(self, schema: TableSchema, row: tuple) -> None:
        for foreign_key in schema.foreign_keys:
            values = tuple(
                row[schema.position_of(column)]
                for column in foreign_key.columns
            )
            if any(value is None for value in values):
                continue
            try:
                referenced = self.catalog.table(foreign_key.ref_table)
            except CatalogError:
                continue
            ref_columns = foreign_key.ref_columns or \
                referenced.schema.primary_key
            if tuple(ref_columns) != tuple(referenced.schema.primary_key):
                continue  # only PK-backed foreign keys are checked
            if referenced.lookup_pk(values) is None:
                raise ConstraintError(
                    f"foreign key violation: {schema.name}."
                    f"{foreign_key.columns} = {values!r} has no match in "
                    f"{foreign_key.ref_table}"
                )

    def _table_scope(self, table: Table) -> Scope:
        columns = tuple(
            PlanColumn(
                column.name,
                table.schema.name,
                (table.schema.name, column.name),
            )
            for column in table.schema.columns
        )
        return Scope(columns)

    def _execute_update(
        self,
        statement: ast.UpdateStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        table = self.catalog.table(statement.table)
        scope = self._table_scope(table)
        predicate = (
            self._builder.bind_expression(statement.where, scope)
            if statement.where is not None
            else None
        )
        assignments = [
            (
                table.schema.position_of(column),
                self._builder.bind_expression(expression, scope),
            )
            for column, expression in statement.assignments
        ]
        context = self.make_context(parameters)
        pending: list[tuple[int, tuple]] = []
        for rid, row in table.rows_with_rids():
            if predicate is not None and evaluate(
                predicate, row, context
            ) is not True:
                continue
            new_row = list(row)
            for position, expression in assignments:
                new_row[position] = evaluate(expression, row, context)
            pending.append((rid, tuple(new_row)))
        for rid, new_row in pending:
            table.update_rid(rid, new_row)
        return QueryResult(rowcount=len(pending))

    def _execute_delete(
        self,
        statement: ast.DeleteStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        table = self.catalog.table(statement.table)
        scope = self._table_scope(table)
        predicate = (
            self._builder.bind_expression(statement.where, scope)
            if statement.where is not None
            else None
        )
        context = self.make_context(parameters)
        doomed = [
            rid
            for rid, row in table.rows_with_rids()
            if predicate is None
            or evaluate(predicate, row, context) is True
        ]
        for rid in doomed:
            table.delete_rid(rid)
        return QueryResult(rowcount=len(doomed))

    # ------------------------------------------------------------------
    # DDL

    def _execute_create_table(
        self, statement: ast.CreateTableStatement
    ) -> QueryResult:
        columns = tuple(
            Column(
                definition.name,
                type_from_name(definition.type_name),
                nullable=not definition.not_null,
            )
            for definition in statement.columns
        )
        foreign_keys = tuple(
            ForeignKey(local, ref_table.lower(), refs)
            for local, ref_table, refs in statement.foreign_keys
        )
        schema = TableSchema(
            name=statement.name.lower(),
            columns=columns,
            primary_key=statement.primary_key,
            foreign_keys=foreign_keys,
        )
        table = Table(schema, block_capacity=self.block_size)
        self.catalog.add_table(table)
        table.add_observer(self._record_change)  # transaction undo feed
        if len(schema.primary_key) >= 1:
            # clustered-index companion: a secondary ordered index on the
            # PK so the planner can seek by key (the paper's partition-by
            # keys coincide with the clustered index, §IV-A.1)
            index_name = f"{schema.name}_pk"
            table.create_secondary_index(index_name, schema.primary_key)
            self.catalog.add_index(
                IndexDefinition(
                    index_name, schema.name, schema.primary_key, unique=True
                )
            )
        return QueryResult()

    def _check_drop_table_dependencies(self, table_name: str) -> None:
        """Refuse to drop a table that auditing objects still reference."""
        from repro.audit.expression import _referenced_tables
        from repro.triggers.definitions import DmlTrigger

        key = table_name.lower()
        for expression in self.audit_manager.expressions():
            if key in _referenced_tables(expression.select):
                raise CatalogError(
                    f"cannot drop table {table_name!r}: audit expression "
                    f"{expression.name!r} references it "
                    "(drop the expression first)"
                )
        for trigger in self.catalog.triggers():
            if isinstance(trigger, DmlTrigger) and trigger.table == key:
                raise CatalogError(
                    f"cannot drop table {table_name!r}: trigger "
                    f"{trigger.name!r} is defined on it"
                )

    def _execute_create_index(
        self, statement: ast.CreateIndexStatement
    ) -> QueryResult:
        table = self.catalog.table(statement.table)
        table.create_secondary_index(
            statement.name.lower(), statement.columns,
            unique=statement.unique,
        )
        self.catalog.add_index(
            IndexDefinition(
                statement.name.lower(),
                statement.table.lower(),
                statement.columns,
                statement.unique,
            )
        )
        return QueryResult()

    def _execute_analyze(self, statement: ast.AnalyzeStatement) -> QueryResult:
        if statement.table is not None:
            self.catalog.statistics(statement.table)
        else:
            for table in self.catalog.tables():
                self.catalog.statistics(table.schema.name)
        # fresh statistics can change cost-based plan choices, so cached
        # physical plans may no longer be the ones the planner would pick
        self.plan_cache.clear()
        return QueryResult()

    # ------------------------------------------------------------------
    # trigger-body statements

    def _execute_if(
        self,
        statement: ast.IfStatement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None,
        pseudo_row: tuple | None,
    ) -> QueryResult:
        scope = Scope(scope_columns or ())
        condition = self._builder.bind_expression(statement.condition, scope)
        context = self.make_context(parameters)
        row = pseudo_row or ()
        if evaluate(condition, row, context) is True:
            return self._execute_statement(
                statement.then, parameters, scope_columns, pseudo_row
            )
        return QueryResult()

    def _execute_notify(
        self,
        statement: ast.NotifyStatement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None,
        pseudo_row: tuple | None,
    ) -> QueryResult:
        message = "notification"
        if statement.message is not None:
            scope = Scope(scope_columns or ())
            bound = self._builder.bind_expression(statement.message, scope)
            context = self.make_context(parameters)
            value = evaluate(bound, pseudo_row or (), context)
            message = str(value)
        self.notifications.append(message)
        return QueryResult()

    def _execute_deny(
        self,
        statement: ast.DenyStatement,
        parameters: dict[str, object] | None,
        scope_columns: tuple[PlanColumn, ...] | None,
        pseudo_row: tuple | None,
    ) -> QueryResult:
        from repro.errors import AccessDeniedError

        message = "access denied by SELECT trigger"
        if statement.message is not None:
            scope = Scope(scope_columns or ())
            bound = self._builder.bind_expression(statement.message, scope)
            context = self.make_context(parameters)
            message = str(evaluate(bound, pseudo_row or (), context))
        raise AccessDeniedError(message)

    # ------------------------------------------------------------------
    # audit support

    def _materialize_ids(self, expression) -> set:
        """Execute an audit expression's ID select (view materialization)."""
        statement = expression.id_select()
        with self._engine_lock.read():
            logical = self._builder.build_select(statement)
            logical = self._optimizer.optimize_logical(logical)
            physical = self._optimizer.compile(logical)
            context = self.make_context()
            return {
                row[0]
                for row in collect_rows(physical, context)
                if row[0] is not None
            }


def connect(**kwargs) -> Database:
    """Convenience constructor mirroring DB-API style."""
    return Database(**kwargs)


__all__ = ["Database", "QueryResult", "connect"]
