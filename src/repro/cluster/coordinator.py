"""The cluster coordinator: a :class:`ClusterDatabase` facade over shards.

``ClusterDatabase`` owns N embedded :class:`~repro.database.Database`
shards (thread-backed; the shard boundary is expressed through plan
fragments, per-shard journals, and per-shard locks, so a subprocess
backend can slot in behind the same seams) and exposes the single-node
surface: ``execute`` / ``execute_script`` / ``offline_audit`` /
``attach_journal`` / ``recover`` / ``serve`` / ``transaction``.

Execution model (DESIGN.md §11):

* **compile once** — statements are parsed, bound, rewritten, and audit-
  instrumented against shard 0 (all shards share one catalog history,
  since DDL broadcasts), then split by :func:`repro.cluster.fragments.
  split_plan` into a shard fragment plus a coordinator merge stage;
* **scatter** — the fragment is compiled per shard against that shard's
  tables and ID views and executed shard after shard on the caller's
  thread (pure-Python fragments would not overlap under the GIL, and
  during trigger firing the caller holds every shard's write lock);
* **gather** — per-shard rows are concatenated in shard order,
  per-shard ACCESSED sets are unioned, and the merge stage (which
  re-sorts an ORDER BY) runs over a ``Gather`` leaf at the coordinator;
* **one trigger runtime** — SELECT triggers fire exactly once, at the
  coordinator, with ``accessed`` bound on every shard to one shared
  row list (a ``Gather`` leaf the fragment split treats as replicated)
  and body statements routed back through the coordinator (so their DML
  broadcasts and their SELECTs scatter like any other statement);
  per-shard audit journals record each shard's owned slice of the
  intent, and recovery replays per-shard journals through the same
  coordinator firing path, preserving per-user attribution.

Routing: DML on a partitioned table goes to the owning shard(s) by
partition key; everything else broadcasts (replicated tables) or runs on
shard 0 (reads of replicated data). Statements the coordinator cannot
route soundly raise :class:`~repro.errors.ClusterRoutingError` rather
than silently diverging from single-node semantics.

Fault tolerance (DESIGN.md §12): every scatter fragment runs under its
own optional deadline, checked at cooperative checkpoints; transient
(non-deterministic) fragment failures retry with jittered exponential
backoff; a per-shard circuit breaker (:class:`~repro.cluster.health.
HealthTracker`) quarantines shards that keep failing or die outright.
Reads over a quarantined shard either degrade (``fail_open`` +
``degraded_reads``: partial results from live shards, one audit gap per
skipped shard) or refuse with :class:`~repro.errors.
ClusterDegradedError`; DML that needs a quarantined shard always
refuses; :meth:`ClusterDatabase.rejoin_shard` repairs and readmits a
shard online, replaying its journal through the PR-4 recovery path.
"""

from __future__ import annotations

import json
import pathlib
import random
import threading
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass

from repro.audit.offline import deletion_test
from repro.audit.placement import HEURISTIC_HCN
from repro.cluster.fragments import check_routable, split_plan
from repro.cluster.health import HealthTracker, backoff_delay
from repro.cluster.topology import Topology, shard_of
from repro.concurrency import (
    EMPTY_STATS,
    DeadlineToken,
    interruptible_sleep,
)
from repro.database import Database, QueryResult
from repro.errors import (
    AccessDeniedError,
    ClusterDegradedError,
    ClusterError,
    ClusterRoutingError,
    DurabilityError,
    OperationCancelledError,
    ReproError,
    ShardTimeoutError,
    TriggerError,
    UnsupportedSqlError,
)
from repro.exec.context import ExecutionContext, Session
from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.expr.evaluator import evaluate
from repro.expr.nodes import Literal, SubqueryExpression
from repro.optimizer.physical import PhysicalPlanner
from repro.plan.builder import Scope
from repro.plan.logical import format_plan
from repro.plancache import PlanCache
from repro.sql import ast
from repro.sql.parser import parse_statement, parse_statements
from repro.testing.faults import NO_FAULTS, CrashError, FaultInjector
from repro.triggers.manager import MAX_TRIGGER_DEPTH, SelectFiring

#: DDL statement classes replayed when a cluster is reshard()-ed
_LOGGED_DDL = (
    ast.CreateTableStatement,
    ast.CreateIndexStatement,
    ast.DropTableStatement,
    ast.CreateAuditExpressionStatement,
    ast.DropAuditExpressionStatement,
    ast.CreateSelectTriggerStatement,
    ast.CreateDmlTriggerStatement,
    ast.DropTriggerStatement,
)


@dataclass
class _CompiledSelect:
    """One SELECT's routed compilation (also the plan-cache entry).

    Duck-types :class:`repro.plancache.CachedPlan` — the cache touches
    only ``sql`` and ``tags``.
    """

    column_names: tuple[str, ...]
    kind: str  # 'single' (shard 0 only) | 'scatter'
    single_physical: PhysicalOperator | None = None
    #: per-shard compilations of the same logical fragment
    fragment_physicals: tuple[PhysicalOperator, ...] = ()
    upper_physical: PhysicalOperator | None = None
    gather_key: int = 0
    sql: str = ""
    tags: tuple = ()


class _UnionIdView:
    """Cluster-wide sensitive-ID membership over per-shard ID views.

    Compiled into coordinator-side audit operators (they can appear above
    the fragment cut under the highest-node strawman heuristic). Probes
    delegate live to every shard's view, so maintenance on any shard is
    visible immediately; the per-probe fan-out is acceptable because the
    sound heuristics never place audit operators here.
    """

    def __init__(self, views: tuple) -> None:
        self._views = views

    def __contains__(self, value: object) -> bool:
        return any(value in view for view in self._views)

    def ids(self) -> frozenset:
        merged: set = set()
        for view in self._views:
            merged |= view.ids()
        return frozenset(merged)


class _ShardRecoveryAdapter:
    """Duck-typed ``Database`` for :func:`recover_database`, per shard.

    Sequence bookkeeping and the replayed commit records stay with the
    shard (each shard owns its journal); firing and attribution go
    through the coordinator, so replayed trigger actions broadcast their
    DML exactly like the original firing did.
    """

    def __init__(self, cluster: "ClusterDatabase", shard: Database) -> None:
        self._cluster = cluster
        self._shard = shard
        self.audit_manager = shard.audit_manager
        self.faults = cluster.faults
        self.session = cluster.session

    def is_seq_applied(self, seq: int) -> bool:
        return self._shard.is_seq_applied(seq)

    def mark_seq_applied(self, seq: int, recovered: bool = False) -> None:
        self._shard.mark_seq_applied(seq, recovered=recovered)

    def replication_apply(self):
        # replay suppression is single-engine state; the coordinator's
        # dispatch path never consults it, so recovery replay through
        # the cluster needs no flag — just the context-manager shape
        return nullcontext()

    def _fire_accessed(self, accessed: dict, timing: str) -> None:
        self._cluster._fire_accessed(accessed, timing)


@dataclass
class ClusterRecoveryReport:
    """Merged result of recovering every shard's journal."""

    reports: tuple = ()

    def _total(self, name: str) -> int:
        return sum(getattr(report, name) for report in self.reports)

    @property
    def segments(self) -> int:
        return self._total("segments")

    @property
    def records(self) -> int:
        return self._total("records")

    @property
    def intents(self) -> int:
        return self._total("intents")

    @property
    def commits(self) -> int:
        return self._total("commits")

    @property
    def replayed(self) -> int:
        return self._total("replayed")

    @property
    def skipped_applied(self) -> int:
        return self._total("skipped_applied")

    @property
    def skipped_unknown(self) -> int:
        return self._total("skipped_unknown")

    @property
    def uncommitted(self) -> int:
        return self._total("uncommitted")

    @property
    def torn_tail(self) -> int:
        return self._total("torn_tail")

    @property
    def corrupt(self) -> int:
        return self._total("corrupt")

    @property
    def replayed_ids(self) -> dict:
        merged: dict[str, set] = {}
        for report in self.reports:
            for name, ids in report.replayed_ids.items():
                merged.setdefault(name, set()).update(ids)
        return merged


def _merge_accessed(target: dict[str, set], source: dict) -> None:
    for name, ids in source.items():
        if ids:
            target.setdefault(name, set()).update(ids)


def _ast_tables(select: ast.SelectStatement) -> set[str]:
    """Every base table an AST SELECT references, subqueries included."""
    tables: set[str] = set()

    def visit_from(item: ast.FromItem) -> None:
        if isinstance(item, ast.TableRef):
            tables.add(item.name.lower())
        elif isinstance(item, ast.JoinRef):
            visit_from(item.left)
            visit_from(item.right)
        else:
            inner = getattr(item, "select", None)
            if inner is not None:
                tables.update(_ast_tables(inner))

    for item in select.from_items:
        visit_from(item)
    expressions = [item.expression for item in select.items]
    expressions.extend(select.group_by)
    expressions.extend(order.expression for order in select.order_by)
    for candidate in (select.where, select.having):
        if candidate is not None:
            expressions.append(candidate)
    for expression in expressions:
        for node in expression.walk():
            if isinstance(node, SubqueryExpression) and node.select is not None:
                tables.update(_ast_tables(node.select))
    return tables


class ClusterDatabase:
    """A horizontally sharded engine with single-node audit semantics."""

    def __init__(
        self,
        shards: int = 2,
        user_id: str = "admin",
        audit_heuristic: str = HEURISTIC_HCN,
        clock=None,
        journal_path=None,
        journal_fsync: str = "batch",
        audit_policy: str = "fail_open",
        fault_injector: FaultInjector | None = None,
        shard_fault_injectors: dict[int, FaultInjector] | None = None,
        shard_deadline: float | None = None,
        shard_retries: int = 2,
        retry_backoff_base: float = 0.02,
        retry_backoff_cap: float = 0.5,
        degraded_reads: bool = True,
        suspect_after: int = 1,
        quarantine_after: int = 3,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_deadline is not None and shard_deadline <= 0:
            raise ValueError(
                f"shard_deadline must be > 0, got {shard_deadline}"
            )
        if shard_retries < 0:
            raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
        self.topology = Topology(shards)
        self.session = Session(user_id=user_id, clock=clock)
        self.faults = fault_injector or NO_FAULTS
        #: per-fragment deadline (seconds): each fragment runs under its
        #: own DeadlineToken, so a statement over N shards answers
        #: within N deadlines, and a refusal comes at the first lost
        #: shard, within one. None disables deadlines (a
        #: fragment may run arbitrarily long)
        self.shard_deadline = shard_deadline
        #: transient-failure retry budget per fragment (reads only — DML
        #: is never retried, it is not idempotent)
        self.shard_retries = shard_retries
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        #: serve partial results from live shards under ``fail_open``
        #: when a shard is down (each skip records an audit gap); off —
        #: or ``fail_closed`` — refuses with ClusterDegradedError
        self.degraded_reads = degraded_reads
        self.health = HealthTracker(
            shards,
            suspect_after=suspect_after,
            quarantine_after=quarantine_after,
        )
        #: coordinator-level audit gaps (skipped-shard reads); shard-level
        #: gaps live on the shards themselves
        self._cluster_gaps: list[dict] = []
        self._acknowledged_cluster_gaps = 0
        #: shard index → replicated tables whose copy on *that shard*
        #: lagged behind (DML skipped it while the shard was down or
        #: dying). Tracked per (shard, table) so repair always copies
        #: from a fresh replica toward a stale one, never the reverse;
        #: a shard with an entry here must never serve as a repair
        #: source for that table.
        self._stale_replicas: dict[int, set[str]] = {}
        self._stats_lock = threading.Lock()
        self._degraded_read_count = 0
        self._scatter_retry_count = 0
        self._deadline_timeout_count = 0
        #: deterministic jitter source for retry backoff (seeded so runs
        #: are reproducible; property tests drive backoff_delay directly)
        self._retry_rng = random.Random(0x5EED)
        self._user_id = user_id
        self._clock = clock
        self._heuristic = audit_heuristic
        self._shard_faults = dict(shard_fault_injectors or {})
        self._default_shard_faults = fault_injector
        self._audit_policy_seed = audit_policy
        self._shards: list[Database] = [
            self._make_shard(index) for index in range(shards)
        ]
        #: coordinator plan cache; entries are tagged with the topology
        #: version so attach/detach/reshard invalidates scatter plans
        self.plan_cache = PlanCache()
        self.skipping = True
        self._notifications: list[str] = []
        self._gather_key_lock = threading.Lock()
        self._gather_key = 0
        self._trigger_local = threading.local()
        #: ``accessed`` is bound on every shard to the same rows
        #: (replicated-relation semantics: body SELECTs may join it with
        #: partitioned tables); body statements route like any other
        #: statement
        self._firing = SelectFiring(
            self, lambda: [shard.accessed_rows for shard in self._shards],
            lambda statement: self._execute_routed(statement, None),
            self._enter_trigger, self._leave_trigger,
        )
        #: broadcast DDL replayed by reshard()
        self._ddl_log: list[ast.Statement] = []
        self._journal_root: pathlib.Path | None = None
        self._journal_fsync = journal_fsync
        if journal_path is not None:
            self.attach_journal(journal_path, fsync=journal_fsync)

    def _make_shard(self, index: int) -> Database:
        return Database(
            user_id=self._user_id,
            audit_heuristic=self._heuristic,
            clock=self._clock,
            audit_policy=self._audit_policy_seed,
            fault_injector=self._shard_faults.get(
                index, self._default_shard_faults
            ),
        )

    # ------------------------------------------------------------------
    # topology and shard access

    @property
    def shards(self) -> tuple[Database, ...]:
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> Database:
        return self._shards[index]

    def describe(self) -> dict:
        return self.topology.describe()

    # ------------------------------------------------------------------
    # knobs mirrored across shards

    @property
    def audit_enabled(self) -> bool:
        return self._shards[0].audit_enabled

    @audit_enabled.setter
    def audit_enabled(self, enabled: bool) -> None:
        for shard in self._shards:
            shard.audit_enabled = enabled

    @property
    def join_strategy(self) -> str:
        return self._shards[0].join_strategy

    @join_strategy.setter
    def join_strategy(self, strategy: str) -> None:
        for shard in self._shards:
            shard.join_strategy = strategy

    @property
    def audit_policy(self) -> str:
        return self._shards[0].audit_policy

    @audit_policy.setter
    def audit_policy(self, policy: str) -> None:
        for shard in self._shards:
            shard.audit_policy = policy

    @property
    def trigger_mode(self) -> str:
        """Always ``'sync'``: deferred firing is a single-node feature."""
        return "sync"

    @trigger_mode.setter
    def trigger_mode(self, mode: str) -> None:
        if mode != "sync":
            raise ClusterError(
                "ClusterDatabase fires SELECT triggers synchronously; "
                f"trigger_mode {mode!r} is not supported"
            )

    @property
    def audit_manager(self):
        """Shard 0's audit manager (the catalog-of-record for auditing)."""
        return self._shards[0].audit_manager

    @property
    def catalog(self):
        """Shard 0's catalog (schemas are identical on every shard)."""
        return self._shards[0].catalog

    @property
    def notifications(self) -> list[str]:
        """Coordinator NOTIFYs plus shard-local (DML-trigger) NOTIFYs."""
        merged = list(self._notifications)
        for shard in self._shards:
            merged.extend(shard.notifications)
        return merged

    @property
    def audit_gaps(self) -> list[dict]:
        """Shard-level gaps plus coordinator-level (skipped-shard) gaps."""
        merged = [
            gap for shard in self._shards for gap in shard.audit_gaps
        ]
        merged.extend(self._cluster_gaps)
        return merged

    @property
    def cluster_gaps(self) -> list[dict]:
        """Coordinator-level audit gaps only (degraded reads, lost
        journal slices) — each carries the shard index it blames."""
        return list(self._cluster_gaps)

    @property
    def trigger_errors(self) -> list:
        return []

    def drain_triggers(self) -> dict[str, int]:
        return dict(EMPTY_STATS)

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    def serve(self, host: str = "127.0.0.1", port: int = 0, **kwargs):
        """Start a network server over this cluster (same surface as
        :meth:`repro.database.Database.serve`)."""
        from repro.server import Server

        return Server(self, host=host, port=port, **kwargs)

    @contextmanager
    def _all_write_locks(self):
        """Exclusive access to every shard, acquired in shard order."""
        with ExitStack() as stack:
            for shard in self._shards:
                stack.enter_context(shard._engine_lock.write())
            yield

    # ------------------------------------------------------------------
    # public execution API

    def execute(
        self, sql: str, parameters: dict[str, object] | None = None
    ) -> QueryResult:
        """Parse, route, and execute one SQL statement."""
        text = sql.strip()
        if self._trigger_depth == 0:
            self.session.sql_text = text
        template, entry = self.plan_cache.match(
            sql, self._plan_cache_tags()
        )
        if entry is not None:
            return self._run_select_entry(entry, template.bind(parameters))
        return self._execute_routed(
            template.parse(), template.bind(parameters),
            sql_key=template.key,
        )

    def execute_script(self, sql: str) -> list[QueryResult]:
        results = []
        for statement in parse_statements(sql):
            results.append(self._execute_routed(statement, None))
        return results

    def explain(self, sql: str) -> str:
        """Routing decision plus fragment / merge-stage logical plans."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedSqlError("EXPLAIN supports only SELECT")
        shard0 = self._shards[0]
        with shard0._engine_lock.read():
            logical = shard0._optimizer.optimize_logical(
                shard0._builder.build_select(statement),
                instrument=shard0._instrument_hook(),
            )
            if not check_routable(logical, self.topology):
                return "-- route: shard 0 --\n" + format_plan(logical)
            scatter = split_plan(logical, self.topology, 0)
        parts = [
            f"-- route: scatter across {len(self._shards)} shards --",
            "-- shard fragment --",
            format_plan(scatter.shard_plan),
            "-- gather: union --",
        ]
        if scatter.upper is not None:
            parts.append("-- coordinator stage --")
            parts.append(format_plan(scatter.upper))
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # statement routing

    def _execute_routed(
        self,
        statement: ast.Statement,
        parameters: dict[str, object] | None,
        sql_key: str | None = None,
    ) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            return self._execute_select(statement, parameters, sql_key)
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(statement, parameters)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(statement, parameters)
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(statement, parameters)
        if isinstance(statement, ast.TransactionStatement):
            return self._broadcast(statement, None)[0]
        if isinstance(statement, ast.CreateAuditExpressionStatement):
            return self._execute_create_audit(statement)
        if isinstance(statement, ast.AnalyzeStatement):
            results = self._broadcast(statement, None)
            self.plan_cache.clear()
            return results[0]
        if isinstance(statement, ast.IfStatement):
            return self._execute_if(statement, parameters)
        if isinstance(statement, ast.NotifyStatement):
            return self._execute_notify(statement, parameters)
        if isinstance(statement, ast.DenyStatement):
            return self._execute_deny(statement, parameters)
        if isinstance(statement, _LOGGED_DDL):
            return self._execute_ddl(statement)
        raise UnsupportedSqlError(
            f"cannot execute {type(statement).__name__}"
        )

    def _shard_dml_guard(self, index: int) -> None:
        """Fire the ``shard-dml`` fault site for one write hand-off.

        DML is never retried (it is not idempotent: a replayed INSERT
        double-inserts). A simulated shard death quarantines the shard
        immediately; a component failure counts against its breaker and
        propagates to the caller.
        """
        shard = self._shards[index]
        try:
            shard.faults.fire("shard-dml")
        except CrashError as exc:
            self.health.record_failure(index, exc, fatal=True)
            raise ClusterDegradedError(
                f"shard {index} died while applying DML; it has been "
                "quarantined — rejoin_shard() to restore it",
                shards=(index,),
            ) from exc
        except Exception as exc:
            self.health.record_failure(index, exc)
            raise

    def _mark_stale(self, index: int, table: str) -> None:
        """Record that shard ``index``'s replica of ``table`` lagged."""
        self._stale_replicas.setdefault(index, set()).add(table)

    def _stale_tables(self) -> set[str]:
        """Union of replicated tables stale on at least one shard."""
        if not self._stale_replicas:
            return set()
        return set().union(*self._stale_replicas.values())

    def _refuse_quarantined_write(self, what: str) -> None:
        """Refuse a statement that must apply on *every* shard."""
        quarantined = self.health.quarantined()
        if quarantined:
            raise ClusterDegradedError(
                f"{what} requires all shards, but shard(s) "
                f"{list(quarantined)} are quarantined; rejoin_shard() "
                "to restore them",
                shards=quarantined,
            )

    def _broadcast(
        self,
        statement: ast.Statement,
        parameters: dict[str, object] | None,
        replicated_table: str | None = None,
    ) -> list[QueryResult]:
        """Run one statement on every shard under this query's identity.

        ``replicated_table`` marks the statement as DML over a
        replicated table: with a shard quarantined it still applies on
        the live shards (availability for e.g. trigger-body audit-log
        INSERTs) and each skipped shard is marked stale for the table so
        rejoin repairs that lagging replica from a fresh one. Staleness
        is recorded only after at least one replica actually applied —
        if no shard applies, nothing diverged and the broadcast refuses
        instead. All other broadcasts — DDL, transactions,
        partitioned-table DML — refuse while any shard is down, because
        applying them on a subset would diverge the cluster.
        """
        quarantined = self.health.quarantined()
        if quarantined and replicated_table is None:
            self._refuse_quarantined_write(
                f"{type(statement).__name__}"
            )
        results = []
        #: shards this statement did not reach (quarantined up front, or
        #: died mid-broadcast); marked stale only once a replica applied
        missed: list[int] = []

        def _mark_divergence(from_index: int) -> None:
            # earlier replicas already applied; everything from
            # ``from_index`` on (plus the shards already skipped) lags
            if replicated_table is not None and results:
                for lagging in missed + list(
                    range(from_index, len(self._shards))
                ):
                    self._mark_stale(lagging, replicated_table)

        for index, shard in enumerate(self._shards):
            if index in quarantined:
                missed.append(index)
                continue
            if replicated_table is not None or isinstance(
                statement, (ast.UpdateStatement, ast.DeleteStatement)
            ):
                try:
                    self._shard_dml_guard(index)
                except ClusterDegradedError:
                    # shard died mid-broadcast; for replicated DML the
                    # live replicas carry on and rejoin repairs this one
                    if replicated_table is not None:
                        missed.append(index)
                        continue
                    raise
                except Exception:
                    _mark_divergence(index)
                    raise
            try:
                with shard.session.override(
                    self.session.sql_text, self.session.user_id
                ):
                    result = shard._execute_statement(statement, parameters)
            except Exception:
                _mark_divergence(index)
                raise
            results.append(result)
        if not results:
            raise ClusterDegradedError(
                "no live shard could apply the statement",
                shards=quarantined,
            )
        if replicated_table is not None:
            for index in missed:
                self._mark_stale(index, replicated_table)
        return results

    # ------------------------------------------------------------------
    # SELECT: compile once, scatter, gather, merge

    def _plan_cache_tags(self) -> tuple:
        shard0 = self._shards[0]
        return (
            "cluster",
            self.topology.version,
            len(self._shards),
            shard0.catalog.version,
            tuple(
                shard.catalog.refresh_stats_version()
                for shard in self._shards
            ),
            shard0.audit_manager.config_version,
            self.audit_enabled,
            shard0.audit_manager.heuristic,
            self.join_strategy,
            shard0._optimizer.join_reorder,
        )

    def _next_gather_key(self) -> int:
        with self._gather_key_lock:
            self._gather_key += 1
            return self._gather_key

    def _resolve_union_view(self, name: str) -> _UnionIdView:
        return _UnionIdView(
            tuple(
                shard.audit_manager.resolve_view(name)
                for shard in self._shards
            )
        )

    def _compile_select(
        self, statement: ast.SelectStatement, instrument: bool = True
    ) -> _CompiledSelect:
        shard0 = self._shards[0]
        with shard0._engine_lock.read():
            logical = shard0._builder.build_select(statement)
            column_names = tuple(column.name for column in logical.columns)
            logical = shard0._optimizer.optimize_logical(
                logical,
                instrument=shard0._instrument_hook() if instrument else None,
            )
            if not check_routable(logical, self.topology):
                return _CompiledSelect(
                    column_names=column_names,
                    kind="single",
                    single_physical=shard0._optimizer.compile(logical),
                )
            scatter = split_plan(
                logical, self.topology, self._next_gather_key()
            )
            upper_physical = None
            if scatter.upper is not None:
                # coordinator-side audit operators (highest-node shapes)
                # must probe cluster-wide membership, not shard 0's view
                planner = PhysicalPlanner(
                    shard0.catalog, self._resolve_union_view
                )
                upper_physical = planner.compile(scatter.upper)
        fragments = []
        for shard in self._shards:
            with shard._engine_lock.read():
                fragments.append(shard._optimizer.compile(scatter.shard_plan))
        return _CompiledSelect(
            column_names=column_names,
            kind="scatter",
            fragment_physicals=tuple(fragments),
            upper_physical=upper_physical,
            gather_key=scatter.gather_key,
        )

    def _execute_select(
        self,
        statement: ast.SelectStatement,
        parameters: dict[str, object] | None,
        sql_key: str | None = None,
    ) -> QueryResult:
        entry = self._firing.plan(
            statement, lambda: self._compile_select(statement)
        )
        if sql_key is not None and self._trigger_depth == 0:
            entry.sql = sql_key
            entry.tags = self._plan_cache_tags()
            self.plan_cache.store(entry)
        return self._run_select_entry(entry, parameters)

    def _shard_context(
        self,
        shard: Database,
        parameters: dict[str, object] | None,
        tombstones: dict[str, set] | None = None,
    ) -> ExecutionContext:
        context = ExecutionContext(
            session=self.session,
            parameters=parameters,
            compile_subquery=shard._optimizer.compile,
        )
        context.data_skipping = self.skipping
        if tombstones:
            context.tombstones = tombstones
        context.gather_rows = shard.accessed_rows.gather_rows()
        return context

    def _collect_result_rows(
        self,
        entry: _CompiledSelect,
        parameters: dict[str, object] | None,
        accessed_out: dict[str, set],
        tombstones: dict[str, set] | None = None,
    ) -> list[tuple]:
        """Run a compiled SELECT (no trigger side effects)."""
        if entry.kind == "single":
            if self.health.is_quarantined(0):
                # unroutable plans are bound to shard 0's catalog; there
                # is no partial result to degrade to
                raise ClusterDegradedError(
                    "shard 0 is quarantined and this statement routes "
                    "entirely to it; rejoin_shard(0) to restore service",
                    shards=(0,),
                )
            shard0 = self._shards[0]
            context = self._shard_context(shard0, parameters, tombstones)
            try:
                with shard0._engine_lock.read():
                    return collect_rows(entry.single_physical, context)
            finally:
                _merge_accessed(accessed_out, context.accessed)
        return self._run_scatter(entry, parameters, accessed_out, tombstones)

    def _run_select_entry(
        self, entry: _CompiledSelect, parameters: dict[str, object] | None
    ) -> QueryResult:
        accessed: dict[str, set] = {}
        try:
            rows = self._collect_result_rows(entry, parameters, accessed)
        except BaseException:
            # §II: the AFTER action fires even when the query aborts — a
            # reader may have consumed a prefix of the result
            self._dispatch_after_triggers(accessed)
            raise
        try:
            self._fire_accessed(accessed, timing="before")
        finally:
            self._dispatch_after_triggers(accessed)
        return QueryResult(
            columns=entry.column_names,
            rows=rows,
            accessed={
                name: frozenset(ids) for name, ids in accessed.items()
            },
            rowcount=len(rows),
        )

    def _note_cluster_gap(
        self, site: str, shard_index: int, error: object
    ) -> None:
        """Record one coordinator-level audit gap (a skipped shard)."""
        self._cluster_gaps.append({
            "site": site,
            "shard": shard_index,
            "error": repr(error) if isinstance(error, BaseException)
            else str(error),
            "sql": self.session.sql_text,
            "user": self.session.user_id,
        })

    def _degraded_reads_allowed(self) -> bool:
        return self.degraded_reads and self.audit_policy == "fail_open"

    def _refuse_degraded(
        self, failures: list[tuple[int, object]]
    ) -> ClusterDegradedError:
        """Build the typed refusal for a read that lost shards."""
        indices = tuple(sorted({index for index, _ in failures}))
        detail = "; ".join(
            f"shard {index}: {error}" for index, error in failures
        )
        error = ClusterDegradedError(
            f"{len(indices)} shard(s) unavailable and the degraded-read "
            f"policy refuses partial results ({detail})", shards=indices,
        )
        for _, cause in failures:
            if isinstance(cause, BaseException):
                error.__cause__ = cause
                break
        return error

    def _absorb_degraded_read(
        self, failures: list[tuple[int, object]]
    ) -> None:
        """Apply the degraded-read policy to a scatter that lost shards.

        ``fail_open`` + ``degraded_reads``: serve partial results, one
        coordinator-level audit gap per lost shard (the skipped
        partition may hold sensitive rows this query would have
        disclosed — the trail must show the blind spot). Otherwise the
        read refuses with :class:`ClusterDegradedError`.
        """
        if not failures:
            return
        if not self._degraded_reads_allowed():
            raise self._refuse_degraded(failures)
        with self._stats_lock:
            self._degraded_read_count += 1
        for index, error in failures:
            self._note_cluster_gap("shard-read", index, error)

    def _run_scatter(
        self,
        entry: _CompiledSelect,
        parameters: dict[str, object] | None,
        accessed_out: dict[str, set],
        tombstones: dict[str, set] | None = None,
    ) -> list[tuple]:
        shards = self._shards
        quarantined = self.health.quarantined()
        #: (shard index, error) per shard this scatter could not serve
        failures: list[tuple[int, object]] = []
        if quarantined:
            if not self._degraded_reads_allowed():
                raise self._refuse_degraded(
                    [(index, "quarantined") for index in quarantined]
                )
            failures.extend(
                (index, f"quarantined: {self.health.describe()[index]['quarantine_reason']}")
                for index in quarantined
            )
        live = [
            index for index in range(len(shards))
            if index not in quarantined
        ]
        #: every context a fragment attempt ran under — partial ACCESSED
        #: of failed, retried and timed-out attempts still merges
        contexts: list[ExecutionContext] = []

        def run_fragment(
            index: int, token: DeadlineToken | None
        ) -> list[tuple]:
            """One shard's fragment, with bounded transient retries.

            Deterministic engine errors (``ReproError``, including the
            deadline's ``OperationCancelledError``) and simulated shard
            death (``CrashError``) propagate immediately; anything else
            is infrastructure trouble a re-run of an idempotent read may
            survive, so it retries up to ``shard_retries`` times with
            jittered exponential backoff.
            """
            shard = shards[index]
            attempt = 0
            while True:
                context = self._shard_context(shard, parameters, tombstones)
                context.cancel_token = token
                contexts.append(context)
                try:
                    shard.faults.fire("shard-scatter", cancel=token)
                    with shard._engine_lock.read():
                        return collect_rows(
                            entry.fragment_physicals[index], context
                        )
                except ReproError:
                    raise
                except Exception:
                    if attempt >= self.shard_retries or (
                        token is not None and token.cancelled
                    ):
                        raise
                    attempt += 1
                    with self._stats_lock:
                        self._scatter_retry_count += 1
                        delay = backoff_delay(
                            attempt - 1,
                            self.retry_backoff_base,
                            self.retry_backoff_cap,
                            self._retry_rng,
                        )
                    interruptible_sleep(delay, token)

        # fragments run one after another on the caller's thread: in
        # CPython pure-Python shard work does not overlap, and during
        # trigger firing the caller holds every shard's write lock, which
        # only the owning thread may re-enter
        per_shard: list[list[tuple]] = [[] for _ in shards]
        try:
            for index in live:
                # each fragment gets its own budget, checked at every
                # cooperative checkpoint (collect_rows batches, fault
                # latency, backoff sleeps): a degraded read over N shards
                # waits at most N deadlines
                token = (
                    None if self.shard_deadline is None
                    else DeadlineToken(time.monotonic() + self.shard_deadline)
                )
                try:
                    per_shard[index] = run_fragment(index, token)
                except CrashError as exc:
                    self.health.record_failure(index, exc, fatal=True)
                    failures.append((index, exc))
                except OperationCancelledError:
                    if token is None:
                        raise
                    with self._stats_lock:
                        self._deadline_timeout_count += 1
                    miss = ShardTimeoutError(
                        f"shard {index} missed the "
                        f"{self.shard_deadline}s fragment deadline"
                    )
                    self.health.record_failure(index, miss)
                    failures.append((index, miss))
                except ReproError:
                    # deterministic error: single-node parity demands it
                    # propagate unchanged, skipping the remaining shards
                    raise
                except Exception as exc:
                    self.health.record_failure(index, exc)
                    failures.append((index, exc))
                else:
                    self.health.record_success(index)
                    continue
                if not self._degraded_reads_allowed():
                    # the read refuses at its first lost shard: running
                    # the rest would only add their deadlines to the wait
                    break
        finally:
            # union ACCESSED even when the statement aborts: partially-
            # executed fragments already touched sensitive rows
            for context in contexts:
                _merge_accessed(accessed_out, context.accessed)
        self._absorb_degraded_read(failures)
        # shard order: the coordinator's stable sort then breaks ties by
        # (shard index, position within the shard)
        merged = [row for rows in per_shard for row in rows]
        if entry.upper_physical is None:
            return merged
        shard0 = shards[0]
        upper_context = self._shard_context(shard0, parameters, tombstones)
        gathered = upper_context.gather_rows = upper_context.gather_rows or {}
        gathered[entry.gather_key] = merged
        try:
            with shard0._engine_lock.read():
                return collect_rows(entry.upper_physical, upper_context)
        finally:
            _merge_accessed(accessed_out, upper_context.accessed)

    # ------------------------------------------------------------------
    # SELECT-trigger runtime (coordinator-level, fires exactly once)

    @property
    def _trigger_depth(self) -> int:
        return getattr(self._trigger_local, "depth", 0)

    def _enter_trigger(self) -> None:
        depth = self._trigger_depth
        if depth >= MAX_TRIGGER_DEPTH:
            raise TriggerError(
                f"trigger cascade exceeded depth {MAX_TRIGGER_DEPTH}"
            )
        self._trigger_local.depth = depth + 1

    def _leave_trigger(self) -> None:
        self._trigger_local.depth = self._trigger_depth - 1

    def _dispatch_after_triggers(self, accessed: dict[str, set]) -> None:
        if not accessed:
            return
        has_after = self._shards[0].trigger_manager.has_select_triggers(
            "after"
        )
        seqs: list[tuple[Database, int | None]] = []
        if has_after and self._trigger_depth == 0:
            seqs = self._journal_intents(accessed)
        self._fire_accessed(accessed, timing="after")
        for shard, seq in seqs:
            with shard.session.override(
                self.session.sql_text, self.session.user_id
            ):
                shard._journal_commit(seq)

    def _journal_intents(
        self, accessed: dict[str, set]
    ) -> list[tuple[Database, int | None]]:
        """Append each shard's owned slice of this query's intent.

        Partition IDs of a partitioned sensitive table are owned by the
        shard the hash routes them to — the shard whose journal must
        survive for that ID's firing to be replayable. IDs of replicated
        sensitive tables are journaled on shard 0.

        A shard whose journal cannot take its slice (quarantined, or the
        ``shard-journal`` fault site fires) feeds the audit policy:
        ``fail_open`` records the gap and the query proceeds,
        ``fail_closed`` raises — the other shards' slices already
        journaled stay (their IDs' firings remain replayable).
        """
        if self._journal_root is None:
            return []
        shard0 = self._shards[0]
        count = len(self._shards)
        seqs: list[tuple[Database, int | None]] = []
        for index, shard in enumerate(self._shards):
            subset: dict[str, set] = {}
            for name, ids in accessed.items():
                if not ids:
                    continue
                expression = shard0.audit_manager.expression(name)
                if (
                    count > 1
                    and self.topology.is_partitioned(
                        expression.sensitive_table
                    )
                ):
                    owned = {
                        value
                        for value in ids
                        if shard_of(value, count) == index
                    }
                else:
                    owned = set(ids) if index == 0 else set()
                if owned:
                    subset[name] = owned
            if not subset:
                continue
            if self.health.is_quarantined(index):
                self._journal_slice_failed(
                    index,
                    ClusterDegradedError(
                        f"shard {index}'s journal is quarantined",
                        shards=(index,),
                    ),
                )
                continue
            try:
                shard.faults.fire("shard-journal")
            except CrashError as exc:
                self.health.record_failure(index, exc, fatal=True)
                self._journal_slice_failed(index, exc)
                continue
            except Exception as exc:
                self.health.record_failure(index, exc)
                self._journal_slice_failed(index, exc)
                continue
            with shard.session.override(
                self.session.sql_text, self.session.user_id
            ):
                seqs.append((shard, shard._journal_intent(subset)))
        return seqs

    def _journal_slice_failed(
        self, index: int, error: BaseException
    ) -> None:
        """Apply the audit policy to one shard's unjournalable slice."""
        if self.audit_policy == "fail_closed":
            from repro.errors import AuditUnavailableError

            raise AuditUnavailableError(
                f"audit trail unavailable at shard-journal (shard "
                f"{index}): {error}"
            ) from error
        self._note_cluster_gap("shard-journal", index, error)

    def _fire_accessed(self, accessed: dict, timing: str) -> None:
        if not accessed:
            return
        manager = self._shards[0].trigger_manager
        if not manager.has_select_triggers(timing):
            return
        self.faults.fire("trigger-action")
        with self._all_write_locks():
            # §II-C: actions are a system transaction on every shard
            previous = [shard._active_undo for shard in self._shards]
            for shard in self._shards:
                shard._active_undo = None
            try:
                manager.fire_select_triggers(accessed, timing, self._firing)
            finally:
                for shard, undo in zip(self._shards, previous):
                    shard._active_undo = undo

    # ------------------------------------------------------------------
    # DML routing

    def _assert_no_partitioned_subqueries(self, expressions) -> None:
        for expression in expressions:
            if expression is None:
                continue
            for node in expression.walk():
                if (
                    isinstance(node, SubqueryExpression)
                    and node.select is not None
                ):
                    for name in _ast_tables(node.select):
                        if self.topology.is_partitioned(name):
                            raise ClusterRoutingError(
                                f"subquery reads partitioned table "
                                f"{name!r}; it would see one shard's "
                                "partition where single-node semantics "
                                "see the whole table"
                            )

    def _execute_insert(
        self,
        statement: ast.InsertStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        shard0 = self._shards[0]
        table_name = statement.table.lower()
        schema = shard0.catalog.table(table_name).schema
        if statement.select is not None:
            # materialize ONCE at the coordinator (scatter included), so
            # every replica receives identical rows and now()/user_id()
            # evaluate exactly once — then broadcast as literals
            source = self._execute_select(statement.select, parameters)
            value_rows = [tuple(row) for row in source.rows]
        else:
            for row in statement.rows:
                self._assert_no_partitioned_subqueries(row)
            with shard0._engine_lock.read():
                scope = Scope(())
                context = self._shard_context(shard0, parameters)
                value_rows = [
                    tuple(
                        evaluate(
                            shard0._builder.bind_expression(expr, scope),
                            (),
                            context,
                        )
                        for expr in row
                    )
                    for row in statement.rows
                ]
        full_rows = [
            shard0._arrange_insert_row(schema, statement.columns, values)
            for values in value_rows
        ]
        count = len(self._shards)
        owned = self.topology.partition_rows(table_name, full_rows)
        replicated = owned is None
        if replicated:
            routed = {index: full_rows for index in range(count)}
        else:
            routed = owned
        quarantined = self.health.quarantined()
        if quarantined and not replicated:
            # a partitioned INSERT is refused only when one of *its* rows
            # routes to a dead shard — and before any row lands anywhere
            owners_down = sorted(set(routed) & set(quarantined))
            if owners_down:
                raise ClusterDegradedError(
                    f"INSERT routes rows to quarantined shard(s) "
                    f"{owners_down}; rejoin_shard() to restore them",
                    shards=tuple(owners_down),
                )
        targets = [index for index in sorted(routed) if routed[index]]
        #: shards whose replica missed the rows; stale-marked only once
        #: at least one live replica applied (no apply → no divergence)
        missed: list[int] = []
        applied: list[int] = []

        def _mark_divergence(from_index: int) -> None:
            if replicated and applied:
                for lagging in missed + [
                    i for i in targets if i >= from_index
                ]:
                    self._mark_stale(lagging, table_name)

        for index in targets:
            rows = routed[index]
            if index in quarantined:
                # replicated INSERT: live replicas proceed, this one is
                # repaired from a live copy at rejoin
                missed.append(index)
                continue
            try:
                self._shard_dml_guard(index)
            except ClusterDegradedError:
                if replicated:
                    missed.append(index)
                    continue
                raise
            except Exception:
                _mark_divergence(index)
                raise
            shard = self._shards[index]
            literal_statement = ast.InsertStatement(
                table=statement.table,
                columns=(),
                rows=tuple(
                    tuple(Literal(value) for value in row)
                    for row in rows
                ),
                select=None,
            )
            try:
                with shard.session.override(
                    self.session.sql_text, self.session.user_id
                ):
                    shard._execute_statement(literal_statement, None)
            except Exception:
                _mark_divergence(index)
                raise
            applied.append(index)
        if replicated and missed:
            if not applied:
                raise ClusterDegradedError(
                    f"INSERT into replicated table {table_name!r} found "
                    "no live replica to apply on; rejoin_shard() to "
                    "restore one",
                    shards=tuple(missed),
                )
            for index in missed:
                self._mark_stale(index, table_name)
        return QueryResult(rowcount=len(full_rows))

    def _execute_update(
        self,
        statement: ast.UpdateStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        table_name = statement.table.lower()
        partitioned = self.topology.partitioned(table_name)
        if partitioned is not None:
            for column, _ in statement.assignments:
                if column.lower() == partitioned.column:
                    raise ClusterRoutingError(
                        f"UPDATE assigns partition column "
                        f"{partitioned.column!r} of {table_name!r}; "
                        "moving rows between shards is not supported — "
                        "DELETE and re-INSERT instead"
                    )
        self._assert_no_partitioned_subqueries(
            [expression for _, expression in statement.assignments]
            + [statement.where]
        )
        results = self._broadcast(
            statement,
            parameters,
            replicated_table=None if partitioned is not None else table_name,
        )
        if partitioned is not None and len(self._shards) > 1:
            return QueryResult(
                rowcount=sum(result.rowcount for result in results)
            )
        return QueryResult(rowcount=results[0].rowcount)

    def _execute_delete(
        self,
        statement: ast.DeleteStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        table_name = statement.table.lower()
        self._assert_no_partitioned_subqueries([statement.where])
        partitioned_table = self.topology.is_partitioned(table_name)
        results = self._broadcast(
            statement,
            parameters,
            replicated_table=None if partitioned_table else table_name,
        )
        if (
            self.topology.is_partitioned(table_name)
            and len(self._shards) > 1
        ):
            return QueryResult(
                rowcount=sum(result.rowcount for result in results)
            )
        return QueryResult(rowcount=results[0].rowcount)

    # ------------------------------------------------------------------
    # DDL: broadcast, with audit DDL driving repartitioning

    def _execute_ddl(self, statement: ast.Statement) -> QueryResult:
        if isinstance(statement, ast.CreateTableStatement):
            for _, ref_table, _ in statement.foreign_keys:
                if self.topology.is_partitioned(ref_table):
                    raise ClusterRoutingError(
                        f"foreign key references partitioned table "
                        f"{ref_table!r}; cross-shard referential checks "
                        "are not supported"
                    )
        results = self._broadcast(statement, None)
        if isinstance(statement, ast.DropTableStatement):
            self.topology.drop_table(statement.name)
        if isinstance(statement, ast.DropTriggerStatement):
            self._firing.forget(statement.name)
        self._ddl_log.append(statement)
        return results[0]

    def _execute_create_audit(
        self, statement: ast.CreateAuditExpressionStatement
    ) -> QueryResult:
        """CREATE AUDIT EXPRESSION: the partition-by column becomes the
        sensitive table's distribution key.

        If the table was replicated until now, its rows are repartitioned
        (each shard keeps only the rows it owns) *before* the DDL
        broadcasts — so each shard's ID view materializes over exactly
        its partition, which is what makes per-shard audit probes sound.
        """
        shard0 = self._shards[0]
        table_name = statement.sensitive_table.lower()
        for referenced in _ast_tables(statement.select):
            if referenced != table_name and self.topology.is_partitioned(
                referenced
            ):
                raise ClusterRoutingError(
                    f"audit expression {statement.name!r} references "
                    f"partitioned table {referenced!r}; per-shard ID "
                    "views would diverge from the single-node view"
                )
        if not shard0.catalog.has_table(table_name) or \
                shard0.audit_manager.has_expression(statement.name):
            # let shard 0 raise the engine's own error, with no cluster
            # state touched
            results = self._broadcast(statement, None)
            self._ddl_log.append(statement)
            return results[0]
        schema = shard0.catalog.table(table_name).schema
        position = schema.position_of(statement.partition_by)
        for table in shard0.catalog.tables():
            for foreign_key in table.schema.foreign_keys:
                if foreign_key.ref_table == table_name:
                    raise ClusterRoutingError(
                        f"table {table.schema.name!r} has a foreign key "
                        f"referencing {table_name!r}; partitioning it "
                        "would break cross-shard referential checks"
                    )
        newly_partitioned = not self.topology.is_partitioned(table_name)
        if newly_partitioned and len(self._shards) > 1 and \
                self.in_transaction:
            raise ClusterError(
                "CREATE AUDIT EXPRESSION repartitions "
                f"{table_name!r} and cannot run inside an open "
                "transaction"
            )
        with self._all_write_locks():
            # validates one-distribution-key-per-table
            self.topology.add_partitioned(
                table_name, statement.partition_by, position
            )
            if newly_partitioned and len(self._shards) > 1:
                self._repartition(table_name, position)
            results = self._broadcast(statement, None)
        self._ddl_log.append(statement)
        return results[0]

    def _repartition(self, table_name: str, position: int) -> None:
        """Move a replicated table's rows to their owning shards.

        Every replica is identical (DML broadcast until now), so shard
        0's copy is the source of truth. ``truncate`` + ``bulk_load``
        bypass observers: there is no audit expression on the table yet
        (this runs just before its first one), and the movement is not a
        business event for DML triggers — the logical content of the
        cluster-wide union is unchanged.
        """
        count = len(self._shards)
        rows = list(self._shards[0].catalog.table(table_name).rows())
        owned: dict[int, list[tuple]] = {}
        for row in rows:
            owned.setdefault(shard_of(row[position], count), []).append(row)
        for index, shard in enumerate(self._shards):
            table = shard.catalog.table(table_name)
            table.truncate()
            table.bulk_load(owned.get(index, ()))

    # ------------------------------------------------------------------
    # trigger-body control statements (coordinator-evaluated)

    def _execute_if(
        self,
        statement: ast.IfStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        self._assert_no_partitioned_subqueries([statement.condition])
        shard0 = self._shards[0]
        with shard0._engine_lock.read():
            bound = shard0._builder.bind_expression(
                statement.condition, Scope(())
            )
            context = self._shard_context(shard0, parameters)
            taken = evaluate(bound, (), context) is True
        if taken:
            return self._execute_routed(statement.then, parameters)
        return QueryResult()

    def _evaluate_message(
        self,
        expression,
        parameters: dict[str, object] | None,
        default: str,
    ) -> str:
        if expression is None:
            return default
        shard0 = self._shards[0]
        with shard0._engine_lock.read():
            bound = shard0._builder.bind_expression(expression, Scope(()))
            context = self._shard_context(shard0, parameters)
            return str(evaluate(bound, (), context))

    def _execute_notify(
        self,
        statement: ast.NotifyStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        self._notifications.append(
            self._evaluate_message(
                statement.message, parameters, "notification"
            )
        )
        return QueryResult()

    def _execute_deny(
        self,
        statement: ast.DenyStatement,
        parameters: dict[str, object] | None,
    ) -> QueryResult:
        raise AccessDeniedError(
            self._evaluate_message(
                statement.message, parameters,
                "access denied by SELECT trigger",
            )
        )

    # ------------------------------------------------------------------
    # transactions

    def transaction(self):
        """BEGIN on entry (all shards), COMMIT / ROLLBACK on exit."""
        cluster = self

        class _Transaction:
            def __enter__(self):
                cluster.execute("BEGIN")
                return cluster

            def __exit__(self, exc_type, exc, traceback) -> bool:
                if cluster.in_transaction:
                    cluster.execute(
                        "ROLLBACK" if exc_type is not None else "COMMIT"
                    )
                return False

        return _Transaction()

    @property
    def in_transaction(self) -> bool:
        return self._shards[0].in_transaction

    # ------------------------------------------------------------------
    # bulk loading (bench/test helper)

    def bulk_load(self, table_name: str, rows) -> int:
        """Observer-free routed load (run before audit DDL, like the
        single-node benches' ``Table.bulk_load``)."""
        table_name = table_name.lower()
        materialized = [tuple(row) for row in rows]
        partitioned = self.topology.partitioned(table_name)
        count = len(self._shards)
        with self._all_write_locks():
            if partitioned is not None and count > 1:
                owned: dict[int, list[tuple]] = {}
                for row in materialized:
                    owned.setdefault(
                        shard_of(row[partitioned.position], count), []
                    ).append(row)
                for index, shard in enumerate(self._shards):
                    shard.catalog.table(table_name).bulk_load(
                        owned.get(index, ())
                    )
            else:
                for shard in self._shards:
                    shard.catalog.table(table_name).bulk_load(materialized)
        return len(materialized)

    # ------------------------------------------------------------------
    # durability: per-shard journals, merged recovery

    @property
    def journal_root(self) -> pathlib.Path | None:
        return self._journal_root

    def attach_journal(self, path, fsync: str = "batch"):
        """Attach per-shard audit journals under directory ``path``.

        Shard ``i`` journals its owned slice of every intent at
        ``<path>/shard-<i>``; ``<path>/cluster.json`` records the
        topology so a recovering cluster can check shape compatibility.
        """
        if self._journal_root is not None:
            raise DurabilityError("an audit journal is already attached")
        root = pathlib.Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for index, shard in enumerate(self._shards):
            shard.attach_journal(root / f"shard-{index}", fsync=fsync)
        manifest = {
            "shards": len(self._shards),
            "topology": self.topology.describe(),
        }
        (root / "cluster.json").write_text(
            json.dumps(manifest, sort_keys=True), encoding="utf-8"
        )
        self._journal_root = root
        self._journal_fsync = fsync
        return root

    def recover(
        self, journal_path=None, strict: bool = True
    ) -> ClusterRecoveryReport:
        """Replay every shard's journal through the coordinator's firing
        path; returns the merged :class:`ClusterRecoveryReport`.

        Per-shard journals are independent: a crash that loses one
        shard's firings is recovered from that shard's intents alone,
        and the replayed actions broadcast their DML exactly like the
        original firing — original user and SQL attribution included.
        """
        from repro.durability.recovery import recover_database

        root = journal_path if journal_path is not None \
            else self._journal_root
        if root is None:
            raise DurabilityError(
                "no journal attached and no journal_path given"
            )
        root = pathlib.Path(root)
        manifest_path = root / "cluster.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest.get("shards") != len(self._shards):
                raise ClusterError(
                    f"journal at {root} was written by a "
                    f"{manifest.get('shards')}-shard cluster; this "
                    f"cluster has {len(self._shards)} shards"
                )
        reports = []
        for index, shard in enumerate(self._shards):
            shard_path = root / f"shard-{index}"
            if not shard_path.exists():
                continue
            adapter = _ShardRecoveryAdapter(self, shard)
            reports.append(recover_database(adapter, shard_path, strict=strict))
        return ClusterRecoveryReport(reports=tuple(reports))

    def audit_trail_health(self) -> dict[str, int]:
        """Cluster-wide trail damage: per-shard counters summed, plus
        the coordinator's own gaps (degraded reads, lost journal
        slices) folded into ``audit_gaps``."""
        merged: dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.audit_trail_health().items():
                merged[key] = merged.get(key, 0) + value
        merged["audit_gaps"] = merged.get("audit_gaps", 0) + max(
            0, len(self._cluster_gaps) - self._acknowledged_cluster_gaps
        )
        return merged

    def acknowledge_audit_failures(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.acknowledge_audit_failures().items():
                merged[key] = merged.get(key, 0) + value
        unacknowledged = max(
            0, len(self._cluster_gaps) - self._acknowledged_cluster_gaps
        )
        self._acknowledged_cluster_gaps += unacknowledged
        merged["audit_gaps"] = merged.get("audit_gaps", 0) + unacknowledged
        return merged

    # ------------------------------------------------------------------
    # shard health: quarantine, degraded mode, online rejoin

    def cluster_health(self) -> dict:
        """JSON-ready cluster fault-tolerance snapshot.

        Surfaced over the wire by the server's ``health`` frame next to
        :meth:`audit_trail_health`, so operators can tell *why* reads
        are degraded, not just that gaps are accumulating.
        """
        with self._stats_lock:
            degraded = self._degraded_read_count
            retries = self._scatter_retry_count
            timeouts = self._deadline_timeout_count
        return {
            "shards": self.health.describe(),
            "quarantined": list(self.health.quarantined()),
            "degraded_reads": degraded,
            "scatter_retries": retries,
            "deadline_timeouts": timeouts,
            "stale_replicas": sorted(self._stale_tables()),
            "stale_replicas_by_shard": {
                index: sorted(tables)
                for index, tables in sorted(self._stale_replicas.items())
                if tables
            },
            "cluster_gaps": len(self._cluster_gaps),
            "shard_deadline": self.shard_deadline,
            "shard_retries": self.shard_retries,
            "degraded_reads_enabled": self.degraded_reads,
        }

    def quarantine_shard(self, index: int, reason: str = "operator") -> None:
        """Administratively quarantine a shard (maintenance, tests)."""
        if not 0 <= index < len(self._shards):
            raise ValueError(f"no shard {index}")
        self.health.quarantine(index, reason)

    def _repair_shard(self, index: int, sources: list[int]) -> None:
        """Recopy shard ``index``'s stale replicated tables from a fresh copy.

        Must be called under :meth:`_all_write_locks`. For each table the
        shard is stale for, the source must be a live shard that is not
        itself stale for that same table — repair is a one-way
        truncate-and-reload, and copying from a stale replica would
        destroy the only fresh copy (silently losing committed DML).
        Tables with no eligible source stay marked, visible in
        ``cluster_health()["stale_replicas"]``, until a rejoin makes a
        fresh source live again.
        """
        tables = self._stale_replicas.get(index)
        if not tables:
            return
        shard = self._shards[index]
        repaired: set[str] = set()
        for name in sorted(tables):
            source_index = next(
                (
                    i for i in sources
                    if name not in self._stale_replicas.get(i, ())
                ),
                None,
            )
            if source_index is None:
                continue
            if shard.catalog.has_table(name):
                rows = list(
                    self._shards[source_index].catalog.table(name).rows()
                )
                table = shard.catalog.table(name)
                table.truncate()
                table.bulk_load(rows)
            repaired.add(name)
        if repaired:
            for expression in shard.audit_manager.expressions():
                if expression.sensitive_table in repaired:
                    shard.audit_manager.view(expression.name).refresh()
        tables -= repaired
        if not tables:
            del self._stale_replicas[index]

    def rejoin_shard(self, index: int, strict: bool = True):
        """Repair, readmit, and catch up a quarantined shard — online.

        Three steps, no coordinator restart:

        1. **replica repair** — replicated tables that took DML while
           this shard was out (its ``stale_replicas`` entries) are
           recopied from a live shard *whose own replica is fresh*, and
           ID views over them refreshed. A shard that is itself stale
           for a table is never used as the repair source — that would
           overwrite the only fresh copy. When no eligible source is
           live the shard is readmitted with its stale marking kept
           (visible in ``cluster_health()``), and a later rejoin of a
           fresh shard repairs it in the correct direction;
        2. **readmit** — the circuit breaker resets, so routing sees the
           shard again (replayed trigger bodies in step 3 can route DML
           to it); replicas still stale on *other* live shards are then
           repaired too, in case this shard just became their missing
           fresh source;
        3. **journal replay** — the shard's own audit journal replays
           through the PR-4 recovery path: intents whose firing never
           committed re-fire through the coordinator with their original
           user and SQL attribution; already-applied sequences are
           skipped, so rejoin after a clean quarantine is a no-op.

        Returns the shard's :class:`~repro.durability.recovery.
        RecoveryReport`, or ``None`` when no journal is attached.
        """
        from repro.durability.recovery import recover_database

        if not 0 <= index < len(self._shards):
            raise ValueError(f"no shard {index}")
        if not self.health.is_quarantined(index):
            raise ClusterError(
                f"shard {index} is not quarantined; nothing to rejoin"
            )
        shard = self._shards[index]
        if index in self._stale_replicas:
            with self._all_write_locks():
                self._repair_shard(
                    index, [i for i in self.health.live() if i != index]
                )
        self.health.readmit(index)
        if self._stale_replicas:
            # the readmitted shard may hold the only fresh copy of
            # tables other live shards are still stale for (it was the
            # last one standing when they diverged) — repair them now
            # that an eligible source exists
            with self._all_write_locks():
                live = self.health.live()
                for lagging in [i for i in live if i in self._stale_replicas]:
                    self._repair_shard(
                        lagging, [i for i in live if i != lagging]
                    )
        report = None
        if self._journal_root is not None:
            shard_path = self._journal_root / f"shard-{index}"
            if shard_path.exists():
                adapter = _ShardRecoveryAdapter(self, shard)
                report = recover_database(
                    adapter, shard_path, strict=strict
                )
        return report

    # ------------------------------------------------------------------
    # offline audit (Definition 2.3 at cluster scope)

    def offline_audit(
        self,
        sql: str,
        audit_expression: str,
        parameters: dict[str, object] | None = None,
    ) -> set:
        """Exact accessed-ID set by deletion testing across the cluster.

        Candidates are the union of per-shard ID views; each candidate's
        sensitive tuples are tombstoned in *every* fragment's context and
        the query re-run by :func:`repro.audit.offline.deletion_test` —
        ``Q(D) ≠ Q(D − t)`` compares gathered multisets, since shard
        interleave is not part of bag semantics.
        """
        shard0 = self._shards[0]
        expression = shard0.audit_manager.expression(audit_expression)
        table_name = expression.sensitive_table
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedSqlError("offline_audit supports only SELECT")
        compiled = self._compile_select(statement, instrument=False)
        candidates: set = set()
        for shard in self._shards:
            candidates |= shard.audit_manager.view(audit_expression).ids()
        schema = shard0.catalog.table(table_name).schema
        id_position = schema.position_of(expression.partition_by)
        pk_positions = schema.primary_key_positions()
        tuples_by_id: dict[object, list[tuple]] = {}
        for shard in self._shards:
            for row in shard.catalog.table(table_name).rows():
                id_value = row[id_position]
                if id_value in candidates:
                    tuples_by_id.setdefault(id_value, []).append(
                        tuple(row[position] for position in pk_positions)
                    )
        accessed, _ = deletion_test(
            lambda tombstones: self._collect_result_rows(
                compiled, parameters, {}, tombstones
            ),
            table_name,
            tuples_by_id,
        )
        return accessed

    # ------------------------------------------------------------------
    # resharding

    def reshard(self, shard_count: int) -> None:
        """Rebuild the cluster with ``shard_count`` shards.

        Gathers every table's rows (union of partitions for partitioned
        tables, shard 0's copy for replicated ones), replays the DDL log
        on fresh shards, redistributes the rows, and refreshes every ID
        view. Bumps the topology version, so every cached scatter plan —
        compiled against the old shard set — is invalidated.
        """
        if shard_count < 1:
            raise ValueError(f"shards must be >= 1, got {shard_count}")
        if self._journal_root is not None:
            raise ClusterError(
                "cannot reshard with an audit journal attached; close "
                "and recover into a freshly-attached cluster instead"
            )
        if self.in_transaction:
            raise ClusterError("cannot reshard inside an open transaction")
        if self.health.quarantined():
            raise ClusterDegradedError(
                "cannot reshard while shard(s) "
                f"{list(self.health.quarantined())} are quarantined; "
                "rejoin_shard() them first",
                shards=self.health.quarantined(),
            )
        if self._stale_replicas:
            # reshard seeds replicated tables from shard 0's copy; with
            # any replica still stale that could bake lagging data into
            # every new shard
            raise ClusterDegradedError(
                "cannot reshard while replicated table(s) "
                f"{sorted(self._stale_tables())} have unrepaired stale "
                "replicas on shard(s) "
                f"{sorted(self._stale_replicas)}; rejoin a fresh shard "
                "so repair can complete first",
                shards=tuple(sorted(self._stale_replicas)),
            )
        old_shards = self._shards
        shard0 = old_shards[0]
        data: dict[str, list[tuple]] = {}
        with self._all_write_locks():
            for table in shard0.catalog.tables():
                name = table.schema.name
                if self.topology.is_partitioned(name):
                    rows: list[tuple] = []
                    for shard in old_shards:
                        rows.extend(shard.catalog.table(name).rows())
                else:
                    rows = list(table.rows())
                data[name] = rows
        new_shards = [
            Database(
                user_id=self._user_id,
                audit_heuristic=self._heuristic,
                clock=self._clock,
                audit_policy=self.audit_policy,
                fault_injector=self._default_shard_faults,
            )
            for _ in range(shard_count)
        ]
        for statement in self._ddl_log:
            for shard in new_shards:
                shard._execute_statement(statement, None)
        self.topology.reshard(shard_count)
        for name, rows in data.items():
            partitioned = self.topology.partitioned(name)
            if partitioned is not None and shard_count > 1:
                owned: dict[int, list[tuple]] = {}
                for row in rows:
                    owned.setdefault(
                        shard_of(row[partitioned.position], shard_count), []
                    ).append(row)
                for index, shard in enumerate(new_shards):
                    if shard.catalog.has_table(name):
                        shard.catalog.table(name).bulk_load(
                            owned.get(index, ())
                        )
            else:
                for shard in new_shards:
                    if shard.catalog.has_table(name):
                        shard.catalog.table(name).bulk_load(rows)
        for shard in new_shards:
            for expression in shard.audit_manager.expressions():
                shard.audit_manager.view(expression.name).refresh()
        self._shards = new_shards
        self.health.reset(shard_count)
        self._stale_replicas.clear()
        self.plan_cache.clear()
        for shard in old_shards:
            shard.close()


def connect_cluster(**kwargs) -> ClusterDatabase:
    """Convenience constructor mirroring :func:`repro.database.connect`."""
    return ClusterDatabase(**kwargs)


__all__ = [
    "ClusterDatabase",
    "ClusterRecoveryReport",
    "connect_cluster",
]
