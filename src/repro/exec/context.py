"""Execution context and session state.

An :class:`ExecutionContext` is created per statement execution. It carries:

* the :class:`Session` (user identity, SQL text, clock) — read by the
  ``user_id()`` / ``sql_text()`` / ``now()`` functions that the paper's
  trigger actions use;
* query parameters;
* the outer-row stack for correlated subqueries;
* the subquery runner with per-correlation memoization;
* *tombstones* — per-table sets of hidden primary keys. The offline auditor
  (Definition 2.3: run ``Q(D − t)``) hides the sensitive tuple via a
  tombstone instead of physically deleting it;
* the ACCESSED internal state (§II): partition-by IDs recorded by audit
  operators during this execution, grouped by audit-expression name.
"""

from __future__ import annotations

import datetime
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError
from repro.exec.operators.base import collect_rows

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.plan.logical import LogicalPlan
    from repro.exec.operators.base import PhysicalOperator

#: compiles a logical plan into a physical one (provided by the engine)
SubqueryCompiler = Callable[["LogicalPlan"], "PhysicalOperator"]

#: rows per output batch of materializing operators (joins, sorts,
#: aggregates, index and gather leaves): large enough to amortize
#: generator switches, small enough to keep working sets cache-friendly
DEFAULT_BATCH_SIZE = 1024


class Session:
    """Per-connection state visible to session functions.

    The session is shared by every thread serving queries on one
    :class:`~repro.database.Database`, so the fields that are *per-query*
    rather than per-connection are thread-isolated:

    * ``sql_text`` — assignments land in thread-local storage; each
      serving thread (and the async trigger worker, via :meth:`override`)
      sees the text of the query *it* is executing, never a concurrent
      thread's;
    * ``user_id`` — assignment changes the connection-wide identity (the
      shell's ``.user`` command), but a thread-local override installed
      by :meth:`override` wins, which is how deferred trigger actions
      report the identity captured when their query ran.
    """

    __slots__ = ("_base_user_id", "_clock", "_local")

    def __init__(
        self,
        user_id: str = "anonymous",
        clock: Callable[[], datetime.datetime] | None = None,
    ) -> None:
        self._base_user_id = user_id
        self._clock = clock or datetime.datetime.now
        self._local = threading.local()

    @property
    def user_id(self) -> str:
        override = getattr(self._local, "user_id", None)
        return self._base_user_id if override is None else override

    @user_id.setter
    def user_id(self, value: str) -> None:
        self._base_user_id = value

    @property
    def sql_text(self) -> str:
        return getattr(self._local, "sql_text", "")

    @sql_text.setter
    def sql_text(self, value: str) -> None:
        self._local.sql_text = value

    @contextmanager
    def override(self, sql_text: str, user_id: str):
        """Thread-locally impersonate the query a trigger batch captured."""
        previous_sql = getattr(self._local, "sql_text", "")
        previous_user = getattr(self._local, "user_id", None)
        self._local.sql_text = sql_text
        self._local.user_id = user_id
        try:
            yield self
        finally:
            self._local.sql_text = previous_sql
            self._local.user_id = previous_user

    def now(self) -> datetime.datetime:
        return self._clock()


class ExecutionContext:
    """Mutable state threaded through one statement execution."""

    __slots__ = (
        "session",
        "_parameters",
        "_compile_subquery",
        "_outer_rows",
        "_subquery_plans",
        "_subquery_memo",
        "_free_refs_cache",
        "tombstones",
        "accessed",
        "audit_probe_count",
        "audit_probe_counts",
        "batch_size",
        "data_skipping",
        "blocks_scanned",
        "blocks_zone_skipped",
        "audit_blocks_skipped",
        "audit_probes_skipped",
        "gather_rows",
        "cancel_token",
    )

    def __init__(
        self,
        session: Session | None = None,
        parameters: dict[str, object] | None = None,
        compile_subquery: SubqueryCompiler | None = None,
        base_outer_rows: tuple[tuple, ...] = (),
    ) -> None:
        self.session = session or Session()
        self._parameters = parameters or {}
        self._compile_subquery = compile_subquery
        #: rows of enclosing scopes, innermost last; seeded with e.g. a
        #: trigger's NEW row so trigger bodies can reference it
        self._outer_rows: list[tuple] = list(base_outer_rows)
        self._subquery_plans: dict[int, "PhysicalOperator"] = {}
        self._subquery_memo: dict[tuple, list[tuple]] = {}
        self._free_refs_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        #: table name -> set of primary keys hidden from scans
        self.tombstones: dict[str, set] = {}
        #: audit expression name -> set of accessed partition-by IDs
        self.accessed: dict[str, set] = {}
        #: number of rows inspected by audit operators (for benchmarks)
        self.audit_probe_count = 0
        #: per-audit-expression probe counts (bench harness reads these)
        self.audit_probe_counts: dict[str, int] = {}
        #: output chunk size of materializing operators; results, ACCESSED
        #: and probe counts do not depend on it
        self.batch_size = DEFAULT_BATCH_SIZE
        #: consult per-block zone maps / sensitive-ID sketches to skip
        #: blocks (the engine's ``skipping`` knob; skips are conservative,
        #: so results, ACCESSED, and verdicts are knob-independent)
        self.data_skipping = True
        #: blocks materialized by table scans this execution
        self.blocks_scanned = 0
        #: blocks skipped via zone maps (predicate provably unsatisfiable)
        self.blocks_zone_skipped = 0
        #: blocks whose audit probe pass was skipped via the ID sketch
        self.audit_blocks_skipped = 0
        #: per-row audit probes avoided by sketch-skipped blocks
        self.audit_probes_skipped = 0
        #: gather key -> rows of the plan's ``Gather`` leaves: merged
        #: per-shard rows, a lineage tail's input, or a firing's IDs
        self.gather_rows: dict[int, list[tuple]] | None = None
        #: cooperative cancellation token; ``collect_rows`` checkpoints
        #: raise ``OperationCancelledError`` once it is cancelled
        self.cancel_token = None

    def check_cancelled(self) -> None:
        """Cooperative checkpoint: raise if this execution was cancelled."""
        token = self.cancel_token
        if token is not None:
            token.raise_if_cancelled()

    # ------------------------------------------------------------------
    # parameters

    def parameter(self, name: str) -> object:
        try:
            return self._parameters[name]
        except KeyError:
            raise ExecutionError(f"missing query parameter :{name}") from None

    # ------------------------------------------------------------------
    # outer rows (correlated subqueries)

    def outer_row(self, level: int) -> tuple:
        """The row ``level`` scopes up (1 = immediately enclosing)."""
        if level <= 0 or level > len(self._outer_rows):
            raise ExecutionError(
                f"no outer row at level {level} "
                f"(stack depth {len(self._outer_rows)})"
            )
        return self._outer_rows[-level]

    def push_outer_row(self, row: tuple) -> None:
        self._outer_rows.append(row)

    def pop_outer_row(self) -> None:
        self._outer_rows.pop()

    # ------------------------------------------------------------------
    # subqueries

    def run_subquery(
        self, plan: "LogicalPlan | None", current_row: tuple
    ) -> list[tuple]:
        """Execute a bound subquery plan for ``current_row``.

        Results are memoized per (plan, correlation values): an
        uncorrelated subquery runs exactly once per statement.
        """
        if plan is None:
            raise ExecutionError("subquery expression was never bound")
        if self._compile_subquery is None:
            raise ExecutionError("context cannot execute subqueries")
        plan_key = id(plan)
        free_refs = self._free_refs_cache.get(plan_key)
        if free_refs is None:
            free_refs = _free_outer_refs(plan)
            self._free_refs_cache[plan_key] = free_refs
        correlation = tuple(
            current_row[index] if level == 1 else self.outer_row(level - 1)[index]
            for level, index in free_refs
        )
        memo_key = (plan_key, correlation)
        cached = self._subquery_memo.get(memo_key)
        if cached is not None:
            return cached
        physical = self._subquery_plans.get(plan_key)
        if physical is None:
            physical = self._compile_subquery(plan)
            self._subquery_plans[plan_key] = physical
        self.push_outer_row(current_row)
        try:
            rows = collect_rows(physical, self)
        finally:
            self.pop_outer_row()
        self._subquery_memo[memo_key] = rows
        return rows

    # ------------------------------------------------------------------
    # tombstones (offline auditor support)

    def is_tombstoned(self, table_name: str, primary_key: tuple) -> bool:
        hidden = self.tombstones.get(table_name)
        return hidden is not None and primary_key in hidden

    # ------------------------------------------------------------------
    # ACCESSED internal state

    def record_access(self, audit_name: str, value: object) -> None:
        self.accessed.setdefault(audit_name, set()).add(value)

    def add_probes(self, audit_name: str, count: int) -> None:
        """Account ``count`` audit probes globally and per expression."""
        self.audit_probe_count += count
        self.audit_probe_counts[audit_name] = (
            self.audit_probe_counts.get(audit_name, 0) + count
        )


def _free_outer_refs(plan: "LogicalPlan") -> tuple[tuple[int, int], ...]:
    """Free outer references of a subquery plan, as (level, slot) pairs.

    A reference is *free* when its ``outer_level`` exceeds its nesting
    depth inside ``plan`` — it then addresses a row of the enclosing
    statement. Level is reported relative to ``plan``'s root (1 = the row
    the enclosing expression is being evaluated over).
    """
    from repro.expr.nodes import ColumnRef, SubqueryExpression
    from repro.plan import logical as L
    from repro.plan.builder import OneRow  # local import: cycle guard

    found: set[tuple[int, int]] = set()

    def visit_expression(expression, depth: int) -> None:
        for node in expression.walk():
            if isinstance(node, ColumnRef) and node.outer_level > depth:
                found.add((node.outer_level - depth, node.index))
            if isinstance(node, SubqueryExpression) and node.plan is not None:
                visit_plan(node.plan, depth + 1)

    def visit_plan(node, depth: int) -> None:
        for expression in _plan_expressions(node):
            visit_expression(expression, depth)
        for child in node.children():
            visit_plan(child, depth)

    def _plan_expressions(node):
        if isinstance(node, (L.Scan,)) and node.predicate is not None:
            yield node.predicate
        elif isinstance(node, L.Filter):
            yield node.predicate
        elif isinstance(node, L.Project):
            yield from node.expressions
        elif isinstance(node, L.Join) and node.condition is not None:
            yield node.condition
        elif isinstance(node, L.Aggregate):
            yield from node.group_expressions
            for spec in node.aggregates:
                if spec.argument is not None:
                    yield spec.argument
        elif isinstance(node, L.Sort):
            for key in node.keys:
                yield key.expression
        elif isinstance(node, (L.Limit, L.Distinct, L.Audit, OneRow)):
            return

    visit_plan(plan, 0)
    return tuple(sorted(found))
