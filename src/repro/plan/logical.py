"""Logical plan operators.

A logical plan is a tree of operators, each advertising its output columns
as a tuple of :class:`PlanColumn`. Expressions inside operators are *bound*:
column references are slot ordinals into the child's output row (or, for
correlated references, into an outer row).

The audit placement algorithm (``repro.audit.placement``) manipulates these
trees directly: it inserts :class:`Audit` nodes above sensitive-table scans
and pulls them up through operators that commute with a filter on the
partition-by slot, exactly as the paper's Algorithm 1 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import PlanError
from repro.expr.nodes import Expression

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.schema import TableSchema


@dataclass(frozen=True)
class PlanColumn:
    """One output column of a plan operator.

    ``origin`` is ``(table_name, column_name)`` when the value flows
    unchanged from a base-table column, else ``None`` — used by diagnostics
    and the audit machinery to recognize partition-by key columns.
    """

    name: str
    qualifier: str | None = None
    origin: tuple[str, str] | None = None


JOIN_INNER = "inner"
JOIN_LEFT = "left"
JOIN_SEMI = "semi"
JOIN_ANTI = "anti"


class LogicalPlan:
    """Base class for logical operators."""

    columns: tuple[PlanColumn, ...]

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def replace_children(
        self, children: Sequence["LogicalPlan"]
    ) -> "LogicalPlan":
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["LogicalPlan"]:
        """Pre-order traversal (does not enter subquery plans)."""
        yield self
        for child in self.children():
            yield from child.walk()

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Leaf: full scan of a base table under ``alias``.

    ``predicate`` is a pushed-down single-table filter; the physical
    planner may turn it into an index seek. Following the paper (§III),
    the leaf-level audit operator sits *above* the scan including its
    pushed predicate.
    """

    table_name: str
    alias: str
    schema: "TableSchema"
    predicate: Expression | None = None
    columns: tuple[PlanColumn, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        columns = tuple(
            PlanColumn(
                name=column.name,
                qualifier=self.alias,
                origin=(self.table_name, column.name),
            )
            for column in self.schema.columns
        )
        object.__setattr__(self, "columns", columns)


@dataclass(frozen=True)
class Filter(LogicalPlan):
    """Row filter: keeps rows whose predicate evaluates to TRUE."""

    child: LogicalPlan
    predicate: Expression

    @property
    def columns(self) -> tuple[PlanColumn, ...]:  # type: ignore[override]
        return self.child.columns

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Computes a new row from expressions over the child row."""

    child: LogicalPlan
    expressions: tuple[Expression, ...]
    columns: tuple[PlanColumn, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Join of two inputs; output row is ``left ++ right``.

    ``kind`` is inner/left/semi/anti. For semi and anti joins the output is
    the left row only. ``condition`` binds over the combined row.
    """

    left: LogicalPlan
    right: LogicalPlan
    kind: str
    condition: Expression | None

    @property
    def columns(self) -> tuple[PlanColumn, ...]:  # type: ignore[override]
        if self.kind in (JOIN_SEMI, JOIN_ANTI):
            return self.left.columns
        return self.left.columns + self.right.columns

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return replace(self, left=left, right=right)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computation: ``name(argument)`` with DISTINCT flag.

    ``argument`` is None for ``COUNT(*)``.
    """

    name: str
    argument: Expression | None
    distinct: bool = False


@dataclass(frozen=True)
class Aggregate(LogicalPlan):
    """Hash aggregation. Output = group columns, then aggregate columns.

    With no group keys the operator emits exactly one row (global
    aggregate), even over empty input.
    """

    child: LogicalPlan
    group_expressions: tuple[Expression, ...]
    aggregates: tuple[AggregateSpec, ...]
    columns: tuple[PlanColumn, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class SortKey:
    """One sort key: expression over child row plus direction."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Sort(LogicalPlan):
    """Full sort of the input."""

    child: LogicalPlan
    keys: tuple[SortKey, ...]

    @property
    def columns(self) -> tuple[PlanColumn, ...]:  # type: ignore[override]
        return self.child.columns

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Limit(LogicalPlan):
    """Emit at most ``count`` rows. Above a Sort this is the top-k operator
    of the paper's Example 3.2."""

    child: LogicalPlan
    count: int

    @property
    def columns(self) -> tuple[PlanColumn, ...]:  # type: ignore[override]
        return self.child.columns

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    """Duplicate elimination over full rows."""

    child: LogicalPlan

    @property
    def columns(self) -> tuple[PlanColumn, ...]:  # type: ignore[override]
        return self.child.columns

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Audit(LogicalPlan):
    """The audit operator (§III-B): a no-op data viewer.

    Probes slot ``id_slot`` of every passing row against the sensitive-ID
    set of audit expression ``audit_name`` and records hits in the query's
    ACCESSED state. Output rows and columns are exactly the child's.

    ``scan_alias`` names the sensitive-table instance this operator guards
    (one operator per instance; relevant for self-joins).
    """

    child: LogicalPlan
    audit_name: str
    id_slot: int
    scan_alias: str

    @property
    def columns(self) -> tuple[PlanColumn, ...]:  # type: ignore[override]
        return self.child.columns

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def replace_children(self, children: Sequence[LogicalPlan]) -> "Audit":
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Gather(LogicalPlan):
    """Leaf standing for rows materialized outside the plan.

    The cluster coordinator splits a plan at the highest shard-safe node,
    ships the subtree below the cut to every shard, and rebuilds the
    remainder over a ``Gather`` leaf; the offline lineage auditor rebuilds
    the tail above a certified core the same way. At execution time the
    physical :class:`~repro.exec.operators.exchange.GatherSource` reads
    the rows out of ``context.gather_rows[key]`` (for the cluster, the
    per-shard outputs concatenated in shard order) — the leaf itself
    carries only the input's columns and that key. A SELECT-trigger
    body's ``accessed`` is one too (:data:`ACCESSED_KEY`), with the
    firing's ID count as ``rows``, the cost model's estimate.
    """

    key: int
    columns: tuple[PlanColumn, ...]
    rows: int | None = None


#: exchange key of the ``accessed`` leaf: the rows of the SELECT-trigger
#: firing running now (coordinator gather keys count up from 1, the
#: lineage tail's is 0)
ACCESSED_KEY = -1


def map_expressions(plan: LogicalPlan, fn) -> LogicalPlan:
    """Rebuild ``plan`` with ``fn`` applied to every expression it holds.

    Children are processed first. ``fn`` receives each expression exactly
    once and is responsible for descending into subquery plans itself
    (expressions do not know their nesting depth; callers that rebase
    slots track it — see ``repro.plan.rebase``).
    """
    from dataclasses import replace as _replace

    children = tuple(map_expressions(child, fn) for child in plan.children())
    if children:
        plan = plan.replace_children(children)
    if isinstance(plan, Scan):
        if plan.predicate is not None:
            plan = _replace(plan, predicate=fn(plan.predicate))
    elif isinstance(plan, Filter):
        plan = _replace(plan, predicate=fn(plan.predicate))
    elif isinstance(plan, Project):
        plan = _replace(
            plan, expressions=tuple(fn(e) for e in plan.expressions)
        )
    elif isinstance(plan, Join):
        if plan.condition is not None:
            plan = _replace(plan, condition=fn(plan.condition))
    elif isinstance(plan, Aggregate):
        plan = _replace(
            plan,
            group_expressions=tuple(
                fn(e) for e in plan.group_expressions
            ),
            aggregates=tuple(
                _replace(
                    spec,
                    argument=fn(spec.argument)
                    if spec.argument is not None else None,
                )
                for spec in plan.aggregates
            ),
        )
    elif isinstance(plan, Sort):
        plan = _replace(
            plan,
            keys=tuple(
                _replace(key, expression=fn(key.expression))
                for key in plan.keys
            ),
        )
    return plan


def format_plan(plan: LogicalPlan, indent: int = 0) -> str:
    """Readable multi-line rendering of a plan tree (for tests/debugging)."""
    pad = "  " * indent
    label = type(plan).__name__
    details = ""
    if isinstance(plan, Scan):
        details = f" {plan.table_name} AS {plan.alias}"
        if plan.predicate is not None:
            details += " [pushed predicate]"
    elif isinstance(plan, Join):
        details = f" {plan.kind}"
    elif isinstance(plan, Audit):
        details = f" expr={plan.audit_name} slot={plan.id_slot}"
    elif isinstance(plan, Limit):
        details = f" count={plan.count}"
    elif isinstance(plan, Aggregate):
        details = (
            f" groups={len(plan.group_expressions)}"
            f" aggs={len(plan.aggregates)}"
        )
    lines = [f"{pad}{label}{details}"]
    for child in plan.children():
        lines.append(format_plan(child, indent + 1))
    return "\n".join(lines)
