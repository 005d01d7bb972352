"""Definitional interpreter over logical plans — the executor's oracle.

The differential tests need an answer to "what rows does this statement
return" that does not come from the code under test. This module gives
it the slow, obvious way: every operator materializes its whole input as
a list of tuples, joins are nested loops, expressions go through the
tree-walking :func:`~repro.expr.evaluator.evaluate`. No compiled
closures, no batches, no selection vectors, no index access, no block
skipping, no memoized subqueries — and no import from
:mod:`repro.exec.operators`, so a bug there cannot cancel out here.

Covered: scan, filter, project, join (inner/left/semi/anti), aggregate,
sort, limit, distinct, FROM-less SELECT, (correlated) subqueries, and
the audit node as the identity it is defined to be. Row order is only
meaningful under a total ORDER BY; compare as bags otherwise.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import TYPE_CHECKING

from repro.datatypes import value_sort_key
from repro.exec.context import ExecutionContext
from repro.expr.evaluator import evaluate
from repro.plan import logical as L
from repro.plan.builder import OneRow

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.catalog import Catalog


class _ReferenceContext(ExecutionContext):
    """Context whose subqueries are interpreted, never compiled."""

    __slots__ = ("catalog",)

    def run_subquery(self, plan, current_row):
        self.push_outer_row(current_row)
        try:
            return _rows(plan, self)
        finally:
            self.pop_outer_row()


def reference_rows(
    plan: L.LogicalPlan,
    catalog: "Catalog",
    tombstones: dict[str, set] | None = None,
) -> list[tuple]:
    """Rows of a bound logical ``plan`` over the tables in ``catalog``,
    minus the rows whose primary key ``tombstones`` hides per table."""
    context = _ReferenceContext()
    context.catalog = catalog
    context.tombstones = tombstones or {}
    return _rows(plan, context)


def _rows(plan: L.LogicalPlan, context: _ReferenceContext) -> list[tuple]:
    if isinstance(plan, OneRow):
        return [()]
    if isinstance(plan, L.Scan):
        table = context.catalog.table(plan.table_name)
        key = table.schema.primary_key_positions()
        rows = [
            row for row in table.rows()
            if not context.is_tombstoned(
                plan.table_name, tuple(row[position] for position in key)
            )
        ]
        if plan.predicate is None:
            return rows
        return [
            row for row in rows
            if evaluate(plan.predicate, row, context) is True
        ]
    if isinstance(plan, L.Filter):
        return [
            row for row in _rows(plan.child, context)
            if evaluate(plan.predicate, row, context) is True
        ]
    if isinstance(plan, L.Project):
        return [
            tuple(evaluate(e, row, context) for e in plan.expressions)
            for row in _rows(plan.child, context)
        ]
    if isinstance(plan, L.Join):
        return _join(plan, context)
    if isinstance(plan, L.Aggregate):
        return _aggregate(plan, context)
    if isinstance(plan, L.Sort):
        rows = _rows(plan.child, context)
        # stable, last key first: ties keep the order of the earlier keys
        for key in reversed(plan.keys):
            rows.sort(
                key=lambda row: value_sort_key(
                    evaluate(key.expression, row, context)
                ),
                reverse=not key.ascending,
            )
        return rows
    if isinstance(plan, L.Limit):
        return _rows(plan.child, context)[:max(plan.count, 0)]
    if isinstance(plan, L.Distinct):
        return list(dict.fromkeys(_rows(plan.child, context)))
    if isinstance(plan, L.Audit):
        return _rows(plan.child, context)
    raise NotImplementedError(
        f"reference interpreter has no rule for {type(plan).__name__}"
    )


def _join(plan: L.Join, context: _ReferenceContext) -> list[tuple]:
    right_rows = _rows(plan.right, context)
    padding = (None,) * plan.right.arity
    out: list[tuple] = []
    for left_row in _rows(plan.left, context):
        matches = [
            left_row + right_row
            for right_row in right_rows
            if plan.condition is None
            or evaluate(plan.condition, left_row + right_row, context) is True
        ]
        if plan.kind == L.JOIN_INNER:
            out.extend(matches)
        elif plan.kind == L.JOIN_LEFT:
            out.extend(matches or [left_row + padding])
        elif (plan.kind == L.JOIN_SEMI) == bool(matches):
            out.append(left_row)  # semi keeps matched, anti unmatched
    return out


def _aggregate(plan: L.Aggregate, context: _ReferenceContext) -> list[tuple]:
    groups: dict[tuple, list[tuple]] = {}
    for row in _rows(plan.child, context):
        key = tuple(
            evaluate(e, row, context) for e in plan.group_expressions
        )
        groups.setdefault(key, []).append(row)
    if not groups and not plan.group_expressions:
        groups[()] = []  # a global aggregate over nothing is one row
    return [
        key + tuple(_fold(spec, members, context) for spec in plan.aggregates)
        for key, members in groups.items()
    ]


def _fold(
    spec: L.AggregateSpec, rows: list[tuple], context: _ReferenceContext
) -> object:
    name = spec.name.lower()
    if spec.argument is None:
        return len(rows)  # COUNT(*)
    values = [
        value
        for value in (evaluate(spec.argument, row, context) for row in rows)
        if value is not None  # aggregates ignore NULL inputs
    ]
    if spec.distinct:
        values = list(dict.fromkeys(values))
    if name == "count":
        return len(values)
    if not values:
        return None
    # explicit left folds: from CPython 3.12 on, builtin sum() compensates
    # float rounding, and the engine's result is the plain fold's, bit
    # for bit
    if name == "sum":
        return reduce(add, values)
    if name == "avg":
        return reduce(add, values, 0.0) / len(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    raise NotImplementedError(f"reference interpreter: aggregate {name!r}")


__all__ = ["reference_rows"]
