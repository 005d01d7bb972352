"""Hash aggregation operator."""

from __future__ import annotations

from operator import methodcaller
from typing import TYPE_CHECKING

from repro.exec.batch import row_batches
from repro.expr.aggregates import accumulator_factory
from repro.expr.compiler import compile_expression
from repro.exec.operators.base import PhysicalOperator
from repro.plan.logical import AggregateSpec
from repro.expr.nodes import ColumnRef, Expression

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext

_result = methodcaller("result")


def _input(expression: Expression | None) -> tuple:
    """(slot, closure) for one group key or aggregate argument: a plain
    column ref is read off the batch, anything computed is evaluated per
    row, and COUNT(*) (no argument) is (None, None)."""
    if expression is None:
        return None, None
    if (
        isinstance(expression, ColumnRef)
        and expression.outer_level == 0
        and expression.index is not None
    ):
        return expression.index, None
    return None, compile_expression(expression)


class HashAggregate(PhysicalOperator):
    """Groups rows by the group expressions and folds aggregates.

    Output row = group values followed by aggregate results. With no group
    expressions the operator is a global aggregate and emits exactly one
    row even for empty input (SQL semantics: ``COUNT(*)`` of nothing is 0).
    Group keys treat NULLs as equal, as GROUP BY requires. Groups are
    emitted in order of first appearance.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_expressions: tuple[Expression, ...],
        specs: tuple[AggregateSpec, ...],
    ) -> None:
        self._child = child
        self._group_expressions = group_expressions
        self._specs = specs
        self._factories = tuple(
            accumulator_factory(spec.name, spec.distinct) for spec in specs
        )
        self._inputs = tuple(
            _input(expression)
            for expression in group_expressions
            + tuple(spec.argument for spec in specs)
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def _columns(self, batch, context: "ExecutionContext") -> list:
        """Every group key and aggregate argument of ``batch`` as one
        column (None for COUNT(*)); rows are pivoted at most once."""
        rows = None
        columns = []
        for slot, closure in self._inputs:
            if slot is not None:
                columns.append(batch.column(slot))
            elif closure is None:
                columns.append(None)
            else:
                if rows is None:
                    rows = batch.to_rows()
                columns.append([closure(row, context) for row in rows])
        return columns

    def rows_columnar(self, context: "ExecutionContext"):
        """Per batch, bucket row positions by group key in one dict pass,
        then hand each (group, aggregate) its values in row order with one
        ``add_many`` call; a global aggregate folds whole columns. A
        single group column keys the groups by bare value (no 1-tuples)."""
        groups: dict = {}
        factories = self._factories
        group_count = len(self._group_expressions)
        for batch in self._child.rows_columnar(context):
            columns = self._columns(batch, context)
            arguments = [  # COUNT(*) counts row positions
                range(batch.row_count) if column is None else column
                for column in columns[group_count:]
            ]
            buckets: dict = {(): None}  # global: every row of the batch
            if group_count:
                buckets = {}
                get = buckets.get
                keys = columns[0] if group_count == 1 \
                    else zip(*columns[:group_count])
                for position, key in enumerate(keys):
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [position]
                    else:
                        bucket.append(position)
            for key, bucket in buckets.items():
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = groups[key] = [
                        factory() for factory in factories
                    ]
                for accumulator, column in zip(accumulators, arguments):
                    accumulator.add_many(
                        column if bucket is None
                        else [column[i] for i in bucket]
                    )
        if not groups and not group_count:
            groups[()] = [factory() for factory in factories]
        yield from row_batches(
            [
                ((key,) if group_count == 1 else key)
                + tuple(map(_result, accumulators))
                for key, accumulators in groups.items()
            ],
            context.batch_size,
        )

    def describe(self) -> str:
        return (
            f"HashAggregate(groups={len(self._group_expressions)}, "
            f"aggs={len(self._specs)})"
        )
