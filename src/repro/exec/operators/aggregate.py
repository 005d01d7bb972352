"""Hash aggregation: group numbers, flat kernel state, columnar output.

Nothing is allocated per group but its key, so a large GROUP BY leaves
the cyclic garbage collector nothing to walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.aggregates import aggregate_kernel
from repro.expr.compiler import compile_expression
from repro.exec.operators.base import PhysicalOperator
from repro.plan.logical import AggregateSpec
from repro.expr.nodes import ColumnRef, Expression

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


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
        self._kernels = tuple(
            aggregate_kernel(spec.name, spec.distinct, spec.argument is None)
            for spec in specs
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
        """Per batch, one dict pass numbers each row's group in order of
        first appearance (a single group column keys by bare value), then
        each kernel folds its column into flat per-group state in row
        order; a global aggregate folds whole columns. The output is cut
        from the key list and the result columns: no row tuples."""
        kernels = self._kernels
        group_count = len(self._group_expressions)
        numbers: dict = {}  # group key -> group number, first-seen order
        states = [
            [] if group_count else list(kernel.initial)
            for kernel in kernels
        ]
        for batch in self._child.rows_columnar(context):
            columns = self._columns(batch, context)
            arguments = [  # COUNT(*) measures its column, never reads it
                range(batch.row_count) if column is None else column
                for column in columns[group_count:]
            ]
            if not group_count:
                for kernel, state, column in zip(kernels, states, arguments):
                    kernel.fold_all(state, column)
                continue
            keys = columns[0] if group_count == 1 \
                else zip(*columns[:group_count])
            known = len(numbers)
            number = numbers.setdefault
            groups = [number(key, len(numbers)) for key in keys]
            added = len(numbers) - known
            for kernel, state, column in zip(kernels, states, arguments):
                if added:
                    state.extend(kernel.initial * added)
                kernel.fold(state, groups, column)
        keys = list(numbers)
        columns = [keys] if group_count == 1 \
            else list(zip(*keys)) or [()] * group_count
        columns += [
            kernel.final(state) for kernel, state in zip(kernels, states)
        ]
        count = len(keys) if group_count else 1
        size = context.batch_size
        for start in range(0, count, size):
            yield ColumnBatch(
                tuple(column[start:start + size] for column in columns),
                min(size, count - start),
            )

    def describe(self) -> str:
        return (
            f"HashAggregate(groups={len(self._group_expressions)}, "
            f"aggs={len(self._specs)})"
        )
