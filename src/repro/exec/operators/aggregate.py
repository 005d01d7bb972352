"""Hash aggregation: group numbers, flat kernel state, columnar output.

Nothing is allocated per group but its key, so a large GROUP BY leaves
the cyclic garbage collector nothing to walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.aggregates import aggregate_kernel
from repro.expr.compiler import compile_kernel, slot_of
from repro.exec.operators.base import PhysicalOperator
from repro.plan.logical import AggregateSpec
from repro.expr.nodes import Expression

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


def _input(expression: Expression | None) -> tuple:
    """(slot, kernel) for one group key or aggregate argument: a slot is
    read off the batch, anything computed is a batch kernel, and
    COUNT(*) (no argument) is (None, None)."""
    if expression is None:
        return None, None
    slot = slot_of(expression)
    return slot, None if slot is not None else compile_kernel(expression)


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
        inputs = [
            (slot, None if kernel is None else kernel(context))
            for slot, kernel in self._inputs
        ]
        for batch in self._child.rows_columnar(context):
            # every group key and aggregate argument as one column
            selection = batch.indices()
            columns = [
                batch.column(slot) if slot is not None
                else None if kernel is None  # COUNT(*)
                else kernel(batch.columns, selection)
                for slot, kernel in inputs
            ]
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
