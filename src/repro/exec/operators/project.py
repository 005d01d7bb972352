"""Projection operator."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.compiler import compile_expression
from repro.expr.nodes import ColumnRef, Expression
from repro.exec.operators.base import PhysicalOperator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class ProjectOperator(PhysicalOperator):
    """Computes output rows from expressions over the child row.

    Projections that are pure column permutations (a common case after
    binding) re-point columns instead of evaluating anything.
    """

    def __init__(
        self, child: PhysicalOperator, expressions: tuple[Expression, ...]
    ) -> None:
        self._child = child
        self._expressions = expressions
        self._simple_slots: tuple[int, ...] | None = None
        if all(
            isinstance(expression, ColumnRef)
            and expression.outer_level == 0
            and expression.index is not None
            for expression in expressions
        ):
            self._simple_slots = tuple(
                expression.index  # type: ignore[union-attr]
                for expression in expressions
            )
        self._compiled_each = tuple(
            compile_expression(expression) for expression in expressions
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        """Column permutations re-point the column tuple
        (zero copy, selection shared); anything computed pivots once and
        evaluates per output expression into a fresh dense column."""
        slots = self._simple_slots
        if slots is not None:
            for batch in self._child.rows_columnar(context):
                if batch.selection is None:
                    yield ColumnBatch(
                        tuple(batch.columns[slot] for slot in slots),
                        batch.length,
                    )
                else:
                    # gather through the selection now: pivoting whole
                    # lazy columns to keep a sparse selection is wasted
                    # work, and downstream sees a dense batch either way
                    yield ColumnBatch(
                        tuple(batch.column(slot) for slot in slots),
                        batch.row_count,
                    )
            return
        expressions = self._expressions
        compiled = self._compiled_each
        for batch in self._child.rows_columnar(context):
            rows = batch.to_rows()
            columns = []
            for expression, closure in zip(expressions, compiled):
                if (
                    isinstance(expression, ColumnRef)
                    and expression.outer_level == 0
                    and expression.index is not None
                ):
                    columns.append(batch.column(expression.index))
                else:
                    columns.append(
                        [closure(row, context) for row in rows]
                    )
            yield ColumnBatch(tuple(columns), len(rows))

    def describe(self) -> str:
        return f"Project({len(self._expressions)} cols)"
