"""Row filter operator."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.compiler import compile_filter
from repro.expr.nodes import Expression
from repro.exec.operators.base import PhysicalOperator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class FilterOperator(PhysicalOperator):
    """Keeps rows whose predicate evaluates to exactly TRUE."""

    def __init__(self, child: PhysicalOperator, predicate: Expression) -> None:
        self._child = child
        self._filter = compile_filter(predicate)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        """Narrow the selection vector, share the columns."""
        sweep = self._filter(context)
        for batch in self._child.rows_columnar(context):
            kept = sweep(batch.columns, batch.indices())
            if kept:
                yield ColumnBatch(
                    batch.columns,
                    batch.length,
                    None if len(kept) == batch.length else kept,
                )

    def describe(self) -> str:
        return "Filter"
