"""Projection operator."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch, LazyColumns
from repro.expr.compiler import compile_kernel, slot_of
from repro.expr.nodes import Expression
from repro.exec.operators.base import PhysicalOperator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class ProjectOperator(PhysicalOperator):
    """Computes output rows from expressions over the child row.

    Projections that are pure column permutations (a common case after
    binding) evaluate nothing: over a row-backed batch they stay
    row-backed, each output row picked out of its input row in one C
    call, instead of pivoting every column; over a column-major batch
    they re-point the columns. Computed columns come from batch kernels.
    """

    def __init__(
        self, child: PhysicalOperator, expressions: tuple[Expression, ...]
    ) -> None:
        self._child = child
        self._expressions = expressions
        slots = tuple(map(slot_of, expressions))
        self._slots = slots
        self._pick = (
            itemgetter(*slots)
            if len(slots) > 1 and None not in slots else None
        )
        self._kernels = tuple(
            compile_kernel(expression) if slot is None else None
            for expression, slot in zip(expressions, slots)
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        slots = self._slots
        pick = self._pick
        kernels = self._kernels
        if pick is None:
            kernels = [
                None if kernel is None else kernel(context)
                for kernel in kernels
            ]
        for batch in self._child.rows_columnar(context):
            rows = getattr(batch.columns, "rows", None)
            if pick is not None and rows is not None:
                if batch.selection is not None:
                    rows = map(rows.__getitem__, batch.selection)
                picked = list(map(pick, rows))
                yield ColumnBatch(
                    LazyColumns(picked, len(slots)), len(picked)
                )
                continue
            selection = batch.indices()
            columns = []
            for slot, kernel in zip(slots, kernels):
                columns.append(
                    batch.column(slot) if kernel is None
                    else kernel(batch.columns, selection)
                )
            yield ColumnBatch(tuple(columns), batch.row_count)

    def describe(self) -> str:
        return f"Project({len(self._expressions)} cols)"
