"""Sort and limit operators.

``ORDER BY ... LIMIT k`` compiles to ``LimitOperator(SortOperator)``:
there is no separate physical top-k. Top-k stays a property of the
logical plan (``Limit`` over ``Sort``), which is where the paper's
Example 3.2 shows it does not commute with the audit operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datatypes import value_sort_key
from repro.exec.batch import row_batches
from repro.expr.compiler import compile_expression
from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.plan.logical import SortKey

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class SortOperator(PhysicalOperator):
    """Full in-memory sort (stable, multi-key, NULLS FIRST ascending).

    Stability is part of the contract: the cluster coordinator re-sorts
    the shards' runs concatenated in shard order, so ties keep
    (shard index, position), and a ``LimitOperator`` above cuts ties in
    first-seen order.
    """

    def __init__(self, child: PhysicalOperator, keys: tuple[SortKey, ...]
                 ) -> None:
        self._child = child
        self._keys = keys
        self._compiled_keys = tuple(
            compile_expression(key.expression) for key in keys
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        """A sort buffer needs whole tuples, so pivot at the boundary,
        run a stable multi-pass (last key first), re-pivot."""
        buffered = collect_rows(self._child, context)
        for key, compiled in zip(
            reversed(self._keys), reversed(self._compiled_keys)
        ):
            buffered.sort(
                key=lambda row: value_sort_key(compiled(row, context)),
                reverse=not key.ascending,
            )
        yield from row_batches(buffered, context.batch_size)

    def describe(self) -> str:
        return f"Sort({len(self._keys)} keys)"


class LimitOperator(PhysicalOperator):
    """Stops the pipeline after ``count`` rows."""

    def __init__(self, child: PhysicalOperator, count: int) -> None:
        self._child = child
        self._count = count

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        """Truncate the selection vector, not the data."""
        remaining = self._count
        if remaining <= 0:
            return
        for batch in self._child.rows_columnar(context):
            count = batch.row_count
            if count >= remaining:
                yield batch.take(remaining)
                return
            remaining -= count
            yield batch

    def describe(self) -> str:
        return f"Limit({self._count})"
