"""Sort and limit operators.

``ORDER BY ... LIMIT k`` compiles to ``LimitOperator(SortOperator)``,
the sort told ``k``: there is no separate physical top-k. Top-k stays a
property of the logical plan (``Limit`` over ``Sort``), which is where
the paper's Example 3.2 shows it does not commute with the audit
operator.
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

    ``limit`` is the row count of a ``Limit`` directly above. The sort
    then keeps only the first ``limit`` rows of what it has seen: once
    its buffer (kept rows, then the new batches) reaches ``2 * limit``
    rows it sorts it the same way and truncates. A kept row precedes
    every later row it ties with, so the result is the unbounded sort's
    first ``limit`` rows.
    """

    def __init__(self, child: PhysicalOperator, keys: tuple[SortKey, ...],
                 limit: int | None = None) -> None:
        self._child = child
        self._keys = keys
        self._limit = limit
        self._compiled_keys = tuple(
            compile_expression(key.expression) for key in keys
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        """A sort buffer needs whole tuples, so pivot at the boundary,
        run a stable multi-pass (last key first), re-pivot."""
        limit = self._limit
        if limit is None:
            buffered = collect_rows(self._child, context)
        else:
            token = context.cancel_token
            buffered = []
            for batch in self._child.rows_columnar(context):
                if token is not None:
                    token.raise_if_cancelled()
                buffered.extend(batch.to_rows())
                if len(buffered) >= 2 * limit:
                    self._sort(buffered, context)
                    del buffered[limit:]
        self._sort(buffered, context)
        if limit is not None:
            del buffered[limit:]
        yield from row_batches(buffered, context.batch_size)

    def _sort(self, rows: list[tuple], context: "ExecutionContext") -> None:
        for key, compiled in zip(
            reversed(self._keys), reversed(self._compiled_keys)
        ):
            rows.sort(
                key=lambda row: value_sort_key(compiled(row, context)),
                reverse=not key.ascending,
            )

    def describe(self) -> str:
        keep = "" if self._limit is None else f", keep {self._limit}"
        return f"Sort({len(self._keys)} keys{keep})"


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
