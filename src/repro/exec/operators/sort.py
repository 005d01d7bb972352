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
from repro.exec.batch import ColumnBatch, row_batches
from repro.expr.compiler import compile_kernel
from repro.exec.operators.base import PhysicalOperator
from repro.plan.logical import SortKey

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class SortOperator(PhysicalOperator):
    """Full in-memory sort (stable, multi-key, NULLS FIRST ascending).

    Each key is a batch kernel evaluated once per input row into a key
    column; the sort orders a permutation of the buffer by the key
    columns, last key first. Stability is part of the contract: the
    cluster coordinator re-sorts the shards' runs concatenated in shard
    order, so ties keep (shard index, position), and a ``LimitOperator``
    above cuts ties in first-seen order.

    ``limit`` is the row count of a ``Limit`` directly above. Once the
    buffer (kept rows, then new batches) reaches ``2 * limit`` rows it is
    truncated to its first ``limit``; from then on an incoming row whose
    first key sorts strictly after the last kept row's cannot make the
    cut and is dropped (ties are kept). A kept row precedes every later
    row it ties with, so the result is the unbounded sort's prefix.
    """

    def __init__(self, child: PhysicalOperator, keys: tuple[SortKey, ...],
                 limit: int | None = None) -> None:
        self._child = child
        self._keys = keys
        self._limit = limit
        self._kernels = tuple(
            compile_kernel(key.expression) for key in keys
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        limit = self._limit
        first, *rest = [kernel(context) for kernel in self._kernels]
        ascending = self._keys[0].ascending
        token = context.cancel_token
        rows: list[tuple] = []
        keys: list[list] = [[] for __ in self._kernels]
        cutoff: tuple = ()  # (first key of the last kept row,)
        for batch in self._child.rows_columnar(context):
            if token is not None:
                token.raise_if_cancelled()
            columns, selection = batch.columns, batch.indices()
            values = first(columns, selection)
            if cutoff:
                kept = _within(values, cutoff[0], ascending)
                if len(kept) < len(values):
                    selection = [selection[p] for p in kept]
                    values = [values[p] for p in kept]
            rows.extend(ColumnBatch(columns, batch.length, selection)
                        .to_rows())
            keys[0].extend(values)
            for column, kernel in zip(keys[1:], rest):
                column.extend(kernel(columns, selection))
            if limit is not None and len(rows) >= 2 * limit:
                order = self._order(keys)[:limit]
                rows = [rows[i] for i in order]
                keys = [[column[i] for i in order] for column in keys]
                cutoff = tuple(keys[0][-1:])
        order = self._order(keys)
        if limit is not None:
            del order[limit:]
        yield from row_batches([rows[i] for i in order], context.batch_size)

    def _order(self, keys: list[list]) -> list[int]:
        """The stable sorted permutation of the buffered rows (raw
        values compared where a key column holds no NULL)."""
        order = list(range(len(keys[0])))
        for key, column in zip(reversed(self._keys), reversed(keys)):
            if None in column:
                column = list(map(value_sort_key, column))
            order.sort(key=column.__getitem__, reverse=not key.ascending)
        return order

    def describe(self) -> str:
        keep = "" if self._limit is None else f", keep {self._limit}"
        return f"Sort({len(self._keys)} keys{keep})"


def _within(values: list, cutoff: object, ascending: bool):
    """Positions of ``values`` that do not sort strictly after
    ``cutoff`` (NULLs sort first ascending, last descending)."""
    if cutoff is None:
        return [p for p, v in enumerate(values) if v is None] \
            if ascending else range(len(values))
    if ascending:
        return [p for p, v in enumerate(values)
                if v is None or not v > cutoff]
    return [p for p, v in enumerate(values)
            if v is not None and not v < cutoff]


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
