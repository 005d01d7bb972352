"""Sort, limit, and top-k operators.

``TopKOperator`` fuses Sort+Limit with a bounded heap — the operator the
paper's Example 3.2 shows to be non-commutative with the audit operator.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.datatypes import value_sort_key
from repro.exec.batch import ColumnBatch, row_batches
from repro.expr.compiler import compile_expression
from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.plan.logical import SortKey

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class SortOperator(PhysicalOperator):
    """Full in-memory sort (stable, multi-key, NULLS FIRST ascending)."""

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


class _HeapEntry:
    """Orderable wrapper so heapq can compare rows by sort rank."""

    __slots__ = ("rank", "sequence", "row")

    def __init__(self, rank: tuple, sequence: int, row: tuple) -> None:
        self.rank = rank
        self.sequence = sequence
        self.row = row

    def __lt__(self, other: "_HeapEntry") -> bool:
        # max-heap on (rank, sequence): heapq pops the largest-ranked entry
        # first so we can evict the worst of the current top-k
        return (self.rank, self.sequence) > (other.rank, other.sequence)


class TopKOperator(PhysicalOperator):
    """Bounded-heap top-k: keeps the best ``count`` rows per sort order."""

    def __init__(
        self,
        child: PhysicalOperator,
        keys: tuple[SortKey, ...],
        count: int,
    ) -> None:
        self._child = child
        self._keys = keys
        self._compiled_keys = tuple(
            compile_expression(key.expression) for key in keys
        )
        self._count = count

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def _rank(self, row: tuple, context: "ExecutionContext") -> tuple:
        rank = []
        for key, compiled in zip(self._keys, self._compiled_keys):
            part = value_sort_key(compiled(row, context))
            if not key.ascending:
                part = _Reversed(part)
            rank.append(part)
        return tuple(rank)

    def rows_columnar(self, context: "ExecutionContext"):
        """The bounded heap ranks whole tuples — pivot at the boundary
        and emit the final top-k as one dense batch."""
        if self._count <= 0:
            return
        heap: list[_HeapEntry] = []
        count = self._count
        sequence = 0
        for batch in self._child.rows_columnar(context):
            for row in batch.to_rows():
                entry = _HeapEntry(self._rank(row, context), sequence, row)
                sequence += 1
                if len(heap) < count:
                    heapq.heappush(heap, entry)
                elif entry.rank < heap[0].rank or (
                    entry.rank == heap[0].rank
                    and entry.sequence < heap[0].sequence
                ):
                    heapq.heapreplace(heap, entry)
        ordered = sorted(heap, key=lambda e: (e.rank, e.sequence))
        if ordered:
            yield ColumnBatch.from_rows([entry.row for entry in ordered])

    def describe(self) -> str:
        return f"TopK({self._count}, {len(self._keys)} keys)"


class _Reversed:
    """Inverts comparison order for descending sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value
