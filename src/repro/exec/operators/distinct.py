"""Duplicate elimination operator."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.exec.operators.base import PhysicalOperator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class DistinctOperator(PhysicalOperator):
    """Streams the first occurrence of each distinct row."""

    def __init__(self, child: PhysicalOperator) -> None:
        self._child = child

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        """The seen-set keys on whole tuples, so pivot at the boundary
        and re-pivot the surviving first occurrences."""
        seen: set[tuple] = set()
        add = seen.add
        for batch in self._child.rows_columnar(context):
            fresh: list[tuple] = []
            append = fresh.append
            for row in batch.to_rows():
                if row not in seen:
                    add(row)
                    append(row)
            if fresh:
                yield ColumnBatch.from_rows(fresh)

    def describe(self) -> str:
        return "Distinct"
