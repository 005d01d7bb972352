"""Lineage-free subtree adapter.

The lineage auditor compiles the certified core of a plan with a node
wrapper (the same hook the deletion auditor uses for its cache operator)
that wraps every topmost subtree *not* reading the sensitive table in a
:class:`LineageFreeOperator`. Such subtrees produce identical rows under
every single-tuple deletion, so their rows carry empty lineage — and they
may contain operators with no exact lineage semantics (top-k, aggregates),
which is precisely why the adapter exists: it runs them through the
ordinary executor and tags the output, instead of requiring ``rows_lineage`` support
below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.operators.base import EMPTY_LINEAGE, PhysicalOperator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class LineageFreeOperator(PhysicalOperator):
    """Runs its child normally and tags every row with empty lineage."""

    def __init__(self, child: PhysicalOperator) -> None:
        self._child = child

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def rows_columnar(self, context: "ExecutionContext"):
        return self._child.rows_columnar(context)

    def rows_lineage(self, context: "ExecutionContext"):
        for batch in self._child.rows_columnar(context):
            for row in batch.to_rows():
                yield row, EMPTY_LINEAGE

    def describe(self) -> str:
        return "LineageFree"
