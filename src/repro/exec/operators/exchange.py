"""Exchange operators: leaves over rows produced elsewhere.

The cluster coordinator cuts a plan at the highest shard-safe node and
runs the fragment below the cut on every shard. What remains above the
cut is compiled over a :class:`GatherSource` — a leaf operator that
replays the per-shard outputs, concatenated in shard order, out of the
execution context, so final aggregation, re-distinct, HAVING filters,
re-sorting and limit reapplication run through the exact same physical
operators as single-node execution. The offline lineage auditor compiles
the tail of a certified plan over the same leaf and feeds it rebuilt
group rows or surviving core rows per candidate tuple.

``RowSource`` is the context-independent sibling: a leaf over an
explicit row list, used wherever a compiled operator tree must run over
already-materialized rows (the cluster's aggregate merge tests, ad-hoc
replays).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.exec.batch import row_batches
from repro.exec.operators.base import PhysicalOperator

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class GatherSource(PhysicalOperator):
    """Leaf replaying ``context.gather_rows[key]`` (the exchange input).

    Whoever runs the plan materializes its input *before* the plan runs,
    so the gather is a plain list replay: re-executable (the offline
    auditor re-runs cluster plans with different tombstone sets, and its
    lineage tail once per candidate tuple).
    """

    def __init__(self, key: int) -> None:
        self._key = key

    def _source(self, context: "ExecutionContext") -> list[tuple]:
        """The rows, built first if the source is a function (``accessed``)."""
        sources = context.gather_rows
        if sources is None or self._key not in sources:
            raise ExecutionError(
                f"no gathered rows for exchange key {self._key} "
                "(context.gather_rows was not set before the plan ran)"
            )
        rows = sources[self._key]
        return rows() if callable(rows) else rows

    def rows_columnar(self, context: "ExecutionContext"):
        yield from row_batches(self._source(context), context.batch_size)

    def describe(self) -> str:
        return f"GatherSource(key={self._key})"


class RowSource(PhysicalOperator):
    """Leaf over an explicit, already-materialized row list."""

    def __init__(self, source_rows: list[tuple]) -> None:
        self._rows = source_rows

    def rows_columnar(self, context: "ExecutionContext"):
        yield from row_batches(self._rows, context.batch_size)

    def describe(self) -> str:
        return f"RowSource({len(self._rows)} rows)"


__all__ = ["GatherSource", "RowSource"]
