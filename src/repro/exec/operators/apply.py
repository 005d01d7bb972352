"""Index nested-loop (apply-style) join.

The inner side is an index seek on the join key, possibly under audit
operators (the planner builds no other shape). For each *batch* of outer
rows the join takes the key column, seeks every key against the index in
one pass, and shows the inner chain one batch holding all the matches,
with a parallel vector saying which outer row each match belongs to.

This is the plan shape whose interaction with audit operators the paper's
micro-benchmark exercises: an audit operator inside the inner subtree
probes every fetched inner row, so its cost scales with the outer
cardinality (§V-A) — here as one bulk probe per outer batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PlanError
from repro.exec.batch import ColumnBatch, LazyColumns
from repro.expr.compiler import compile_filter
from repro.expr.nodes import Expression
from repro.exec.operators.audit import AuditOperator
from repro.exec.operators.base import PhysicalOperator
from repro.exec.operators.join import emit_joined
from repro.exec.operators.scan import IndexSeek
from repro.plan.logical import JOIN_INNER, JOIN_LEFT

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class IndexNestedLoopJoin(PhysicalOperator):
    """Apply join: one multi-key seek of the inner index per outer batch.

    ``inner`` is ``AuditOperator* → IndexSeek`` and ``key_slot`` the
    outer slot holding the seek key. Output order is outer order, then
    index order within one outer row.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        inner: PhysicalOperator,
        kind: str,
        residual: Expression | None,
        inner_arity: int,
        key_slot: int,
    ) -> None:
        if kind not in (JOIN_INNER, JOIN_LEFT):
            raise PlanError(f"index nested-loop join cannot run {kind!r}")
        audits = []
        seek = inner
        while isinstance(seek, AuditOperator):
            audits.append(seek)
            (seek,) = seek.children()
        if not isinstance(seek, IndexSeek):
            raise PlanError(
                "index nested-loop join needs an index seek as its inner, "
                f"got {seek.describe()}"
            )
        self._left = left
        self._inner = inner
        self._seek = seek
        self._audits = tuple(audits)
        self._kind = kind
        self._filter = (
            compile_filter(residual) if residual is not None else None
        )
        self._inner_arity = inner_arity
        self._key_slot = key_slot

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._inner)

    def rows_columnar(self, context: "ExecutionContext"):
        """Every outer batch is a cancellation checkpoint; joined rows
        are emitted once ``context.batch_size`` of them have gathered, so
        a whole join is never materialized."""
        seek_many = self._seek.seek_many
        audits = self._audits
        key_slot = self._key_slot
        inner_arity = self._inner_arity
        residual = None if self._filter is None else self._filter(context)
        kind = self._kind
        null_extension = (None,) * inner_arity
        batch_size = context.batch_size
        out: list[tuple] = []
        for batch in self._left.rows_columnar(context):
            context.check_cancelled()
            left_rows = batch.to_rows()
            matches, ordinals = seek_many(
                zip(batch.column(key_slot)), context
            )
            if audits:
                fetched = ColumnBatch(
                    LazyColumns(matches, inner_arity), len(matches)
                )
                for audit in audits:
                    audit.probe(fetched, context)
            emit_joined(
                kind, residual, left_rows,
                [left_rows[ordinal] + right_row
                 for ordinal, right_row in zip(ordinals, matches)],
                ordinals, null_extension, out,
            )
            if len(out) >= batch_size:
                yield ColumnBatch.from_rows(out)
                out = []
        if out:
            yield ColumnBatch.from_rows(out)

    def describe(self) -> str:
        return (
            f"IndexNestedLoopJoin({self._kind}, {self._seek.index_label}"
            f" ← #{self._key_slot})"
        )
