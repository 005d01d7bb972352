"""Index nested-loop (apply-style) join.

For each outer row, the inner physical subplan is re-executed with the
outer row pushed onto the context's outer-row stack; the inner subplan's
scan carries a seek predicate referencing the outer row (``outer_level=1``)
that the planner rewired from the join condition, so each iteration is an
index seek rather than a scan.

This is the plan shape whose interaction with audit operators the paper's
micro-benchmark exercises: an audit operator inside the inner subtree is
probed once per fetched inner row, so its cost scales with the outer
cardinality (§V-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.compiler import compile_predicate
from repro.expr.nodes import Expression
from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.exec.operators.join import combine_lineage
from repro.plan.logical import JOIN_ANTI, JOIN_LEFT, JOIN_SEMI

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class IndexNestedLoopJoin(PhysicalOperator):
    """Apply join: re-runs the inner subplan once per outer row."""

    def __init__(
        self,
        left: PhysicalOperator,
        inner: PhysicalOperator,
        kind: str,
        residual: Expression | None,
        inner_arity: int,
    ) -> None:
        self._left = left
        self._inner = inner
        self._kind = kind
        self._compiled_residual = (
            compile_predicate(residual) if residual is not None else None
        )
        self._inner_arity = inner_arity

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._inner)

    def rows_columnar(self, context: "ExecutionContext"):
        """Outer rows arrive in batches; the inner subplan is still
        executed per outer row (it is an index seek parameterized by the
        outer-row stack)."""
        kind = self._kind
        residual = self._compiled_residual
        null_extension = (None,) * self._inner_arity
        batch_size = context.batch_size
        out: list[tuple] = []
        for batch in self._left.rows_columnar(context):
            for left_row in batch.to_rows():
                context.push_outer_row(left_row)
                try:
                    matches = collect_rows(self._inner, context)
                finally:
                    context.pop_outer_row()
                matched = False
                for right_row in matches:
                    combined = left_row + right_row
                    if residual is not None:
                        if residual(combined, context) is not True:
                            continue
                    matched = True
                    if kind == JOIN_SEMI or kind == JOIN_ANTI:
                        break
                    out.append(combined)
                if kind == JOIN_SEMI and matched:
                    out.append(left_row)
                elif kind == JOIN_ANTI and not matched:
                    out.append(left_row)
                elif kind == JOIN_LEFT and not matched:
                    out.append(left_row + null_extension)
                if len(out) >= batch_size:
                    yield ColumnBatch.from_rows(out)
                    out = []
        if out:
            yield ColumnBatch.from_rows(out)

    def rows_lineage(self, context: "ExecutionContext"):
        """Lineage mode: the per-outer-row inner execution also runs
        lineage-tagged, so pushed-down index seeks keep their speedup."""
        kind = self._kind
        residual = self._compiled_residual
        null_extension = (None,) * self._inner_arity
        for left_row, left_lineage in self._left.rows_lineage(context):
            context.push_outer_row(left_row)
            try:
                matches = list(self._inner.rows_lineage(context))
            finally:
                context.pop_outer_row()
            matched = False
            for right_row, right_lineage in matches:
                combined = left_row + right_row
                if residual is not None:
                    if residual(combined, context) is not True:
                        continue
                matched = True
                if kind == JOIN_SEMI or kind == JOIN_ANTI:
                    break
                yield combined, combine_lineage(left_lineage, right_lineage)
            if kind == JOIN_SEMI and matched:
                yield left_row, left_lineage
            elif kind == JOIN_ANTI and not matched:
                yield left_row, left_lineage
            elif kind == JOIN_LEFT and not matched:
                yield left_row + null_extension, left_lineage

    def describe(self) -> str:
        return f"IndexNestedLoopJoin({self._kind})"
