"""Join operators: hash join and nested-loop join.

Both support the logical join kinds inner / left (outer) / semi / anti.
Output rows are ``left ++ right`` for inner and left joins and the bare
left row for semi/anti joins — matching the logical algebra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.compiler import compile_predicate
from repro.expr.nodes import Expression
from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.plan.logical import JOIN_ANTI, JOIN_INNER, JOIN_LEFT, JOIN_SEMI


if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


def _join_keys(batch: ColumnBatch, slots: tuple[int, ...]):
    """One hashable key per live row of ``batch``: the bare value of a
    single key column, a tuple across several."""
    if len(slots) == 1:
        return batch.column(slots[0])
    return zip(*[batch.column(slot) for slot in slots])


class NestedLoopJoin(PhysicalOperator):
    """Nested-loop join; the right input is materialized once per run.

    Used when no equi-join keys are available (cross products, inequality
    joins) — correct for every condition shape.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: str,
        condition: Expression | None,
        right_arity: int,
    ) -> None:
        self._left = left
        self._right = right
        self._kind = kind
        self._compiled_condition = (
            compile_predicate(condition) if condition is not None else None
        )
        self._right_arity = right_arity

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def rows_columnar(self, context: "ExecutionContext"):
        right_rows = collect_rows(self._right, context)
        condition = self._compiled_condition
        kind = self._kind
        null_extension = (None,) * self._right_arity
        batch_size = context.batch_size
        out: list[tuple] = []
        for batch in self._left.rows_columnar(context):
            for left_row in batch.to_rows():
                matched = False
                for right_row in right_rows:
                    combined = left_row + right_row
                    if condition is not None:
                        if condition(combined, context) is not True:
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

    def describe(self) -> str:
        return f"NestedLoopJoin({self._kind})"


class HashJoin(PhysicalOperator):
    """Hash join on equi-key slots with an optional residual predicate.

    ``left_keys`` / ``right_keys`` are slot ordinals into each input's
    row. ``build_left`` selects which side is materialized into the hash
    table (the optimizer picks the smaller estimated side); the probe side
    streams. For left/semi/anti joins the build side is always the right
    input, because those kinds need per-left-row match bookkeeping.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: str,
        left_keys: tuple[int, ...],
        right_keys: tuple[int, ...],
        residual: Expression | None,
        right_arity: int,
        build_left: bool = False,
    ) -> None:
        self._left = left
        self._right = right
        self._kind = kind
        self._left_keys = left_keys
        self._right_keys = right_keys
        self._residual = residual
        self._compiled_residual = (
            compile_predicate(residual) if residual is not None else None
        )
        self._right_arity = right_arity
        self._build_left = build_left and kind == JOIN_INNER

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def rows_columnar(self, context: "ExecutionContext"):
        """Keys are read off the key columns; whole tuples are hashed
        into and concatenated out of the table, so both inputs are
        pivoted at the boundary and the output wrapped per batch."""
        if self._build_left:
            return self._run_build_left(context)
        return self._run_build_right(context)

    def _build_table(
        self,
        operator: PhysicalOperator,
        keys: tuple[int, ...],
        context: "ExecutionContext",
    ) -> dict[object, list[tuple]]:
        """Key -> rows, without the rows whose key has a NULL part (they
        join with nothing, so a probe needs no NULL test of its own)."""
        table: dict[object, list[tuple]] = {}
        setdefault = table.setdefault
        composite = len(keys) > 1
        for batch in operator.rows_columnar(context):
            for key, row in zip(_join_keys(batch, keys), batch.to_rows()):
                if key is None or (composite and None in key):
                    continue
                setdefault(key, []).append(row)
        return table

    def _run_build_right(self, context: "ExecutionContext"):
        table = self._build_table(self._right, self._right_keys, context)
        residual = self._compiled_residual
        kind = self._kind
        left_keys = self._left_keys
        bare = kind == JOIN_SEMI or kind == JOIN_ANTI
        null_extension = (None,) * self._right_arity
        empty: tuple = ()
        batch_size = context.batch_size
        get = table.get
        out: list[tuple] = []
        for batch in self._left.rows_columnar(context):
            for key, left_row in zip(
                _join_keys(batch, left_keys), batch.to_rows()
            ):
                matched = False
                for right_row in get(key, empty):
                    combined = left_row + right_row
                    if residual is not None:
                        if residual(combined, context) is not True:
                            continue
                    matched = True
                    if bare:
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

    def _run_build_left(self, context: "ExecutionContext"):
        table = self._build_table(self._left, self._left_keys, context)
        residual = self._compiled_residual
        right_keys = self._right_keys
        empty: tuple = ()
        batch_size = context.batch_size
        get = table.get
        out: list[tuple] = []
        for batch in self._right.rows_columnar(context):
            for key, right_row in zip(
                _join_keys(batch, right_keys), batch.to_rows()
            ):
                for left_row in get(key, empty):
                    combined = left_row + right_row
                    if residual is not None:
                        if residual(combined, context) is not True:
                            continue
                    out.append(combined)
            if len(out) >= batch_size:
                yield ColumnBatch.from_rows(out)
                out = []
        if out:
            yield ColumnBatch.from_rows(out)

    def describe(self) -> str:
        side = "build=left" if self._build_left else "build=right"
        return f"HashJoin({self._kind}, {side})"
