"""Join operators: hash join and nested-loop join.

Both support the logical join kinds inner / left (outer) / semi / anti.
Output rows are ``left ++ right`` for inner and left joins and the bare
left row for semi/anti joins — matching the logical algebra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import ColumnBatch
from repro.expr.compiler import compile_filter
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


def emit_joined(kind, residual, left_rows, candidates, owners,
                null_extension, out: list) -> None:
    """Append to ``out`` what a join of ``kind`` emits for ``left_rows``,
    given the ``left ++ right`` pairs whose keys matched (``candidates``,
    in left order; ``owners``: the left ordinal of each), all swept at
    once by the bound ``residual`` filter, if any."""
    kept = range(len(candidates))
    if residual is not None and candidates:
        kept = residual(ColumnBatch.from_rows(candidates).columns, kept)
    if kind == JOIN_INNER:
        out.extend([candidates[i] for i in kept]
                   if len(kept) < len(candidates) else candidates)
    elif kind == JOIN_LEFT:
        joined: dict[int, list] = {}
        for i in kept:
            joined.setdefault(owners[i], []).append(candidates[i])
        for ordinal, row in enumerate(left_rows):
            out.extend(joined.get(ordinal) or (row + null_extension,))
    else:
        matched = {owners[i] for i in kept}
        semi = kind == JOIN_SEMI
        out.extend([row for ordinal, row in enumerate(left_rows)
                    if (ordinal in matched) is semi])


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
        self._condition = (
            compile_filter(condition) if condition is not None else None
        )
        self._right_arity = right_arity

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def rows_columnar(self, context: "ExecutionContext"):
        """One residual sweep over each left row's pairs."""
        right_rows = collect_rows(self._right, context)
        condition = (
            None if self._condition is None else self._condition(context)
        )
        kind = self._kind
        null_extension = (None,) * self._right_arity
        owners = [0] * len(right_rows)
        batch_size = context.batch_size
        out: list[tuple] = []
        for batch in self._left.rows_columnar(context):
            for left_row in batch.to_rows():
                emit_joined(
                    kind, condition, (left_row,),
                    [left_row + right_row for right_row in right_rows],
                    owners, null_extension, out,
                )
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
        self._filter = (
            compile_filter(residual) if residual is not None else None
        )
        self._right_arity = right_arity
        self._build_left = build_left and kind == JOIN_INNER

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def rows_columnar(self, context: "ExecutionContext"):
        """Keys are read off the key columns; whole tuples are hashed
        into and concatenated out of the table, so both inputs are
        pivoted at the boundary, the residual swept once over each probe
        batch's matched pairs, and the output wrapped per batch."""
        residual = None if self._filter is None else self._filter(context)
        build_left, kind = self._build_left, self._kind
        table = self._build_table(
            *((self._left, self._left_keys) if build_left
              else (self._right, self._right_keys)), context,
        )
        probe, probe_keys = (self._right, self._right_keys) if build_left \
            else (self._left, self._left_keys)
        bare = residual is None and kind in (JOIN_SEMI, JOIN_ANTI)
        null_extension = (None,) * self._right_arity
        empty: tuple = ()
        get = table.get
        out: list[tuple] = []
        for batch in probe.rows_columnar(context):
            keys = _join_keys(batch, probe_keys)
            rows = batch.to_rows()
            if bare:  # no pair to build: a key match decides
                semi = kind == JOIN_SEMI
                out.extend([row for key, row in zip(keys, rows)
                            if (key in table) is semi])
            elif build_left:
                emit_joined(kind, residual, (), [
                    match + row
                    for key, row in zip(keys, rows)
                    for match in get(key, empty)
                ], (), (), out)
            elif kind == JOIN_INNER:
                emit_joined(kind, residual, (), [
                    row + match
                    for key, row in zip(keys, rows)
                    for match in get(key, empty)
                ], (), (), out)
            else:
                candidates: list[tuple] = []
                owners: list[int] = []
                for ordinal, (key, row) in enumerate(zip(keys, rows)):
                    for match in get(key, empty):
                        candidates.append(row + match)
                        owners.append(ordinal)
                emit_joined(kind, residual, rows, candidates, owners,
                            null_extension, out)
            if len(out) >= context.batch_size:
                yield ColumnBatch.from_rows(out)
                out = []
        if out:
            yield ColumnBatch.from_rows(out)

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

    def describe(self) -> str:
        side = "build=left" if self._build_left else "build=right"
        return f"HashJoin({self._kind}, {side})"
