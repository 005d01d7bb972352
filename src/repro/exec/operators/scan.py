"""Leaf access paths: full scans, index seeks, index range scans.

All access paths honor the context's tombstones: rows whose primary key is
tombstoned are invisible, which is how the offline auditor evaluates
``Q(D − t)`` without mutating the database.

:class:`TableScan` iterates the table block by block and consults each
block's zone maps against the predicate's sargable conjuncts (extracted
once at construction) to skip blocks that provably cannot produce a row —
the conservative data-skipping fast path (see
:mod:`repro.storage.blocks`). The audit operator reuses the same block
stream via :meth:`TableScan.scan_column_blocks` to additionally skip the
sensitive-ID probe for sketch-disjoint blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datatypes.values import check_comparable
from repro.errors import ExecutionError
from repro.exec.batch import ColumnBatch, LazyColumns, row_batches
from repro.expr.compiler import compile_expression, compile_filter
from repro.expr.nodes import (
    Between,
    Binary,
    ColumnRef,
    Expression,
    IsNull,
    conjuncts,
    contains_subquery,
    referenced_slots,
)
from repro.exec.operators.base import PhysicalOperator
from repro.storage.index import OrderedIndex

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext
    from repro.storage.table import Table

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _sargable_conjuncts(
    predicate: Expression | None,
) -> tuple[tuple[str, int, Expression | None], ...]:
    """Zone-map-checkable conjuncts as (op, slot, bound-expression).

    Matches ``col <cmp> <row-independent expr>`` (either side),
    ``col BETWEEN lo AND hi``, and ``col IS [NOT] NULL``. Bound
    expressions are folded once per execution; anything else —
    subqueries, row-dependent bounds, OR trees — is simply not sargable
    and contributes no skip (conservative by omission).
    """
    found: list[tuple[str, int, Expression | None]] = []
    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, Binary) and conjunct.op in _COMPARISON_OPS:
            for column, bound, op in (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _FLIPPED[conjunct.op]),
            ):
                if (
                    isinstance(column, ColumnRef)
                    and column.outer_level == 0
                    and column.index is not None
                    and not referenced_slots(bound)
                    and not contains_subquery(bound)
                ):
                    found.append((op, column.index, bound))
                    break
        elif isinstance(conjunct, Between) and not conjunct.negated:
            column = conjunct.operand
            if not (
                isinstance(column, ColumnRef)
                and column.outer_level == 0
                and column.index is not None
            ):
                continue
            for op, bound in ((">=", conjunct.low), ("<=", conjunct.high)):
                if not referenced_slots(bound) \
                        and not contains_subquery(bound):
                    found.append((op, column.index, bound))
        elif isinstance(conjunct, IsNull):
            column = conjunct.operand
            if (
                isinstance(column, ColumnRef)
                and column.outer_level == 0
                and column.index is not None
            ):
                found.append(
                    ("notnull" if conjunct.negated else "isnull",
                     column.index, None)
                )
    return tuple(found)


class _AccessPath(PhysicalOperator):
    """A base-table access path; UPDATE and DELETE find their targets
    through :meth:`matches`. Subclasses provide ``_rids(context)``."""

    def __init__(
        self, table: "Table", residual: Expression | None, bounds=()
    ) -> None:
        self._table = table
        self._residual = (
            compile_filter(residual) if residual is not None else None
        )
        self._pk_positions = table.schema.primary_key_positions()
        self._checks = tuple(
            (op, position, bound,
             None if bound is None else compile_expression(bound))
            for op, position, bound
            in tuple(bounds) + _sargable_conjuncts(residual)
        )

    @property
    def table(self) -> "Table":
        return self._table

    def matches(self, context: "ExecutionContext") -> list[tuple[int, tuple]]:
        """``(rid, row)`` of every visible row the path selects, in
        ascending rid order — on every path, whatever its heap order."""
        rids = sorted(self._rids(context))
        rows, ordinals = _visible_rows(
            self._table, [(rid,) for rid in rids], self._pk_positions,
            self._residual, context,
        )
        return [(rids[ordinal], row) for ordinal, row in zip(ordinals, rows)]


class TableScan(_AccessPath):
    """Full scan of a base table with an optional residual predicate."""

    def __init__(self, table: "Table", predicate: Expression | None = None
                 ) -> None:
        super().__init__(table, predicate)
        self._predicate = predicate

    def _kept_blocks(self, context: "ExecutionContext", values: list):
        """Yield ``(block, summary)`` per block the zone maps keep,
        given the checks' folded ``values`` (:func:`_bound_values`).

        ``summary`` is the block's fresh :class:`BlockSummary` when the
        zone-map consult fetched one, else ``None`` — the audit operator's
        sketch consult reuses it instead of re-fetching, so each block is
        summarized at most once per scan.
        """
        table = self._table
        skipping = context.data_skipping
        for block in table.blocks():
            summary = None
            if skipping and values:
                summary = table.fresh_summary(block)
                if not all(
                    summary.may_match(check[1], check[0], value)
                    for check, value in zip(self._checks, values)
                ):
                    context.blocks_zone_skipped += 1
                    continue
            context.blocks_scanned += 1
            yield block, summary

    def _live_blocks(self, context: "ExecutionContext", values: list):
        """Yield ``(block, rows, summary)`` per kept block, rows tombstone-
        filtered but *not* yet predicate-filtered."""
        table = self._table
        hidden = context.tombstones.get(table.schema.name)
        pk_positions = self._pk_positions
        for block, summary in self._kept_blocks(context, values):
            with table._lock:
                rows = block.rows_snapshot()
            if hidden is not None and pk_positions:
                rows = [
                    row
                    for row in rows
                    if tuple(row[position] for position in pk_positions)
                    not in hidden
                ]
            if rows:
                yield block, rows, summary

    def scan_column_blocks(self, context: "ExecutionContext"):
        """The scan's output block by block; the audit operator fuses on
        it for sketch-level probe skipping, reusing ``summary``.

        Yields ``(block, batch, summary)``: each surviving block's rows
        wrapped in a :class:`ColumnBatch` over :class:`LazyColumns` —
        only the columns an operator actually touches (predicate sweep,
        audit probe, projected slots) are ever pivoted out of the block —
        with the predicate's sweep already applied as the selection
        vector. The sweep reuses the bounds the zone maps were checked
        with: each is folded once per execution.
        """
        values = _bound_values(self._table, self._checks, context)
        sweep = None
        if self._residual is not None:
            sweep = self._residual(context, {
                id(check[2]): value
                for check, value in zip(self._checks, values)
            })
        width = len(self._table.schema.columns)
        for block, rows, summary in self._live_blocks(context, values):
            columns = LazyColumns(rows, width)
            length = len(rows)
            selection = None
            if sweep is not None:
                selection = sweep(columns, range(length))
                if not selection:
                    continue
                if len(selection) == length:
                    selection = None
            yield block, ColumnBatch(columns, length, selection), summary

    def rows_columnar(self, context: "ExecutionContext"):
        for __, batch, __summary in self.scan_column_blocks(context):
            yield batch

    def _rids(self, context: "ExecutionContext"):
        values = _bound_values(self._table, self._checks, context)
        for block, __ in self._kept_blocks(context, values):
            with self._table._lock:
                yield from list(block.rows)

    def describe(self) -> str:
        suffix = " [filtered]" if self._predicate is not None else ""
        return f"TableScan({self._table.schema.name}){suffix}"


def _visible_rows(
    table: "Table",
    rid_groups,
    pk_positions: tuple[int, ...],
    residual,
    context: "ExecutionContext",
) -> tuple[list[tuple], list[int]]:
    """Rows behind each group of index rids, minus tombstoned and failing
    the ``residual`` filter (swept once over all of them), with the
    ordinal of the group of each."""
    hidden = context.tombstones.get(table.schema.name)
    if not pk_positions:
        hidden = None
    row_by_rid = table.row_by_rid
    rows: list[tuple] = []
    ordinals: list[int] = []
    for ordinal, rids in enumerate(rid_groups):
        for rid in rids:
            row = row_by_rid(rid)
            if hidden is not None:
                if tuple(row[p] for p in pk_positions) in hidden:
                    continue
            rows.append(row)
            ordinals.append(ordinal)
    if residual is not None and rows:
        kept = residual(context)(
            LazyColumns(rows, len(table.schema.columns)), range(len(rows))
        )
        if len(kept) < len(rows):
            rows = [rows[i] for i in kept]
            ordinals = [ordinals[i] for i in kept]
    return rows, ordinals


def _bound_values(
    table: "Table",
    checks: tuple,
    context: "ExecutionContext",
) -> list[object]:
    """Fold row-independent bounds once per execution, before any row
    is read, so a bound its column cannot compare with raises the same
    :class:`ExecutionError` on every access path. A NULL bound stays
    (:meth:`BlockSummary.may_match` skips every block on it)."""
    columns = table.schema.columns
    values = []
    for __, position, __, bound in checks:
        value = None
        if bound is not None:
            value = bound((), context)
            if value is not None:
                column = columns[position]
                check_comparable(column.name, column.data_type, value)
        values.append(value)
    return values


class IndexSeek(_AccessPath):
    """Equality seek on a secondary index.

    ``key_expressions`` must be evaluable without an input row (literals,
    parameters, or expressions over them); the inner seek of an index
    nested-loop join has none, its keys come to :meth:`seek_many`. The
    optional residual predicate is applied to fetched rows.
    """

    def __init__(
        self,
        table: "Table",
        index_name: str,
        key_expressions: tuple[Expression, ...],
        residual: Expression | None = None,
    ) -> None:
        positions = table.secondary_index(index_name).positions
        super().__init__(table, residual, (
            ("=", position, expression)
            for position, expression in zip(positions, key_expressions)
        ))
        self._index_name = index_name
        self._key_expressions = key_expressions

    def _key(self, context: "ExecutionContext") -> tuple:
        values = _bound_values(self._table, self._checks, context)
        return tuple(values[:len(self._key_expressions)])

    def _fetch(self, context: "ExecutionContext") -> list[tuple]:
        return self.seek_many((self._key(context),), context)[0]

    def _rids(self, context: "ExecutionContext"):
        index = self._table.secondary_index(self._index_name)
        return index.seek(self._key(context))

    def seek_many(
        self, keys, context: "ExecutionContext"
    ) -> tuple[list[tuple], list[int]]:
        """Seek every key tuple of ``keys`` in one pass: the visible
        matches in key order, then index order, and the ordinal of the
        key each one matched. An index nested-loop join calls this with
        the key column of an outer batch in place of the seek's own key
        expressions."""
        seek = self._table.secondary_index(self._index_name).seek
        return _visible_rows(
            self._table, map(seek, keys), self._pk_positions,
            self._residual, context,
        )

    def rows_columnar(self, context: "ExecutionContext"):
        yield from row_batches(self._fetch(context), context.batch_size)

    @property
    def index_label(self) -> str:
        return f"{self._table.schema.name}.{self._index_name}"

    def describe(self) -> str:
        return f"IndexSeek({self.index_label})"


class IndexRange(_AccessPath):
    """Range scan on an ordered secondary index (single-column bounds)."""

    def __init__(
        self,
        table: "Table",
        index_name: str,
        low: Expression | None,
        high: Expression | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        residual: Expression | None = None,
    ) -> None:
        position = table.secondary_index(index_name).positions[0]
        super().__init__(table, residual, (
            (op, position, bound)
            for op, bound in ((">=", low), ("<=", high))
            if bound is not None
        ))
        self._index_name = index_name
        self._low = low
        self._high = high
        self._low_inclusive = low_inclusive
        self._high_inclusive = high_inclusive

    def _rids(self, context: "ExecutionContext"):
        """Rids in the range; a NULL bound selects nothing."""
        index = self._table.secondary_index(self._index_name)
        if not isinstance(index, OrderedIndex):
            raise ExecutionError(
                f"index {self._index_name!r} does not support range scans"
            )
        values = _bound_values(self._table, self._checks, context)
        low = (values.pop(0),) if self._low is not None else None
        high = (values.pop(0),) if self._high is not None else None
        if (None,) in (low, high):
            return ()
        return index.range_scan(
            low, high, self._low_inclusive, self._high_inclusive
        )

    def _fetch(self, context: "ExecutionContext") -> list[tuple]:
        return _visible_rows(
            self._table, (self._rids(context),), self._pk_positions,
            self._residual, context,
        )[0]

    def rows_columnar(self, context: "ExecutionContext"):
        yield from row_batches(self._fetch(context), context.batch_size)

    def describe(self) -> str:
        return (
            f"IndexRange({self._table.schema.name}.{self._index_name})"
        )


class OneRowSource(PhysicalOperator):
    """Produces a single empty row (FROM-less SELECT)."""

    def rows_columnar(self, context: "ExecutionContext"):
        yield ColumnBatch((), 1)

    def describe(self) -> str:
        return "OneRow"
