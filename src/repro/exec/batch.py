"""Columnar batches, the executor's unit of exchange.

A :class:`ColumnBatch` is what ``rows_columnar`` yields: one sequence of
values per column, all of the same underlying length, plus a *selection
vector* — a sequence of row indices that are logically alive, in row
order. ``selection is None``
means "all rows", the common case straight out of a scan, so filters can
narrow a batch without touching the column data: they replace the
selection vector and leave the columns shared with the upstream batch.

The layout mirrors the morsel-style columnar engines (one vector of
values per attribute, late materialization through a selection vector):
an operator that needs row-tuples (hash join build keys, DISTINCT's seen
set, sort buffers) pivots with :meth:`ColumnBatch.to_rows` at its
boundary and wraps its output with :meth:`ColumnBatch.from_rows`
(:func:`row_batches` for a whole materialized list). Everything that
can stay columnar (filter sweeps, simple projections, the audit probe)
operates on the columns directly.

Zero-arity rows (a FROM-less ``SELECT``) are represented by an empty
``columns`` tuple with a positive ``length`` — ``to_rows`` then yields
``length`` empty tuples, so the converters are total.

Scans and ``from_rows`` hand out :class:`LazyColumns` instead of an
eager tuple: a wide table pivoted eagerly would copy every column out
of block storage even though a typical query sweeps one or two. The
lazy container pivots a column on first touch and keeps the backing row
list around so ``to_rows`` on an unfiltered batch is a plain list copy,
not a pivot-then-zip round trip.
"""

from __future__ import annotations

from typing import Iterator, Sequence

__all__ = ["ColumnBatch", "LazyColumns", "row_batches"]


class LazyColumns:
    """Column views over a row list, pivoted per column on first touch.

    Duck-types as the ``columns`` sequence of a :class:`ColumnBatch`
    (``len``, indexing, iteration). ``rows`` stays public: ``to_rows``
    short-circuits through it, skipping the pivot entirely.
    """

    __slots__ = ("rows", "_materialized")

    def __init__(self, rows: Sequence[tuple], width: int) -> None:
        self.rows = rows
        self._materialized: list[list | None] = [None] * width

    def __len__(self) -> int:
        return len(self._materialized)

    def __getitem__(self, position: int) -> Sequence:
        column = self._materialized[position]
        if column is None:
            rows = self.rows
            column = [row[position] for row in rows]
            self._materialized[position] = column
        return column

    def __iter__(self) -> Iterator[Sequence]:
        return (self[position] for position in range(len(self._materialized)))


class ColumnBatch:
    """Column-major row batch with selection-vector semantics."""

    __slots__ = ("columns", "length", "selection")

    def __init__(
        self,
        columns: tuple[Sequence, ...],
        length: int,
        selection: Sequence[int] | None = None,
    ) -> None:
        #: one sequence of values per output column, each ``length`` long
        self.columns = columns
        #: underlying (pre-selection) row count
        self.length = length
        #: live row indices in row order, or None meaning all rows
        self.selection = selection

    # ------------------------------------------------------------------
    # converters (row-tuples <-> columns)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "ColumnBatch":
        """Wrap a list of row-tuples as one densely-selected batch.

        Columns are pivoted on first touch (:class:`LazyColumns`), so a
        consumer that only wants the tuples back pays a list copy.
        """
        if rows and rows[0]:
            return cls(LazyColumns(rows, len(rows[0])), len(rows))
        return cls((), len(rows))

    def to_rows(self) -> list[tuple]:
        """Pivot the *selected* rows back into row-tuples, in row order."""
        selection = self.selection
        columns = self.columns
        if not columns:
            return [()] * self.row_count
        rows = getattr(columns, "rows", None)  # LazyColumns fast path
        if rows is not None:
            if selection is None:
                return list(rows)
            return [rows[i] for i in selection]
        if selection is None:
            return list(zip(*columns))
        gathered = [
            [column[i] for i in selection] for column in columns
        ]
        return list(zip(*gathered))

    # ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of live (selected) rows."""
        selection = self.selection
        return self.length if selection is None else len(selection)

    def indices(self) -> Sequence[int]:
        """The live row indices (a range when nothing was filtered)."""
        selection = self.selection
        return range(self.length) if selection is None else selection

    def column(self, position: int) -> Sequence:
        """Values of one column for the selected rows, in row order.

        Zero-copy when the selection is dense; a gather otherwise. A
        sparse gather over lazy columns reads straight from the backing
        rows so the full column is never pivoted for a narrow selection.
        """
        columns = self.columns
        selection = self.selection
        if selection is None:
            return columns[position]
        rows = getattr(columns, "rows", None)  # LazyColumns backing
        if rows is not None:
            return [rows[i][position] for i in selection]
        values = columns[position]
        return [values[i] for i in selection]

    def take(self, count: int) -> "ColumnBatch":
        """The first ``count`` selected rows (shares column storage)."""
        selection = self.selection
        if selection is None:
            if count >= self.length:
                return self
            return ColumnBatch(self.columns, self.length, range(count))
        return ColumnBatch(self.columns, self.length, selection[:count])


def row_batches(
    rows: Sequence[tuple], batch_size: int
) -> list[ColumnBatch]:
    """A materialized row list as dense batches of up to ``batch_size``."""
    if len(rows) <= batch_size:
        return [ColumnBatch.from_rows(rows)] if rows else []
    return [
        ColumnBatch.from_rows(rows[start:start + batch_size])
        for start in range(0, len(rows), batch_size)
    ]
