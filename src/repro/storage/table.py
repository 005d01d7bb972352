"""Heap tables, block-partitioned, with a clustered PK index and change
observation.

A :class:`Table` stores rows as tuples in a rid-addressed heap that is
physically partitioned into fixed-capacity :class:`~repro.storage.blocks.Block`
objects. Each block maintains per-column zone maps plus sensitive-ID
sketches over registered columns (the audit expressions' partition-by
columns), which scans and audit operators consult to skip whole blocks —
see :mod:`repro.storage.blocks` for the conservative-skip invariant.

When the schema declares a primary key, the table maintains a clustered
index (key -> rid) and enforces uniqueness and NOT NULL on the key columns
— mirroring the paper's observation that in SQL Server the partition-by key
of an audit expression usually coincides with the clustered index, so
reading IDs costs no extra I/O (§IV-A.1).

Observers receive a :class:`RowChange` for every mutation. Three subsystems
subscribe: the audit ID-view maintenance (materialized views of sensitive
IDs, §IV-A.1), the classical trigger manager (AFTER INSERT/UPDATE/DELETE
row triggers) and the engine's undo log.

:meth:`Table.insert_many` is the one row loop behind ``bulk_load``,
``INSERT … SELECT`` and multi-row ``VALUES``: converters looked up once
per column, its input consumed lazily, and each row's change notified
right after that row is placed, before the next row is validated — the
order a loop of :meth:`Table.insert` calls gives, which row triggers and
undo rely on. A table registered in a catalog reports each
power-of-two crossing of its row count to that catalog's statistics
epoch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.catalog.schema import Column, TableSchema
from repro.datatypes import value_converter
from repro.errors import ConstraintError, StorageError
from repro.storage.blocks import DEFAULT_BLOCK_CAPACITY, Block, BlockSummary
from repro.storage.index import HashIndex, OrderedIndex

CHANGE_INSERT = "insert"
CHANGE_DELETE = "delete"
CHANGE_UPDATE = "update"


@dataclass(frozen=True)
class RowChange:
    """One row-level mutation: ``kind`` plus the old/new row images.

    ``rid`` addresses the affected heap slot (stable for the lifetime of
    the row). ``compensating`` marks changes applied by transaction
    rollback: view maintenance must process them, DML triggers and the
    undo recorder must ignore them.
    """

    table: str
    kind: str
    old_row: tuple | None
    new_row: tuple | None
    rid: int | None = None
    compensating: bool = False


ChangeObserver = Callable[[RowChange], None]


class Table:
    """An in-memory block-partitioned heap table with optional PK index."""

    def __init__(
        self,
        schema: TableSchema,
        block_capacity: int = DEFAULT_BLOCK_CAPACITY,
    ) -> None:
        self.schema = schema
        if block_capacity < 1:
            raise StorageError("block_capacity must be >= 1")
        self.block_capacity = block_capacity
        self._blocks: list[Block] = []
        #: rid -> owning block (rids are stable; blocks never move rows)
        self._rid_block: dict[int, Block] = {}
        #: the block currently accepting inserts (None = allocate fresh)
        self._tail: Block | None = None
        self._row_count = 0
        #: column positions carrying a per-block sensitive-ID sketch
        self._sketch_positions: tuple[int, ...] = ()
        self._next_rid = 0
        #: modification counter; bumped on every mutation (drives lazy stats)
        self.version = 0
        self._pk_positions = schema.primary_key_positions()
        #: per column, ``coerce_value`` for its type plus its NOT NULL check
        self._converters = tuple(
            _column_converter(schema.name, column)
            for column in schema.columns
        )
        #: called with this table when its row count crosses a power of
        #: two (the catalog that registers it keeps its statistics epoch
        #: from these reports); never under the catalog lock
        self.on_bucket_change: Callable[["Table"], None] | None = None
        self._pk_index: dict[tuple, int] = {}
        self._secondary: dict[str, HashIndex | OrderedIndex] = {}
        self._unique_indexes: set[str] = set()
        self._observers: list[ChangeObserver] = []
        # Serializes mutations and snapshot copies. Reentrant because
        # observer callbacks (DML triggers) may mutate this same table.
        # The engine-level read-write lock already excludes readers from
        # writers; this lock additionally protects direct Table users.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # observers

    def add_observer(self, observer: ChangeObserver) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: ChangeObserver) -> None:
        self._observers.remove(observer)

    def _notify(self, change: RowChange) -> None:
        for observer in self._observers:
            observer(change)

    # ------------------------------------------------------------------
    # blocks and data skipping

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def sketch_positions(self) -> tuple[int, ...]:
        return self._sketch_positions

    def blocks(self) -> list[Block]:
        """Snapshot of the block list (blocks themselves are live)."""
        with self._lock:
            return list(self._blocks)

    def register_sketch_column(self, column_name: str) -> int:
        """Maintain a per-block sketch of ``column_name``; returns its
        position. Idempotent; existing blocks are re-summarized so the
        sketch covers current contents."""
        position = self.schema.position_of(column_name)
        with self._lock:
            if position in self._sketch_positions:
                return position
            self._sketch_positions = tuple(
                sorted((*self._sketch_positions, position))
            )
            column_count = len(self.schema.columns)
            for block in self._blocks:
                block.rebuild_summary(column_count, self._sketch_positions)
        return position

    def fresh_summary(self, block: Block) -> BlockSummary:
        """The block's summary, rebuilt if stale (double-checked under the
        table lock; the swap itself is atomic, so concurrent readers that
        lose the race keep consulting the conservative stale summary)."""
        summary = block.summary
        if not summary.stale:
            return summary
        with self._lock:
            summary = block.summary
            if summary.stale:
                summary = block.rebuild_summary(
                    len(self.schema.columns), self._sketch_positions
                )
            return summary

    def _place_row(self, rid: int, row: tuple) -> None:
        """Append the row to the tail block, opening a new one when full."""
        block = self._tail
        if block is None or len(block.rows) >= block.capacity:
            block = Block(
                len(self._blocks),
                self.block_capacity,
                len(self.schema.columns),
                self._sketch_positions,
            )
            self._blocks.append(block)
            self._tail = block
        block.insert(rid, row)
        self._rid_block[rid] = block
        count = self._row_count = self._row_count + 1
        if not count & (count - 1) and self.on_bucket_change is not None:
            self.on_bucket_change(self)

    # ------------------------------------------------------------------
    # secondary indexes

    def create_secondary_index(
        self,
        name: str,
        columns: tuple[str, ...],
        ordered: bool = True,
        unique: bool = False,
    ) -> None:
        with self._lock:
            if name in self._secondary:
                raise StorageError(f"index {name!r} already exists on table")
            positions = tuple(self.schema.position_of(c) for c in columns)
            index: HashIndex | OrderedIndex
            if ordered:
                index = OrderedIndex(name, positions)
            else:
                index = HashIndex(name, positions)
            if unique:
                seen: set[tuple] = set()
                for __, row in self._iter_items():
                    key = index.key_of(row)
                    if any(part is None for part in key):
                        continue
                    if key in seen:
                        raise ConstraintError(
                            f"cannot create unique index {name!r}: "
                            f"duplicate key {key!r} in table "
                            f"{self.schema.name!r}"
                        )
                    seen.add(key)
            for rid, row in self._iter_items():
                index.insert(rid, row)
            self._secondary[name] = index
            if unique:
                self._unique_indexes.add(name)

    def _check_unique_indexes(
        self, row: tuple, ignore_rid: int | None = None
    ) -> None:
        for name in self._unique_indexes:
            index = self._secondary[name]
            key = index.key_of(row)
            if any(part is None for part in key):
                continue  # SQL: NULL keys never conflict
            for rid in index.seek(key):
                if rid != ignore_rid:
                    raise ConstraintError(
                        f"unique index {name!r} violation: key {key!r} "
                        f"already exists in table {self.schema.name!r}"
                    )

    def secondary_index(self, name: str) -> HashIndex | OrderedIndex:
        try:
            return self._secondary[name]
        except KeyError:
            raise StorageError(f"no index {name!r} on table") from None

    def secondary_indexes(self) -> dict[str, HashIndex | OrderedIndex]:
        return dict(self._secondary)

    # ------------------------------------------------------------------
    # row access

    def __len__(self) -> int:
        return self._row_count

    def _iter_items(self):
        """(rid, row) pairs in block order; caller holds the lock."""
        for block in self._blocks:
            yield from block.rows.items()

    def rows(self) -> Iterator[tuple]:
        """Iterate row values (snapshot: safe against concurrent mutation)."""
        with self._lock:
            return iter([
                row
                for block in self._blocks
                for row in block.rows.values()
            ])

    def row_by_rid(self, rid: int) -> tuple:
        block = self._rid_block.get(rid)
        if block is None:
            raise StorageError(f"rid {rid} not found")
        return block.rows[rid]

    def lookup_pk(self, key: tuple) -> tuple | None:
        """Clustered-index point lookup; None if absent or no PK declared."""
        rid = self._pk_index.get(key)
        if rid is None:
            return None
        return self.row_by_rid(rid)

    # ------------------------------------------------------------------
    # validation

    def _coerce_row(self, values: tuple) -> tuple:
        if len(values) != len(self._converters):
            raise StorageError(
                f"table {self.schema.name!r} expects "
                f"{len(self._converters)} values, got {len(values)}"
            )
        return tuple([
            convert(value)
            for convert, value in zip(self._converters, values)
        ])

    def _pk_key(self, row: tuple) -> tuple | None:
        if not self._pk_positions:
            return None
        key = tuple(row[position] for position in self._pk_positions)
        if any(part is None for part in key):
            raise ConstraintError(
                f"primary key of {self.schema.name!r} cannot contain NULL"
            )
        return key

    # ------------------------------------------------------------------
    # mutations

    def insert(
        self,
        values: tuple,
        notify: bool = True,
        compensating: bool = False,
        rid: int | None = None,
    ) -> int:
        """Insert one row; returns its rid.

        ``rid`` lets transaction rollback restore a deleted row under its
        original heap slot so earlier undo entries stay addressable. The
        row lands in the current tail block regardless (rid -> block is an
        explicit map, not an address computation).
        """
        with self._lock:
            rid, row = self._add_row(values, rid)
        if notify:
            self._notify(
                RowChange(
                    self.schema.name, CHANGE_INSERT, None, row,
                    rid=rid, compensating=compensating,
                )
            )
        return rid

    def insert_many(self, rows, notify: bool = True) -> int:
        """Insert ``rows`` in input order; returns how many landed.

        The one row loop behind :meth:`bulk_load`, ``INSERT … SELECT``
        and multi-row ``VALUES`` (:meth:`insert` shares its validation
        and placement). ``rows`` is consumed lazily, so a generator
        streams. Each row is validated and placed under the table lock,
        and with ``notify`` its :class:`RowChange` reaches the observers
        right after that row is placed, with the lock released, before
        the next row is read or validated, so DML row triggers (which may
        read or write this table) and the undo log see what a loop of
        :meth:`insert` calls shows them. The first failing row raises;
        the rows before it stay (a statement's undo log removes them).
        """
        name = self.schema.name
        count = 0
        for values in rows:
            with self._lock:
                rid, row = self._add_row(values)
            if notify:
                self._notify(RowChange(name, CHANGE_INSERT, None, row, rid=rid))
            count += 1
        return count

    def _add_row(self, values: tuple, rid: int | None = None
                 ) -> tuple[int, tuple]:
        """Validate and place one row (caller holds the lock); returns
        its rid and stored image."""
        row = self._coerce_row(values)
        key = self._pk_key(row) if self._pk_positions else None
        if key is not None and key in self._pk_index:
            raise ConstraintError(
                f"duplicate primary key {key!r} in table "
                f"{self.schema.name!r}"
            )
        if self._unique_indexes:
            self._check_unique_indexes(row)
        if rid is None:
            rid = self._next_rid
            self._next_rid += 1
        elif rid in self._rid_block:
            raise StorageError(f"rid {rid} already occupied")
        else:
            self._next_rid = max(self._next_rid, rid + 1)
        self._place_row(rid, row)
        if key is not None:
            self._pk_index[key] = rid
        for index in self._secondary.values():
            index.insert(rid, row)
        self.version += 1
        return rid, row

    def delete_rid(
        self, rid: int, notify: bool = True, compensating: bool = False
    ) -> tuple:
        """Delete by rid; returns the removed row."""
        with self._lock:
            row = self.row_by_rid(rid)
            block = self._rid_block.pop(rid)
            block.remove(rid)
            count = self._row_count = self._row_count - 1
            if not count & (count + 1) and self.on_bucket_change is not None:
                self.on_bucket_change(self)
            key = self._pk_key(row)
            if key is not None:
                del self._pk_index[key]
            for index in self._secondary.values():
                index.delete(rid, row)
            self.version += 1
        if notify:
            self._notify(
                RowChange(
                    self.schema.name, CHANGE_DELETE, row, None,
                    rid=rid, compensating=compensating,
                )
            )
        return row

    def update_rid(
        self,
        rid: int,
        values: tuple,
        notify: bool = True,
        compensating: bool = False,
    ) -> tuple[tuple, tuple]:
        """Replace the row at ``rid``; returns ``(old_row, new_row)``."""
        with self._lock:
            old_row = self.row_by_rid(rid)
            new_row = self._coerce_row(values)
            old_key = self._pk_key(old_row)
            new_key = self._pk_key(new_row)
            if new_key != old_key and new_key is not None:
                if new_key in self._pk_index:
                    raise ConstraintError(
                        f"duplicate primary key {new_key!r} in table "
                        f"{self.schema.name!r}"
                    )
            self._check_unique_indexes(new_row, ignore_rid=rid)
            self._rid_block[rid].replace(rid, new_row)
            if old_key is not None:
                del self._pk_index[old_key]
            if new_key is not None:
                self._pk_index[new_key] = rid
            for index in self._secondary.values():
                index.delete(rid, old_row)
                index.insert(rid, new_row)
            self.version += 1
        if notify:
            self._notify(
                RowChange(
                    self.schema.name, CHANGE_UPDATE, old_row, new_row,
                    rid=rid, compensating=compensating,
                )
            )
        return old_row, new_row

    def delete_by_pk(self, key: tuple, notify: bool = True) -> tuple | None:
        """Delete the row with primary key ``key`` if present."""
        rid = self._pk_index.get(key)
        if rid is None:
            return None
        return self.delete_rid(rid, notify=notify)

    def truncate(self) -> None:
        """Remove all rows without firing observers (bulk-load helper)."""
        with self._lock:
            emptied = self._row_count > 0
            self._blocks.clear()
            self._rid_block.clear()
            self._tail = None
            self._row_count = 0
            self._pk_index.clear()
            for name, index in list(self._secondary.items()):
                fresh: HashIndex | OrderedIndex
                if isinstance(index, OrderedIndex):
                    fresh = OrderedIndex(index.name, index.positions)
                else:
                    fresh = HashIndex(index.name, index.positions)
                self._secondary[name] = fresh
            self.version += 1
        if emptied and self.on_bucket_change is not None:
            self.on_bucket_change(self)

    def bulk_load(self, rows) -> int:
        """Insert many rows without observer notifications; returns count."""
        return self.insert_many(rows, notify=False)


def _column_converter(table: str, column: Column
                      ) -> Callable[[object], object]:
    """``coerce_value`` for ``column``'s type, refusing NULL when the
    column is NOT NULL."""
    convert = value_converter(column.data_type)
    if column.nullable:
        return convert

    def convert_not_null(value: object) -> object:
        stored = convert(value)
        if stored is None:
            raise ConstraintError(
                f"column {column.name!r} of table {table!r} is NOT NULL"
            )
        return stored

    return convert_not_null
