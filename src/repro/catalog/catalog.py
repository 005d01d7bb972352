"""The catalog: the registry of all named objects in a database.

The catalog owns tables (storage objects), secondary-index definitions,
triggers, and audit expressions. It is deliberately ignorant of their
implementations — storage and audit modules register concrete objects here —
which keeps the dependency graph acyclic (catalog ← storage ← executor ...).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.catalog.statistics import TableStatistics
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table


@dataclass(frozen=True)
class IndexDefinition:
    """A secondary index over ``table.columns`` (ordered or hash)."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


class Catalog:
    """Mutable registry of tables, indexes, triggers, and audit expressions."""

    def __init__(self) -> None:
        self._tables: dict[str, "Table"] = {}
        self._indexes: dict[str, IndexDefinition] = {}
        #: table name -> names of its indexes, so dropping a table
        #: touches only its own definitions
        self._table_indexes: dict[str, list[str]] = {}
        self._statistics: dict[str, TableStatistics] = {}
        # Trigger and audit-expression objects are registered by their
        # subsystems; the catalog only provides named storage + lookup.
        self._triggers: dict[str, object] = {}
        self._audit_expressions: dict[str, object] = {}
        #: monotonic counter bumped by every DDL-level change (tables,
        #: indexes, triggers); plan caches key their entries on it so any
        #: change that could alter a compiled plan invalidates
        self.version = 0
        #: statistics epoch, advanced whenever some table's row count
        #: sits in another power-of-two bucket than at the last check —
        #: DML that materially changes cardinalities invalidates cached
        #: plans costed against the old statistics, while steady small
        #: churn does not thrash the plan cache
        self.stats_version = 0
        #: bucket (``len(table).bit_length()``) of each table at the
        #: last check
        self._stats_buckets: dict[str, int] = {}
        #: tables that reported a bucket crossing since the last check;
        #: a table reports under its own lock, so this is filled without
        #: the catalog lock (``set.add`` is atomic)
        self._crossed: set["Table"] = set()
        # Serializes registry mutation, version bumps, and the lazy
        # statistics cache against concurrent DDL / serving threads.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # tables

    def add_table(self, table: "Table") -> None:
        """Register a table."""
        with self._lock:
            name = table.schema.name.lower()
            if name in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            self._tables[name] = table
            self.version += 1
            self._stats_buckets[name] = len(table).bit_length()
            table.on_bucket_change = self._crossed.add

    def drop_table(self, name: str) -> None:
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                raise CatalogError(f"table {name!r} does not exist")
            table = self._tables.pop(key)
            self._stats_buckets.pop(key)
            table.on_bucket_change = None
            self._statistics.pop(key, None)
            for index_name in self._table_indexes.pop(key, ()):
                del self._indexes[index_name]
            self.version += 1

    def table(self, name: str) -> "Table":
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator["Table"]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # secondary indexes

    def add_index(self, definition: IndexDefinition) -> None:
        with self._lock:
            key = definition.name.lower()
            if key in self._indexes:
                raise CatalogError(
                    f"index {definition.name!r} already exists"
                )
            if not self.has_table(definition.table):
                raise CatalogError(
                    f"index {definition.name!r} references missing table "
                    f"{definition.table!r}"
                )
            self._indexes[key] = definition
            self._table_indexes.setdefault(
                definition.table.lower(), []
            ).append(key)
            self.version += 1

    def indexes_on(self, table: str) -> list[IndexDefinition]:
        return [
            self._indexes[name]
            for name in self._table_indexes.get(table.lower(), ())
        ]

    # ------------------------------------------------------------------
    # statistics

    def statistics(self, table_name: str) -> TableStatistics:
        """Return fresh statistics, re-gathering if the table changed."""
        table = self.table(table_name)
        key = table_name.lower()
        with self._lock:
            cached = self._statistics.get(key)
            if cached is not None and cached.version == table.version:
                return cached
            stats = TableStatistics.gather(
                table.schema.column_names, table.rows(), table.version,
                block_count=getattr(table, "block_count", 0),
            )
            self._statistics[key] = stats
            return stats

    def refresh_stats_version(self) -> int:
        """Advance :attr:`stats_version` if any table's cardinality moved.

        DML does not bump the DDL :attr:`version` (that would defeat plan
        caching), but a plan costed when a table was empty should not
        survive a bulk load. Row counts are bucketed by power of two: the
        epoch advances exactly when some table's count sits in another
        bucket than at the last check, i.e. when cached cost estimates
        are off by more than 2x. Tables report their own crossings, so a
        check with none reported is one set test — cheap enough to run
        per statement and per firing.
        """
        if not self._crossed:
            return self.stats_version
        with self._lock:
            moved = False
            while self._crossed:
                table = self._crossed.pop()
                name = table.schema.name.lower()
                if self._tables.get(name) is not table:
                    continue  # dropped since it reported
                bucket = len(table).bit_length()
                if self._stats_buckets.get(name) != bucket:
                    self._stats_buckets[name] = bucket
                    moved = True
            if moved:
                self.stats_version += 1
            return self.stats_version

    def sketch_block_selectivity(
        self, table_name: str, column_name: str, ids
    ) -> float:
        """Fraction of the table's blocks that may contain any of ``ids``.

        The data-skipping cost input: an audit operator placed directly
        over a scan of ``table_name`` probes only the blocks whose
        sensitive-ID sketch (plus zone range) admits a candidate, so its
        expected probe cardinality is ``row_count x`` this fraction.
        Returns 1.0 (no skipping benefit) whenever the column is not
        sketched or the consult would not be conservative-cheap.
        """
        table = self.table(table_name)
        try:
            position = table.schema.position_of(column_name)
        except Exception:
            return 1.0
        if position not in getattr(table, "sketch_positions", ()):
            return 1.0
        blocks = table.blocks()
        if not blocks:
            return 1.0
        ids = set(ids)
        if not ids:
            return 0.0
        if len(ids) > 2048:
            return 1.0
        try:
            lo, hi = min(ids), max(ids)
        except TypeError:
            lo = hi = None
        admitted = sum(
            1
            for block in blocks
            if table.fresh_summary(block).may_contain_any(
                position, ids, lo, hi
            )
        )
        return admitted / len(blocks)

    # ------------------------------------------------------------------
    # triggers

    def add_trigger(self, name: str, trigger: object) -> None:
        with self._lock:
            key = name.lower()
            if key in self._triggers:
                raise CatalogError(f"trigger {name!r} already exists")
            self._triggers[key] = trigger
            self.version += 1

    def drop_trigger(self, name: str) -> None:
        with self._lock:
            if name.lower() not in self._triggers:
                raise CatalogError(f"trigger {name!r} does not exist")
            del self._triggers[name.lower()]
            self.version += 1

    def trigger(self, name: str) -> object:
        try:
            return self._triggers[name.lower()]
        except KeyError:
            raise CatalogError(f"trigger {name!r} does not exist") from None

    def triggers(self) -> Iterator[object]:
        return iter(self._triggers.values())

    # ------------------------------------------------------------------
    # audit expressions

    def add_audit_expression(self, name: str, expression: object) -> None:
        key = name.lower()
        if key in self._audit_expressions:
            raise CatalogError(f"audit expression {name!r} already exists")
        self._audit_expressions[key] = expression

    def drop_audit_expression(self, name: str) -> None:
        if name.lower() not in self._audit_expressions:
            raise CatalogError(f"audit expression {name!r} does not exist")
        del self._audit_expressions[name.lower()]

    def audit_expression(self, name: str) -> object:
        try:
            return self._audit_expressions[name.lower()]
        except KeyError:
            raise CatalogError(
                f"audit expression {name!r} does not exist"
            ) from None

    def audit_expressions(self) -> Iterator[object]:
        return iter(self._audit_expressions.values())
