"""Unit tests for the catalog registry and UNIQUE index enforcement."""

import pytest

from repro.catalog.catalog import Catalog, IndexDefinition
from repro.catalog.schema import Column, TableSchema
from repro.datatypes import INTEGER, VARCHAR
from repro.errors import CatalogError, ConstraintError
from repro.storage.table import Table


def make_table(name="t"):
    return Table(TableSchema(
        name,
        (Column("id", INTEGER), Column("v", VARCHAR)),
        primary_key=("id",),
    ))


class TestStatisticsEpoch:
    def test_transient_tables_leave_the_epoch_alone(self):
        """A firing's ``accessed`` relation comes and goes; a reader
        refreshing the epoch meanwhile must not see a cardinality move
        (every move invalidates every cached plan)."""
        catalog = Catalog()
        table = make_table()
        table.bulk_load([(1, "a"), (2, "b")])
        catalog.add_table(table)
        epoch = catalog.refresh_stats_version()
        accessed = Table(TableSchema("accessed", (Column("id", INTEGER),)))
        accessed.bulk_load([(1,), (2,), (3,)])
        catalog.add_table(accessed, transient=True)
        assert catalog.refresh_stats_version() == epoch
        catalog.drop_table("accessed", transient=True)
        assert catalog.refresh_stats_version() == epoch
        table.bulk_load([(3, "c"), (4, "d")])
        assert catalog.refresh_stats_version() == epoch + 1


class TestCatalogRegistry:
    def test_add_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.add_table(make_table("orders"))
        assert catalog.table("ORDERS") is catalog.table("orders")
        assert catalog.has_table("Orders")

    def test_duplicate_table(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        with pytest.raises(CatalogError):
            catalog.add_table(make_table())

    def test_drop_table_removes_indexes_and_stats(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        catalog.add_index(IndexDefinition("i", "t", ("v",)))
        catalog.statistics("t")
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert catalog.indexes_on("t") == []

    def test_drop_missing_table(self):
        with pytest.raises(CatalogError):
            Catalog().drop_table("ghost")

    def test_index_requires_table(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.add_index(IndexDefinition("i", "ghost", ("v",)))

    def test_duplicate_index(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        catalog.add_index(IndexDefinition("i", "t", ("v",)))
        with pytest.raises(CatalogError):
            catalog.add_index(IndexDefinition("i", "t", ("id",)))

    def test_trigger_registry(self):
        catalog = Catalog()
        marker = object()
        catalog.add_trigger("trig", marker)
        assert catalog.trigger("TRIG") is marker
        with pytest.raises(CatalogError):
            catalog.add_trigger("trig", object())
        catalog.drop_trigger("trig")
        with pytest.raises(CatalogError):
            catalog.trigger("trig")

    def test_audit_expression_registry(self):
        catalog = Catalog()
        marker = object()
        catalog.add_audit_expression("a", marker)
        assert catalog.audit_expression("A") is marker
        assert list(catalog.audit_expressions()) == [marker]
        catalog.drop_audit_expression("a")
        with pytest.raises(CatalogError):
            catalog.audit_expression("a")

    def test_statistics_cached_until_table_changes(self):
        catalog = Catalog()
        table = make_table()
        catalog.add_table(table)
        first = catalog.statistics("t")
        assert catalog.statistics("t") is first  # cached
        table.insert((1, "x"))
        assert catalog.statistics("t") is not first


class TestUniqueIndexes:
    def test_insert_conflict_rejected(self, db):
        db.execute("CREATE TABLE t (a INT, email VARCHAR)")
        db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
        db.execute("INSERT INTO t VALUES (1, 'x@example.com')")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (2, 'x@example.com')")

    def test_update_conflict_rejected(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, email VARCHAR)")
        db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
        db.execute("INSERT INTO t VALUES (1, 'x@x'), (2, 'y@y')")
        with pytest.raises(ConstraintError):
            db.execute("UPDATE t SET email = 'x@x' WHERE a = 2")

    def test_update_to_same_row_allowed(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, email VARCHAR)")
        db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
        db.execute("INSERT INTO t VALUES (1, 'x@x')")
        db.execute("UPDATE t SET a = 1 WHERE a = 1")  # self-identity ok

    def test_null_keys_never_conflict(self, db):
        db.execute("CREATE TABLE t (a INT, email VARCHAR)")
        db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
        db.execute("INSERT INTO t VALUES (1, NULL), (2, NULL)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_creation_over_duplicates_rejected(self, db):
        db.execute("CREATE TABLE t (a INT, email VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'x@x'), (2, 'x@x')")
        with pytest.raises(ConstraintError):
            db.execute("CREATE UNIQUE INDEX t_email ON t (email)")

    def test_delete_frees_the_key(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, email VARCHAR)")
        db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
        db.execute("INSERT INTO t VALUES (1, 'x@x')")
        db.execute("DELETE FROM t WHERE a = 1")
        db.execute("INSERT INTO t VALUES (2, 'x@x')")  # no error

    def test_unique_violation_rolls_back_statement(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, email VARCHAR)")
        db.execute("CREATE UNIQUE INDEX t_email ON t (email)")
        with pytest.raises(ConstraintError):
            db.execute(
                "INSERT INTO t VALUES (1, 'a@a'), (2, 'a@a')"
            )
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0
