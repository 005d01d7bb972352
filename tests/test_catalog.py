"""Unit tests for the catalog registry and UNIQUE index enforcement."""

import pytest

from repro.catalog.catalog import Catalog, IndexDefinition
from repro.catalog.schema import Column, TableSchema
from repro.cluster import ClusterDatabase
from repro.datatypes import INTEGER, VARCHAR
from repro.errors import CatalogError, ConstraintError, TriggerError
from repro.storage.table import Table


def make_table(name="t"):
    return Table(TableSchema(
        name,
        (Column("id", INTEGER), Column("v", VARCHAR)),
        primary_key=("id",),
    ))


class TestStatisticsEpoch:
    def test_a_firing_leaves_version_and_epoch_alone(self, patients_db):
        """A firing's ``accessed`` is bound, not registered: a reader
        checking the DDL version or refreshing the epoch meanwhile sees
        no move (every move invalidates every cached plan)."""
        db = patients_db
        db.execute_script(
            "CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid;"
            "CREATE TRIGGER copy ON ACCESS TO aud AS "
            "INSERT INTO log SELECT 'x', 'y', 'z', patientid FROM accessed"
        )
        catalog = db.catalog
        # the log's own growth stays in one statistics bucket
        catalog.table("log").bulk_load([("old", "", "", 0)] * 200)

        def tags():
            return (
                catalog.version, catalog.refresh_stats_version(),
                catalog.has_table("accessed"),
            )

        before = tags()
        seen = []
        firing = db.trigger_manager.firing
        execute = firing._execute

        def observing(statement):
            seen.append(tags())
            execute(statement)

        firing._execute = observing
        db.execute("SELECT name FROM patients WHERE patientid <= 3")
        assert seen == [before] and tags() == before
        assert db.execute(
            "SELECT patientid FROM log WHERE ts = 'x'"
        ).column() == [1, 2, 3]

    def test_every_kind_of_crossing_moves_the_epoch_once(self):
        """Inserts, deletes and truncate each report the bucket crossings
        they make; a crossing undone before the next check (4 -> 3 -> 4)
        leaves the epoch where it was, as a full re-bucketing would."""
        catalog = Catalog()
        table = make_table()
        catalog.add_table(table)
        table.bulk_load([(key, "v") for key in range(4)])
        epoch = catalog.refresh_stats_version()
        rid = next(iter(table._rid_block))
        row = table.delete_rid(rid)  # 4 -> 3: bucket 3 -> 2
        rid = table.insert(row)  # and back
        assert catalog.refresh_stats_version() == epoch
        table.delete_rid(rid)
        assert catalog.refresh_stats_version() == epoch + 1
        table.insert((9, "v"))  # 3 -> 4
        assert catalog.refresh_stats_version() == epoch + 2
        table.truncate()
        assert catalog.refresh_stats_version() == epoch + 3
        table.truncate()  # already empty: no crossing
        assert catalog.refresh_stats_version() == epoch + 3

    def test_a_dropped_table_stops_reporting(self):
        catalog = Catalog()
        table = make_table()
        catalog.add_table(table)
        epoch = catalog.refresh_stats_version()
        catalog.drop_table("t")
        table.bulk_load([(1, "a"), (2, "b")])
        assert catalog.refresh_stats_version() == epoch
        assert table.on_bucket_change is None


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
        catalog.add_table(make_table("u"))
        catalog.add_index(IndexDefinition("i", "t", ("v",)))
        catalog.add_index(IndexDefinition("j", "u", ("v",)))
        catalog.statistics("t")
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert catalog.indexes_on("t") == []
        assert [d.name for d in catalog.indexes_on("u")] == ["j"]

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


class TestAccessedIndex:
    def test_create_index_on_accessed_is_refused(self, patients_db):
        """``accessed`` is the firing's row list, not a table: a body
        that indexes it is refused on both engines, and the failed
        firing leaves no index behind."""
        cluster = ClusterDatabase(shards=2)
        cluster.execute_script(
            "CREATE TABLE patients (patientid INT PRIMARY KEY, "
            "name VARCHAR);"
            "INSERT INTO patients VALUES (1, 'Alice'), (2, 'Bob');"
        )
        try:
            for db in (patients_db, cluster):
                db.execute_script(
                    "CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients "
                    "FOR SENSITIVE TABLE patients, PARTITION BY patientid;"
                    "CREATE TRIGGER idx ON ACCESS TO aud AS "
                    "CREATE INDEX acc_pid ON accessed (patientid)"
                )
                for __ in range(2):
                    with pytest.raises(TriggerError, match="cannot be indexed"):
                        db.execute(
                            "SELECT name FROM patients WHERE patientid = 1"
                        )
                assert db.catalog.indexes_on("accessed") == []
                assert [d.name for d in db.catalog.indexes_on("patients")] \
                    == ["patients_pk"]
        finally:
            cluster.close()


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
