"""End-to-end SQL tests through the Database facade."""

import datetime

import pytest

from repro import Database
from repro.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    UnsupportedSqlError,
)


class TestDdl:
    def test_create_and_drop_table(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
        assert db.catalog.has_table("t")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")

    def test_pk_gets_companion_index(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
        table = db.catalog.table("t")
        assert "t_pk" in table.secondary_indexes()

    def test_create_index(self, db):
        db.execute("CREATE TABLE t (a INT, b VARCHAR)")
        db.execute("CREATE INDEX t_b ON t (b)")
        assert db.catalog.indexes_on("t")[0].name != ""


class TestInsert:
    def test_insert_values(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2
        assert len(db.execute("SELECT * FROM t")) == 2

    def test_insert_with_column_list_fills_nulls(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR, c INT)")
        db.execute("INSERT INTO t (c, a) VALUES (9, 1)")
        assert db.execute("SELECT a, b, c FROM t").rows == [(1, None, 9)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (a INT)")
        db.execute("CREATE TABLE dst (a INT)")
        db.execute("INSERT INTO src VALUES (1), (2), (3)")
        result = db.execute("INSERT INTO dst SELECT a FROM src WHERE a > 1")
        assert result.rowcount == 2

    def test_insert_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_foreign_key_enforced(self, db):
        db.execute("CREATE TABLE parent (id INT PRIMARY KEY)")
        db.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, pid INT, "
            "FOREIGN KEY (pid) REFERENCES parent (id))"
        )
        db.execute("INSERT INTO parent VALUES (1)")
        db.execute("INSERT INTO child VALUES (10, 1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO child VALUES (11, 99)")

    def test_foreign_key_null_allowed(self, db):
        db.execute("CREATE TABLE parent (id INT PRIMARY KEY)")
        db.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, pid INT, "
            "FOREIGN KEY (pid) REFERENCES parent (id))"
        )
        db.execute("INSERT INTO child VALUES (10, NULL)")  # no error


class TestUpdateDelete:
    def test_update(self, patients_db):
        result = patients_db.execute(
            "UPDATE patients SET age = age + 1 WHERE zip = '98101'"
        )
        assert result.rowcount == 2
        ages = dict(
            patients_db.execute(
                "SELECT patientid, age FROM patients"
            ).rows
        )
        assert ages[1] == 41 and ages[3] == 34
        assert ages[2] == 25  # untouched

    def test_update_pk_value(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("UPDATE t SET a = 2")
        assert db.execute("SELECT a FROM t").rows == [(2,)]

    def test_delete(self, patients_db):
        result = patients_db.execute(
            "DELETE FROM disease WHERE disease = 'flu'"
        )
        assert result.rowcount == 3
        remaining = patients_db.execute("SELECT COUNT(*) FROM disease")
        assert remaining.scalar() == 3

    def test_delete_all(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert db.execute("DELETE FROM t").rowcount == 2


class TestSelect:
    def test_projection_and_alias(self, patients_db):
        result = patients_db.execute(
            "SELECT name, age * 2 AS dbl FROM patients WHERE patientid = 1"
        )
        assert result.columns == ("name", "dbl")
        assert result.rows == [("Alice", 80)]

    def test_star_columns(self, patients_db):
        result = patients_db.execute("SELECT * FROM patients")
        assert result.columns == ("patientid", "name", "age", "zip")

    def test_qualified_star(self, patients_db):
        result = patients_db.execute(
            "SELECT p.* FROM patients p, disease d "
            "WHERE p.patientid = d.patientid AND d.disease = 'cancer'"
        )
        assert result.columns == ("patientid", "name", "age", "zip")
        assert sorted(row[1] for row in result.rows) == ["Alice", "Erin"]

    def test_order_by_alias_and_direction(self, patients_db):
        result = patients_db.execute(
            "SELECT name, age AS years FROM patients ORDER BY years DESC"
        )
        assert result.rows[0][0] == "Dave"

    def test_order_by_hidden_column(self, patients_db):
        result = patients_db.execute(
            "SELECT name FROM patients ORDER BY age"
        )
        assert result.columns == ("name",)
        assert result.rows[0] == ("Bob",)

    def test_order_by_ordinal(self, patients_db):
        result = patients_db.execute(
            "SELECT name, age FROM patients ORDER BY 2 DESC"
        )
        assert result.rows[0][0] == "Dave"

    def test_limit(self, patients_db):
        assert len(patients_db.execute(
            "SELECT * FROM patients ORDER BY patientid LIMIT 2"
        )) == 2

    def test_top(self, patients_db):
        result = patients_db.execute(
            "SELECT TOP 1 name FROM patients ORDER BY age DESC"
        )
        assert result.rows == [("Dave",)]

    def test_distinct(self, patients_db):
        result = patients_db.execute("SELECT DISTINCT zip FROM patients")
        assert sorted(result.rows) == [("98101",), ("98102",), ("98103",)]

    def test_distinct_order_by_requires_selected(self, patients_db):
        with pytest.raises(BindError):
            patients_db.execute(
                "SELECT DISTINCT zip FROM patients ORDER BY age"
            )

    def test_group_by_having(self, patients_db):
        result = patients_db.execute(
            "SELECT disease, COUNT(*) AS c FROM disease "
            "GROUP BY disease HAVING COUNT(*) >= 2 ORDER BY disease"
        )
        assert result.rows == [("cancer", 2), ("flu", 3)]

    def test_global_aggregate_on_empty_input(self, db):
        db.execute("CREATE TABLE t (a INT)")
        result = db.execute("SELECT COUNT(*), SUM(a), MIN(a) FROM t")
        assert result.rows == [(0, None, None)]

    def test_group_by_empty_input_yields_no_groups(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        result = db.execute("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert result.rows == []

    def test_group_by_expression(self, patients_db):
        result = patients_db.execute(
            "SELECT age / 10, COUNT(*) FROM patients GROUP BY age / 10"
        )
        assert len(result.rows) >= 2

    def test_column_not_in_group_by_rejected(self, patients_db):
        with pytest.raises(BindError):
            patients_db.execute(
                "SELECT name, COUNT(*) FROM patients GROUP BY zip"
            )

    def test_having_without_group_rejected(self, patients_db):
        with pytest.raises(BindError):
            patients_db.execute("SELECT name FROM patients HAVING age > 1")

    def test_ambiguous_column_rejected(self, patients_db):
        with pytest.raises(BindError):
            patients_db.execute(
                "SELECT patientid FROM patients, disease"
            )

    def test_unknown_column_rejected(self, patients_db):
        with pytest.raises(BindError):
            patients_db.execute("SELECT nothere FROM patients")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT 1 FROM ghosts")

    def test_from_less_select(self, db):
        assert db.execute("SELECT 1 + 1").rows == [(2,)]

    def test_explicit_join(self, patients_db):
        result = patients_db.execute(
            "SELECT p.name FROM patients p JOIN disease d "
            "ON p.patientid = d.patientid WHERE d.disease = 'diabetes'"
        )
        assert result.rows == [("Dave",)]

    def test_left_join_preserves_unmatched(self, db):
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (x INT, y VARCHAR)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        db.execute("INSERT INTO b VALUES (1, 'hit')")
        result = db.execute(
            "SELECT a.x, b.y FROM a LEFT JOIN b ON a.x = b.x ORDER BY a.x"
        )
        assert result.rows == [(1, "hit"), (2, None)]

    def test_derived_table(self, patients_db):
        result = patients_db.execute(
            "SELECT d.name FROM (SELECT name, age FROM patients "
            "WHERE age > 40) d WHERE d.age < 50"
        )
        assert result.rows == [("Erin",)]

    def test_case_in_select(self, patients_db):
        result = patients_db.execute(
            "SELECT name, CASE WHEN age >= 40 THEN 'senior' "
            "ELSE 'junior' END AS bracket FROM patients "
            "WHERE patientid IN (1, 2)"
        )
        assert dict(result.rows) == {"Alice": "senior", "Bob": "junior"}

    def test_parameters(self, patients_db):
        result = patients_db.execute(
            "SELECT name FROM patients WHERE age > :cutoff",
            {"cutoff": 45},
        )
        assert sorted(result.rows) == [("Dave",), ("Erin",)]

    def test_date_parameter_with_interval(self, db):
        db.execute("CREATE TABLE t (d DATE)")
        db.execute("INSERT INTO t VALUES ('1995-06-01'), ('1995-01-05')")
        result = db.execute(
            "SELECT d FROM t WHERE d < :base + INTERVAL '3' MONTH",
            {"base": datetime.date(1995, 1, 1)},
        )
        assert result.rows == [(datetime.date(1995, 1, 5),)]


class TestSubqueries:
    def test_uncorrelated_in(self, patients_db):
        result = patients_db.execute(
            "SELECT name FROM patients WHERE patientid IN "
            "(SELECT patientid FROM disease WHERE disease = 'cancer')"
        )
        assert sorted(result.rows) == [("Alice",), ("Erin",)]

    def test_correlated_exists(self, patients_db):
        result = patients_db.execute(
            "SELECT name FROM patients p WHERE EXISTS "
            "(SELECT 1 FROM disease d WHERE d.patientid = p.patientid "
            "AND d.disease = 'flu')"
        )
        assert sorted(result.rows) == [("Bob",), ("Carol",), ("Erin",)]

    def test_correlated_not_exists(self, patients_db):
        patients_db.execute("INSERT INTO patients VALUES (9, 'Zed', 30, 'z')")
        result = patients_db.execute(
            "SELECT name FROM patients p WHERE NOT EXISTS "
            "(SELECT 1 FROM disease d WHERE d.patientid = p.patientid)"
        )
        assert ("Zed",) in result.rows

    def test_scalar_subquery(self, patients_db):
        result = patients_db.execute(
            "SELECT name FROM patients WHERE age > "
            "(SELECT AVG(age) FROM patients)"
        )
        assert sorted(result.rows) == [("Dave",), ("Erin",)]

    def test_scalar_subquery_empty_is_null(self, patients_db):
        result = patients_db.execute(
            "SELECT (SELECT age FROM patients WHERE patientid = 999)"
        )
        assert result.rows == [(None,)]

    def test_scalar_subquery_multiple_rows_raises(self, patients_db):
        with pytest.raises(ExecutionError):
            patients_db.execute("SELECT (SELECT age FROM patients)")

    def test_paper_example_1_2_inference_query(self, patients_db):
        """Example 1.2: EXISTS probing for Alice having cancer."""
        result = patients_db.execute(
            "SELECT 1 FROM patients WHERE EXISTS "
            "(SELECT * FROM patients p, disease d "
            "WHERE p.patientid = d.patientid AND name = 'Alice' "
            "AND disease = 'cancer')"
        )
        assert len(result.rows) == 5  # one per patient row

    def test_correlated_inequality_subquery(self, patients_db):
        """The paper's self-join subquery (Example 3.8(c) shape)."""
        result = patients_db.execute(
            "SELECT name FROM patients p1 WHERE name IN "
            "(SELECT name FROM patients p2 WHERE p1.zip <> p2.zip)"
        )
        assert result.rows == []  # names are unique across zips

    def test_not_in_subquery_null_semantics(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE s (b INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO s VALUES (2), (NULL)")
        # NOT IN with a NULL in the subquery: UNKNOWN, so no rows
        assert db.execute(
            "SELECT a FROM t WHERE a NOT IN (SELECT b FROM s)"
        ).rows == []


class TestMisc:
    def test_execute_script(self, db):
        results = db.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT * FROM t"
        )
        assert results[-1].rows == [(1,)]

    def test_explain_mentions_operators(self, patients_db):
        text = patients_db.explain(
            "SELECT name FROM patients WHERE age > 30"
        )
        assert "logical" in text and "physical" in text
        assert "Scan" in text

    def test_explain_rejects_ddl(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(UnsupportedSqlError):
            db.explain("CREATE TABLE u (a INT)")

    def test_analyze(self, patients_db):
        patients_db.execute("ANALYZE")
        stats = patients_db.catalog.statistics("patients")
        assert stats.row_count == 5
        assert stats.columns["age"].min_value == 25

    def test_result_helpers(self, patients_db):
        result = patients_db.execute(
            "SELECT patientid FROM patients ORDER BY patientid"
        )
        assert result.scalar() == 1
        assert result.column(0) == [1, 2, 3, 4, 5]
        assert list(iter(result))[0] == (1,)


class TestDropDependencies:
    def test_drop_table_with_audit_expression_refused(self, patients_db):
        patients_db.execute(
            "CREATE AUDIT EXPRESSION a AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        with pytest.raises(CatalogError, match="audit expression"):
            patients_db.execute("DROP TABLE patients")
        # dropping the expression first unblocks the table
        patients_db.execute("DROP AUDIT EXPRESSION a")
        patients_db.execute("DROP TABLE patients")
        assert not patients_db.catalog.has_table("patients")

    def test_drop_table_with_join_expression_refused(self, patients_db):
        patients_db.execute(
            "CREATE AUDIT EXPRESSION a AS SELECT p.* FROM patients p, "
            "disease d WHERE p.patientid = d.patientid "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        # disease is only a join partner, but the view depends on it
        with pytest.raises(CatalogError):
            patients_db.execute("DROP TABLE disease")

    def test_drop_table_with_dml_trigger_refused(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TRIGGER trg ON t AFTER INSERT AS NOTIFY 'x'")
        with pytest.raises(CatalogError, match="trigger"):
            db.execute("DROP TABLE t")
        db.execute("DROP TRIGGER trg")
        db.execute("DROP TABLE t")
