"""UPDATE and DELETE find their rows through the planner's access path.

The WHERE of a DML statement gets the access path a one-table SELECT
would (index seek, index range, zone-skipping scan). What must not depend
on that choice, checked here:

* the answer: a hypothesis differential runs random UPDATE/DELETE
  statements against an indexed table and an unindexed twin and demands
  the same rowcount or error class, the same final contents in rid order,
  the same row-trigger log sequence, and matched rows equal to the
  reference interpreter's ``SELECT * ... WHERE <where>``;
* the apply order: ascending rid, also for a row a ROLLBACK restored
  into the tail block;
* type errors: ``id = '3'`` on an INT column raises the same
  :class:`ExecutionError` on every path, with a literal or a parameter.

Plus a work-count guard (a key-targeted write on a 20 000-row table reads
no block) and EXPLAIN of UPDATE/DELETE.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.errors import ExecutionError, ReproError
from repro.sql.parser import parse_statement
from repro.storage.table import Table
from repro.testing.reference import reference_rows

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ``t`` is indexed (PK + hash index on a + ordered index on b); ``u`` is
#: its twin with the same PK constraint and no index the planner can use
TABLES = ("t", "u")


def _rid_contents(db: Database, name: str) -> list[tuple[int, tuple]]:
    table = db.catalog.table(name)
    return sorted(
        (rid, row) for block in table.blocks()
        for rid, row in block.rows.items()
    )


def _build(rows: list[tuple], restored: list[int]) -> Database:
    db = Database()
    db.block_size = 4  # several blocks, so zone maps can skip some
    db.execute_script(
        "CREATE TABLE other (k INT, w INT);"
        "INSERT INTO other VALUES (0, 5), (1, 0), (3, 9), (NULL, 2);"
    )
    for name in TABLES:
        db.execute_script(
            f"CREATE TABLE {name} (id INT PRIMARY KEY, a INT, b INT, v INT);"
            f"CREATE TABLE {name}_log (op VARCHAR, id INT, a INT, b INT, "
            "v INT);"
            f"CREATE TRIGGER {name}_upd ON {name} AFTER UPDATE AS "
            f"INSERT INTO {name}_log VALUES ('u', old.id, old.a, old.b, "
            "old.v);"
            f"CREATE TRIGGER {name}_del ON {name} AFTER DELETE AS "
            f"INSERT INTO {name}_log VALUES ('d', old.id, old.a, old.b, "
            "old.v);"
        )
        for row in rows:
            db.execute(
                f"INSERT INTO {name} VALUES ({', '.join(map(_sql, row))})"
            )
        if restored:
            # a rolled-back DELETE restores rows into the tail block: heap
            # order stops being rid order
            db.execute("BEGIN")
            db.execute(f"DELETE FROM {name} WHERE id IN "
                       f"({', '.join(map(str, restored))})")
            db.execute("ROLLBACK")
    indexed = db.catalog.table("t")
    indexed.create_secondary_index("t_a", ("a",), ordered=False)
    indexed.create_secondary_index("t_b", ("b",))
    # the twin keeps its PK constraint (so SET id = id + 1 can fail on
    # both tables) but the planner sees no index on it
    db.catalog.table("u").secondary_indexes = dict
    return db


def _sql(value: object) -> str:
    return "NULL" if value is None else repr(value)


#: WHERE shapes over target table {t}; {k}/{j} are drawn values and {s}
#: is ``str(k)`` (a type mismatch on an INT column), each inlined as a
#: literal or passed as the parameter :k/:j/:s
WHERES = [
    None,
    "id = {k}",
    "a = {k}",
    "b = {k}",
    "b > {k}",
    "b <= {k} AND b >= {j}",
    "b BETWEEN {j} AND {k}",
    "id >= {k} AND v < {j}",
    "a = {k} AND v > {j}",
    "id = {k} OR b = {j}",
    "a = {k} OR v IS NULL",
    "id IN (SELECT id FROM {t} WHERE v < {k})",
    "v > (SELECT AVG(v) FROM {t})",
    "b = (SELECT MAX(b) FROM {t} WHERE a = {k})",
    "a IN (SELECT k FROM other WHERE w > {k})",
    "EXISTS (SELECT 1 FROM other o WHERE o.k = {t}.a AND o.w >= {j})",
    "NOT EXISTS (SELECT 1 FROM other o WHERE o.k = {t}.b)",
    "id = {s}",
    "a = {k} AND b = {s}",
]

STATEMENTS = [
    "UPDATE {t} SET v = v + 1",
    "UPDATE {t} SET id = id + 1",
    "UPDATE {t} SET b = b + {j}, v = {k}",
    "DELETE FROM {t}",
]

values = st.one_of(st.none(), st.integers(0, 6))
row_lists = st.lists(
    st.tuples(st.integers(0, 15), values, values, values),
    min_size=1,
    max_size=12,
    unique_by=lambda row: row[0],
)


def _render(text: str, table: str, k, j, as_parameters: bool) -> str:
    if as_parameters:
        return text.format(t=table, k=":k", j=":j", s=":s")
    return text.format(t=table, k=_sql(k), j=_sql(j), s=_sql(str(k)))


def _outcome(db: Database, sql: str, parameters, transaction: bool):
    if transaction:
        db.execute("BEGIN")
    try:
        return ("ok", db.execute(sql, parameters).rowcount)
    except ReproError as error:  # the class is the outcome
        return ("error", type(error).__name__)


class TestAccessPathDifferential:
    @_SETTINGS
    @given(
        rows=row_lists,
        restore=st.lists(st.integers(0, 15), max_size=4, unique=True),
        statement=st.sampled_from(STATEMENTS),
        where=st.sampled_from(WHERES),
        k=values,
        j=values,
        as_parameters=st.booleans(),
        transaction=st.booleans(),
    )
    def test_indexed_and_unindexed_agree(
        self, rows, restore, statement, where, k, j, as_parameters,
        transaction,
    ):
        present = {row[0] for row in rows}
        db = _build(rows, [rid for rid in restore if rid in present])
        parameters = (
            {"k": k, "j": j, "s": str(k)} if as_parameters else None
        )
        observed = []
        for name in TABLES:
            text = statement + ("" if where is None else f" WHERE {where}")
            sql = _render(text, name, k, j, as_parameters)
            reference_sql = f"SELECT * FROM {name}" + (
                "" if where is None
                else " WHERE " + _render(where, name, k, j, False)
            )
            before = _rid_contents(db, name)
            try:
                expected = reference_rows(
                    db._builder.build_select(parse_statement(reference_sql)),
                    db.catalog,
                )
            except ExecutionError:
                expected = None
            outcome = _outcome(db, sql, parameters, transaction)
            # the row-trigger log, in firing order: (op, old row image)
            log = db.execute(f"SELECT * FROM {name}_log").rows
            if outcome[0] == "ok":
                assert expected is not None, sql
                assert sorted((row[1:] for row in log), key=repr) == \
                    sorted(expected, key=repr)
                assert outcome[1] == len(expected)
            else:
                assert _rid_contents(db, name) == before
            if transaction:
                db.execute("ROLLBACK")
                assert _rid_contents(db, name) == before
            observed.append((outcome, log, _rid_contents(db, name)))
        assert "TableScan" in db.explain(
            _render(statement + " WHERE id = {k}", "u", k, j, as_parameters)
        )
        assert observed[0] == observed[1]


# ---------------------------------------------------------------------------
# apply order


def test_targets_apply_in_ascending_rid_order_after_rollback_restore():
    db = Database()
    db.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, v INT);"
        "CREATE TABLE seen (id INT);"
        "CREATE TRIGGER t_upd ON t AFTER UPDATE AS "
        "INSERT INTO seen VALUES (old.id);"
        "INSERT INTO t VALUES (0, 0), (1, 1), (2, 2), (3, 3), (4, 4);"
        "BEGIN; DELETE FROM t WHERE id = 1; ROLLBACK;"
    )
    # the restored row sits in the tail block: heap order is 0, 2, 3, 4, 1
    assert [row[0] for row in db.execute("SELECT id FROM t").rows] == [
        0, 2, 3, 4, 1
    ]
    for where in ("v >= 0", "id >= 0", "id IN (0, 1, 2, 3, 4)"):
        db.execute("DELETE FROM seen")
        db.execute(f"UPDATE t SET v = v + 1 WHERE {where}")
        assert [row[0] for row in db.execute("SELECT id FROM seen").rows] \
            == [0, 1, 2, 3, 4], where


# ---------------------------------------------------------------------------
# type mismatch: one error, every path


KEYED_ROWS = [(i, 10 * i, f"s{i}") for i in range(1, 21)]


@pytest.fixture
def keyed_db():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)")
    for row in KEYED_ROWS:
        db.execute("INSERT INTO t VALUES (:i, :v, :s)",
                   dict(zip("ivs", row)))
    return db


@pytest.mark.parametrize("path, where", [
    ("IndexSeek", "id = {}"),
    ("TableScan", "v = {}"),
    # a string literal bound prices the range at a guessed 30 %, so only
    # the parameter (priced from the literal side) takes the index
    ("IndexRange", "id < {} AND id > 18"),
])
@pytest.mark.parametrize("statement", [
    "SELECT * FROM t WHERE {}",
    "UPDATE t SET v = 0 WHERE {}",
    "DELETE FROM t WHERE {}",
])
@pytest.mark.parametrize("as_parameter", [False, True])
def test_type_mismatch_raises_one_error_on_every_path(
    keyed_db, path, where, statement, as_parameter
):
    sql = statement.format(where.format(":k" if as_parameter else "'3'"))
    if path == "IndexRange" and not as_parameter:
        path = "TableScan"
    assert path in keyed_db.explain(sql)
    with pytest.raises(ExecutionError) as caught:
        keyed_db.execute(sql, {"k": "3"} if as_parameter else None)
    column = "id" if "id" in where else "v"
    assert str(caught.value) == (
        f"cannot compare INTEGER column '{column}' with VARCHAR value '3'"
    )
    assert keyed_db.execute("SELECT * FROM t").rows == KEYED_ROWS


def test_type_mismatch_raises_on_an_empty_table_too(keyed_db):
    keyed_db.execute("DELETE FROM t")
    for sql in ("SELECT * FROM t WHERE id = '3'",
                "SELECT * FROM t WHERE v = '3'",
                "UPDATE t SET v = 1 WHERE id = '3'",
                "DELETE FROM t WHERE v = '3'"):
        with pytest.raises(ExecutionError, match="cannot compare"):
            keyed_db.execute(sql)


def test_comparison_type_error_is_an_execution_error(keyed_db):
    # neither side is a row-independent bound: the row closure compares
    with pytest.raises(ExecutionError, match="INTEGER value .* VARCHAR"):
        keyed_db.execute("SELECT * FROM t WHERE v < s")
    with pytest.raises(ExecutionError, match="INTEGER value .* VARCHAR"):
        keyed_db.execute("DELETE FROM t WHERE v < s")


# ---------------------------------------------------------------------------
# work-count guard and EXPLAIN


@pytest.fixture(scope="module")
def big_db():
    db = Database()
    db.execute("CREATE TABLE patients (pid INT PRIMARY KEY, age INT, "
               "name VARCHAR)")
    db.catalog.table("patients").bulk_load(
        (pid, pid % 90, f"p{pid}") for pid in range(20_000)
    )
    return db


def test_key_targeted_dml_reads_no_block(big_db, monkeypatch):
    """A return to the full scan fails here: a point UPDATE/DELETE on a
    20 000-row table must not walk the table's blocks."""
    def refuse(self):
        raise AssertionError("DML walked every block of the table")

    monkeypatch.setattr(Table, "blocks", refuse)
    update = big_db.execute(
        "UPDATE patients SET age = age + 1 WHERE pid = :pid", {"pid": 777}
    )
    delete = big_db.execute(
        "DELETE FROM patients WHERE pid = :pid", {"pid": 778}
    )
    assert (update.rowcount, delete.rowcount) == (1, 1)
    monkeypatch.undo()
    assert big_db.execute(
        "SELECT age FROM patients WHERE pid = 777"
    ).rows == [(777 % 90 + 1,)]
    assert len(big_db.execute("SELECT pid FROM patients "
                              "WHERE pid = 778")) == 0


def test_unindexed_where_still_scans(big_db):
    assert big_db.execute(
        "UPDATE patients SET name = 'x' WHERE age = 89 AND pid < 1000"
    ).rowcount == 11
    assert big_db.execute(
        "DELETE FROM patients WHERE name = 'x'"
    ).rowcount == 11


@pytest.mark.parametrize("where, path", [
    ("pid = :pid", "IndexSeek(patients.patients_pk)"),
    ("pid < 100", "IndexRange(patients.patients_pk)"),
    ("age = 3", "TableScan(patients) [filtered]"),
])
@pytest.mark.parametrize("statement", [
    "UPDATE patients SET age = 0 WHERE {}",
    "DELETE FROM patients WHERE {}",
])
def test_explain_prints_the_dml_access_path(big_db, statement, where, path):
    assert big_db.explain(statement.format(where)) == (
        "-- access path --\n" + path
    )


def test_null_range_bound_selects_nothing(big_db):
    """``pid > NULL`` is never true; the index range used to treat a NULL
    bound as 'unbounded' and return every key below the other bound."""
    sql = "FROM patients WHERE pid > :low AND pid < 100"
    assert "IndexRange(patients.patients_pk)" in big_db.explain(
        "DELETE " + sql
    )
    assert big_db.execute("SELECT pid " + sql, {"low": None}).rows == []
    assert big_db.execute("DELETE " + sql, {"low": None}).rowcount == 0
    assert len(big_db.execute("SELECT pid " + sql, {"low": 89})) == 10
