"""``Table.insert_many`` against a per-row loop of ``Table.insert``.

``insert_many`` is the one row loop behind ``bulk_load``, ``INSERT …
SELECT`` and multi-row ``VALUES``. It looks each column's converter up
once, takes the table lock once per run of placements, and consumes its
input lazily, yet it must behave exactly like inserting the rows one at a
time: the same error, naming the first offending row in input order, the
same table once the statement's undo log has run, and the same
:class:`RowChange` sequence (rids included) seen by observers and DML row
triggers. The batches below are generated to hit every way a row can
fail: duplicate primary keys within the batch and against the table,
NULL in a NOT NULL column, unique-index clashes, uncoercible values and
wrong arity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.catalog.schema import Column, TableSchema
from repro.datatypes import INTEGER, VARCHAR
from repro.errors import ConstraintError
from repro.storage.table import Table
from repro.storage.undo import UndoLog

SCHEMA = TableSchema(
    "items",
    (
        Column("id", INTEGER, nullable=False),
        Column("code", VARCHAR, nullable=False),
        Column("qty", INTEGER),
    ),
    primary_key=("id",),
)

ids = st.one_of(st.integers(min_value=0, max_value=6), st.none())
codes = st.one_of(st.sampled_from(["a", "b", "c", "d"]), st.none())
quantities = st.one_of(
    st.integers(min_value=-3, max_value=3), st.none(),
    st.sampled_from(["x", 2.5, True]),
)
rows = st.tuples(ids, codes, quantities)
batches = st.lists(
    st.one_of(rows, rows.map(lambda row: row[:2])),  # short rows: arity
    max_size=6,
)
#: rows already in the table before the batch (ids and codes distinct)
preloads = st.lists(
    st.integers(min_value=0, max_value=6), unique=True, max_size=3
).map(lambda keys: [(key, f"p{key}", key) for key in keys])


class _Catalog:
    """The one-table catalog an :class:`UndoLog` reverts through."""

    def __init__(self, table: Table) -> None:
        self._table = table

    def table(self, name: str) -> Table:
        return self._table


def _table(preload: list[tuple]) -> tuple[Table, list, UndoLog]:
    table = Table(SCHEMA, block_capacity=2)
    table.create_secondary_index("items_code", ("code",), unique=True)
    table.bulk_load(preload)
    changes: list = []
    undo = UndoLog(_Catalog(table))
    table.add_observer(
        lambda change: changes.append(
            (change.kind, change.rid, change.old_row, change.new_row,
             change.compensating)
        )
    )
    table.add_observer(undo.record)
    return table, changes, undo


def _outcome(insert, table: Table, changes: list, undo: UndoLog):
    """Run ``insert`` as one statement: roll back to its start on error."""
    try:
        result = ("ok", insert())
    except Exception as error:  # noqa: BLE001 - compared by class/message
        undo.rollback(0)
        result = (type(error), str(error))
    heap = sorted(
        (rid, row) for block in table.blocks() for rid, row in
        block.rows.items()
    )
    return result, changes, heap, sorted(table._pk_index.items())


def _per_row(table: Table, batch, notify: bool = True) -> int:
    count = 0
    for values in batch:
        table.insert(values, notify=notify)
        count += 1
    return count


@settings(deadline=None)
@given(preload=preloads, batch=batches)
def test_insert_many_matches_a_per_row_loop(preload, batch):
    many = _table(preload)
    loop = _table(preload)
    assert _outcome(
        lambda: many[0].insert_many(iter(batch)), *many
    ) == _outcome(lambda: _per_row(loop[0], batch), *loop)


@settings(deadline=None)
@given(preload=preloads, batch=batches)
def test_bulk_load_matches_a_per_row_loop(preload, batch):
    """Unobserved: one lock for the run, nothing notified, same table
    and the same error at the same row."""
    many = _table(preload)
    loop = _table(preload)
    many_result = _outcome(lambda: many[0].bulk_load(iter(batch)), *many)
    loop_result = _outcome(
        lambda: _per_row(loop[0], batch, notify=False), *loop
    )
    assert many_result == loop_result
    assert many_result[1] == []


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _engine(preload: list[tuple], per_row: bool) -> tuple[Database, list]:
    """Items plus a row trigger that reads items on every INSERT."""
    db = Database()
    db.execute_script(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, "
        "code VARCHAR NOT NULL, qty INT);"
        "CREATE UNIQUE INDEX items_code ON items (code);"
        "CREATE TABLE seen (id INT, visible INT);"
        "CREATE TRIGGER watch ON items AFTER INSERT AS "
        "INSERT INTO seen SELECT new.id, id FROM items"
    )
    items = db.catalog.table("items")
    items.bulk_load(preload)
    if per_row:
        items.insert_many = lambda rows, notify=True: _per_row(
            items, rows, notify
        )
    changes: list = []
    items.add_observer(
        lambda change: changes.append(
            (change.kind, change.rid, change.new_row, change.compensating)
        )
    )
    return db, changes


@settings(deadline=None)
@given(
    preload=preloads,
    batch=st.lists(rows, min_size=1, max_size=5),
    select=st.booleans(),
)
def test_values_and_select_with_a_row_trigger(preload, batch, select):
    """Multi-row ``VALUES`` (or ``INSERT … SELECT`` over the same rows)
    whose AFTER INSERT trigger reads the table after every row: the
    trigger's log, the RowChange rids and the rolled-back table match a
    per-row loop's."""
    outcomes = []
    for per_row in (False, True):
        db, changes = _engine(preload, per_row)
        values = ", ".join(
            "(" + ", ".join(_literal(value) for value in row) + ")"
            for row in batch
        )
        if select:
            db.execute("CREATE TABLE staged (id INT, code VARCHAR, qty INT)")
            db.catalog.table("staged").bulk_load(
                row for row in batch if row[2] is None or type(row[2]) is int
            )
            sql = "INSERT INTO items SELECT id, code, qty FROM staged"
        else:
            sql = f"INSERT INTO items VALUES {values}"
        try:
            result = ("ok", db.execute(sql).rowcount)
        except Exception as error:  # noqa: BLE001 - compared
            result = (type(error), str(error))
        outcomes.append((
            result,
            changes,
            sorted(db.execute("SELECT * FROM items").rows_list()),
            db.execute("SELECT * FROM seen").rows_list(),
        ))
    assert outcomes[0] == outcomes[1]


def test_first_offending_row_is_named():
    """Two bad rows: the error is the first one's, in input order, and
    nothing of the statement stays."""
    db, changes = _engine([(1, "p1", 1)], per_row=False)
    with pytest.raises(ConstraintError, match=r"duplicate primary key \(1,\)"):
        db.execute(
            "INSERT INTO items VALUES (2, 'a', 0), (1, 'b', 0), (3, NULL, 0)"
        )
    assert db.execute("SELECT id FROM items").rows_list() == [(1,)]
    assert db.execute("SELECT * FROM seen").rows_list() == []
    kinds = [change[0] for change in changes]
    assert kinds == ["insert", "delete"]  # row 2 placed, then undone
