"""Compiled expression closures vs the tree-walking evaluator.

``repro.expr.compiler`` turns bound expression trees into Python closures
once per plan; the closures must agree with ``evaluate`` on every input,
including the SQL three-valued-logic corners (NULL propagation, NULL in
comparisons, short-circuit AND/OR). The battery runs each expression as a
projection over a table of adversarial rows through the executor (which
only ever runs compiled closures) and compares the full result column
with ``evaluate`` applied to the same bound expression row by row.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.expr.evaluator import evaluate
from repro.plan import logical as L
from repro.sql.parser import parse_statement


def make_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, s VARCHAR, "
        "d DATE)"
    )
    rows = [
        "(1, 10, 3, 'alpha', DATE '2020-01-15')",
        "(2, NULL, 5, 'Beta', DATE '2021-06-01')",
        "(3, -7, NULL, NULL, NULL)",
        "(4, 0, 0, '', DATE '2020-12-31')",
        "(5, 42, 6, 'gamma', DATE '2022-02-28')",
    ]
    for row in rows:
        db.execute(f"INSERT INTO t VALUES {row}")
    return db


EXPRESSIONS = [
    "a + b",
    "a - b * 2",
    "a / (b + 1)",
    "a % 7",
    "-a",
    "a + NULL",
    "s || '!' || s",
    "a > b",
    "a = b OR a > 40",
    "a > 0 AND b > 0",
    "NOT (a > 0)",
    "a IS NULL",
    "a IS NOT NULL",
    "a BETWEEN 0 AND 40",
    "s LIKE '%a%'",
    "s LIKE 'B_ta'",
    "a IN (10, 42, NULL)",
    "a NOT IN (10, 42)",
    "CASE WHEN a > 20 THEN 'big' WHEN a > 0 THEN 'small' ELSE 'neg' END",
    "CASE WHEN a IS NULL THEN b ELSE a END",
    "UPPER(s)",
    "LOWER(s)",
    "ABS(a)",
    "LENGTH(s)",
    "COALESCE(a, b, -1)",
    "SUBSTRING(s, 1, 3)",
    "EXTRACT(YEAR FROM d)",
    "d + INTERVAL '1' MONTH",
    "d > DATE '2020-06-01'",
    "(a + b) * (a - b)",
    "a > (SELECT AVG(a) FROM t)",
]


def bound_expression(db: Database, sql: str, node_type, pick):
    """The bound expression ``pick`` extracts from the first
    ``node_type`` node of the statement's canonical logical plan."""
    plan = db._builder.build_select(parse_statement(sql))
    return pick(next(n for n in plan.walk() if isinstance(n, node_type)))


def table_rows(db: Database) -> list[tuple]:
    return sorted(db.catalog.table("t").rows(), key=lambda row: row[0])


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_compiled_matches_evaluator(expression):
    db = make_db()
    sql = f"SELECT {expression} FROM t"
    bound = bound_expression(
        db, sql, L.Project, lambda node: node.expressions[0]
    )
    context = db.make_context()
    via_evaluator = [
        (evaluate(bound, row, context),) for row in table_rows(db)
    ]
    assert db.execute(sql + " ORDER BY k").rows == via_evaluator


def test_compiled_filter_matches_evaluator():
    db = make_db()
    for predicate in [
        "a > 5", "a + b > 10", "s LIKE '%a'", "a IS NULL OR b IS NULL",
        "a BETWEEN b AND 50", "a IN (SELECT b FROM t)",
    ]:
        sql = f"SELECT k FROM t WHERE {predicate} ORDER BY k"
        bound = bound_expression(
            db, sql, L.Filter, lambda node: node.predicate
        )
        context = db.make_context()
        expected = [
            (row[0],) for row in table_rows(db)
            if evaluate(bound, row, context) is True
        ]
        assert db.execute(sql).rows == expected


def test_parameters_are_read_at_call_time():
    db = make_db()
    sql = "SELECT k FROM t WHERE a > :cutoff ORDER BY k"
    assert db.execute(sql, {"cutoff": 20}).rows == [(5,)]
    # warm plan-cache hit: the compiled closure must re-read the parameter
    assert db.execute(sql, {"cutoff": -100}).rows == [(1,), (3,), (4,), (5,)]
    assert db.plan_cache.hits == 1


def test_unknown_function_rejected_at_bind():
    """Compiling closures must not move name errors past bind time."""
    from repro.errors import BindError

    with pytest.raises(BindError):
        make_db().execute("SELECT NO_SUCH_FUNCTION(a) FROM t")


def test_projector_slot_fast_path():
    """A pure column-reference projection compiles to tuple indexing."""
    db = make_db()
    result = db.execute("SELECT s, a, k FROM t ORDER BY k")
    assert result.rows[0] == ("alpha", 10, 1)
    assert result.rows[2] == (None, -7, 3)


@pytest.mark.parametrize("predicate", [
    "a > s", "a = 'x'", "a BETWEEN 1 AND 'x'", "k > 0 AND a <= 'x'",
])
def test_incomparable_values_raise_execution_error(predicate):
    """Raw ``<``/``>`` over an INT and a VARCHAR raise ``TypeError``; the
    row closure and the column sweep both surface it as the evaluator's
    ExecutionError naming both types, never as a Python exception."""
    from repro.errors import ExecutionError
    from repro.exec.batch import LazyColumns
    from repro.expr.compiler import compile_column_predicate, compile_predicate

    db = make_db()
    bound = bound_expression(
        db, f"SELECT k FROM t WHERE {predicate}", L.Filter,
        lambda node: node.predicate,
    )
    rows = table_rows(db)
    context = db.make_context()
    with pytest.raises(ExecutionError, match="INTEGER value .* VARCHAR"):
        for row in rows:
            compile_predicate(bound)(row, context)
    sweep = compile_column_predicate(bound)
    for columns in (LazyColumns(rows, 5), tuple(zip(*rows))):
        with pytest.raises(ExecutionError, match="INTEGER value .* VARCHAR"):
            sweep(columns, range(len(rows)), context)
