"""Compiled expressions vs the tree-walking evaluator.

``repro.expr.compiler`` turns bound expression trees, once per plan, into
per-row closures and per-batch kernels; both must agree with ``evaluate``
on every input, including the SQL three-valued-logic corners (NULL
propagation, NULL in comparisons, short-circuit AND/OR). The battery runs
each expression as a projection over a table of adversarial rows through
the executor (which runs the batch kernels) and compares the full result
column with ``evaluate`` applied to the same bound expression row by row;
a hypothesis differential compares kernels and filter sweeps with
``evaluate`` batch by batch, and work guards count what they cost.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.exec.batch import LazyColumns
from repro.expr.compiler import compile_filter, compile_kernel
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
    row closure, the batch kernel and the filter sweep all surface it as
    the evaluator's ExecutionError naming both types, never as a Python
    exception (a kernel that raises re-runs its batch through the row
    form)."""
    from repro.errors import ExecutionError
    from repro.expr.compiler import compile_expression

    db = make_db()
    bound = bound_expression(
        db, f"SELECT k FROM t WHERE {predicate}", L.Filter,
        lambda node: node.predicate,
    )
    rows = table_rows(db)
    context = db.make_context()
    with pytest.raises(ExecutionError, match="INTEGER value .* VARCHAR"):
        for row in rows:
            compile_expression(bound)(row, context)
    kernel = compile_kernel(bound)(context)
    sweep = compile_filter(bound)(context)
    for columns in (LazyColumns(rows, 5), tuple(zip(*rows))):
        for batch_form in (kernel, sweep):
            with pytest.raises(
                ExecutionError, match="INTEGER value .* VARCHAR"
            ):
                batch_form(columns, range(len(rows)))


# ---------------------------------------------------------------------------
# batch kernels vs the evaluator, on generated expressions

PARAMETERS = {"p": 2, "q": None, "t": "Beta"}

INT_ATOMS = [
    "a", "b", "k", "0", "1", "-3", "NULL", ":p", ":q",
    "(SELECT MAX(a) FROM t)",
    "(SELECT MIN(u.b) FROM t u WHERE u.k > t.k)",
    "(SELECT COUNT(*) FROM t u WHERE u.a = t.b)",
]
TEXT_ATOMS = ["s", "'alpha'", "'B%'", ":t", "NULL"]
DATE_ATOMS = ["d", "DATE '2020-12-31'", "d + INTERVAL '1' MONTH",
              "DATE '2021-01-01' - INTERVAL '2' DAY"]


COMPARISON = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
INTEGERS = st.recursive(
    st.sampled_from(INT_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "%"]), inner)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda x: f"(-{x})"),
        inner.map(lambda x: f"ABS({x})"),
        st.tuples(inner, inner).map(lambda t: f"COALESCE({t[0]}, {t[1]})"),
        st.tuples(inner, COMPARISON, inner, inner, inner).map(
            lambda t: f"CASE WHEN {t[0]} {t[1]} {t[2]} THEN {t[3]} "
                      f"ELSE {t[4]} END"),
        st.tuples(inner, inner).map(
            lambda t: f"CASE {t[0]} WHEN 1 THEN {t[1]} WHEN 0 THEN 7 END"),
        # a division guarded by the condition the row form tests first
        inner.map(lambda x: f"CASE WHEN b <> 0 THEN {x} / b END"),
        st.sampled_from(TEXT_ATOMS).map(lambda x: f"LENGTH({x})"),
        st.sampled_from(DATE_ATOMS).map(lambda x: f"EXTRACT(YEAR FROM {x})"),
        inner.map(lambda x: f"CAST({x} AS INT)"),
    ),
    max_leaves=6,
)
TEXTS = st.one_of(
    st.sampled_from(TEXT_ATOMS),
    st.sampled_from(TEXT_ATOMS).map(lambda x: f"SUBSTRING({x}, 1, 2)"),
    st.sampled_from(TEXT_ATOMS).map(lambda x: f"UPPER({x})"),
    st.tuples(st.sampled_from(TEXT_ATOMS), st.sampled_from(TEXT_ATOMS))
    .map(lambda t: f"({t[0]} || {t[1]})"),
    st.sampled_from(INT_ATOMS).map(lambda x: f"CAST({x} AS VARCHAR)"),
)
IN_LISTS = st.tuples(
    st.one_of(st.sampled_from(["a", "b", "k"]), INTEGERS),
    st.lists(st.sampled_from(["1", "2", "10", "NULL", ":p", ":q"]),
             min_size=1, max_size=4),
    st.booleans(),
).map(lambda t: f"{t[0]} {'NOT ' if t[2] else ''}IN ({', '.join(t[1])})")
LEAF_PREDICATES = st.one_of(
    IN_LISTS,
    st.tuples(INTEGERS, COMPARISON, INTEGERS)
    .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(TEXTS, COMPARISON, TEXTS)
    .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(st.sampled_from(DATE_ATOMS), COMPARISON,
              st.sampled_from(DATE_ATOMS))
    .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(INTEGERS, INTEGERS, INTEGERS, st.booleans()).map(
        lambda t: f"{t[0]} {'NOT ' if t[3] else ''}BETWEEN "
                  f"{t[1]} AND {t[2]}"),
    st.tuples(TEXTS, st.sampled_from(["'%a%'", "'B_ta'", ":t"]),
              st.booleans()).map(
        lambda t: f"{t[0]} {'NOT ' if t[2] else ''}LIKE {t[1]}"),
    st.tuples(TEXTS, st.booleans()).map(
        lambda t: f"{t[0]} IS {'NOT ' if t[1] else ''}NULL"),
    st.sampled_from([
        "a IN (b, 1, NULL)",
        # an incomparable pair: the row form's ExecutionError
        "a < s",
        "EXISTS (SELECT 1 FROM t u WHERE u.a > t.b)",
        # the right side runs only where the left one let it
        "(b <> 0 AND a / b > 1)",
        "(b = 0 OR a / b > 1)",
    ]),
)
PREDICATES = st.recursive(
    LEAF_PREDICATES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda x: f"(NOT {x})"),
    ),
    max_leaves=4,
)
COLUMNS = st.sampled_from(["a", "b", "k"])
INT_LEAVES = st.one_of(COLUMNS, st.sampled_from(INT_ATOMS))
#: flat shapes beside the recursive ones, so each is drawn often:
#: arithmetic and comparisons with a folded side on either hand, and
#: BETWEEN with folded bounds
ARITHMETIC = st.tuples(
    INT_LEAVES, st.sampled_from(["+", "-", "*", "/", "%"]), INT_LEAVES
).map(lambda t: f"{t[0]} {t[1]} {t[2]}")
COMPARISONS = st.tuples(INT_LEAVES, COMPARISON, INT_LEAVES).map(
    lambda t: f"{t[0]} {t[1]} {t[2]}"
)
FOLDED_BETWEEN = st.tuples(
    COLUMNS, st.sampled_from(["-1", "0", "2", ":p", ":q"]),
    st.sampled_from(["0", "3", ":p", ":q"]), st.booleans(),
).map(lambda t: f"{t[0]} {'NOT ' if t[3] else ''}BETWEEN {t[1]} AND {t[2]}")
#: each family is drawn about as often as the others
EXPRESSIONS_UNDER_TEST = st.one_of(
    ARITHMETIC, COMPARISONS, FOLDED_BETWEEN, IN_LISTS, LEAF_PREDICATES,
    PREDICATES, INTEGERS, TEXTS,
)
TABLE_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-4, 12)),
        st.one_of(st.none(), st.integers(-2, 3)),
        st.one_of(st.none(), st.sampled_from(
            ["alpha", "Beta", "", "gamma", "10"])),
        st.one_of(st.none(), st.dates(
            min_value=datetime.date(2019, 1, 1),
            max_value=datetime.date(2022, 12, 31))),
    ),
    min_size=1, max_size=9,
)


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return (type(error), str(error))


@settings(deadline=None)
@given(expression=EXPRESSIONS_UNDER_TEST, values=TABLE_ROWS,
       sparse=st.booleans())
def test_kernel_matches_evaluator(expression, values, sparse):
    """Per batch, the kernel gives what ``evaluate`` gives row by row, or
    raises the error class and message it raises first; the filter sweep
    keeps exactly the rows on which it is TRUE. Batch sizes 1, 3 and
    1024, row-backed and column-major batches, dense and sparse
    selections."""
    db = Database()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, "
               "s VARCHAR, d DATE)")
    rows = [(k,) + row for k, row in enumerate(values)]
    db.catalog.table("t").bulk_load(rows)
    try:
        bound = bound_expression(
            db, f"SELECT {expression} FROM t", L.Project,
            lambda node: node.expressions[0],
        )
    except Exception:  # noqa: BLE001 - a shape the binder refuses
        return
    context = db.make_context(PARAMETERS)
    kernel = compile_kernel(bound)(context)
    sweep = compile_filter(bound)(context)
    for size in (1, 3, 1024):
        for start in range(0, len(rows), size):
            batch = rows[start:start + size]
            selection = (
                [i for i in range(len(batch)) if i % 2 == 0]
                if sparse else range(len(batch))
            )
            chosen = [batch[i] for i in selection]
            expected = _outcome(lambda: [
                evaluate(bound, row, context) for row in chosen
            ])
            for columns in (LazyColumns(batch, 5), tuple(zip(*batch))):
                assert _outcome(
                    lambda: list(kernel(columns, selection))
                ) == expected, expression
                kept = _outcome(lambda: list(sweep(columns, selection)))
                if expected[0] == "ok":
                    assert kept == ("ok", [
                        i for i, value in zip(selection, expected[1])
                        if value is True
                    ]), expression


# ---------------------------------------------------------------------------
# work guards: deterministic counts, not wall clock


class TestKernelWork:
    def test_q22_reads_each_parameter_once_per_in_list(
        self, tpch_db, monkeypatch
    ):
        """Q22's two ``SUBSTRING(c_phone …) IN (:cc1 … :cc7)`` lists fold
        into a set once per execution: 14 parameter reads, not one per
        parameter per customer row (3 530 at this scale when every row
        re-read all seven)."""
        from repro.exec.context import ExecutionContext
        from repro.tpch import QUERIES, QUERY_PARAMETERS

        parameters = QUERY_PARAMETERS["Q22"]
        expected = tpch_db.execute(QUERIES["Q22"], parameters).rows
        reads = []
        read = ExecutionContext.parameter
        monkeypatch.setattr(
            ExecutionContext, "parameter",
            lambda context, name: reads.append(name) or read(context, name),
        )
        assert tpch_db.execute(QUERIES["Q22"], parameters).rows == expected
        assert sorted(reads) == sorted(list(parameters) * 2)

    def test_top_k_evaluates_keys_once_and_sorts_a_bounded_buffer(
        self, monkeypatch
    ):
        """``ORDER BY c_acctbal DESC, c_custkey LIMIT 20`` over 15 000
        rows: each key is evaluated at most once per input row (the first
        key for every row, the second only for rows that can still make
        the cut), and no sort sees more than 2·k + one batch of rows."""
        import random

        from repro.exec.operators import SortOperator
        from repro.exec.operators.base import collect_rows

        rng = random.Random(38)
        db = Database()
        db.execute("CREATE TABLE customer (c_custkey INT PRIMARY KEY, "
                   "c_acctbal FLOAT)")
        rows = [
            (key, rng.choice([None, round(rng.uniform(-999, 9999), 2),
                              float(rng.randrange(5))]))
            for key in range(15_000)
        ]
        db.catalog.table("customer").bulk_load(rows)
        sql = ("SELECT c_custkey, c_acctbal FROM customer "
               "ORDER BY c_acctbal DESC, c_custkey LIMIT 20")
        physical = db._optimizer.compile(db._optimizer.optimize_logical(
            db._builder.build_select(parse_statement(sql))
        ))
        sort = next(op for op in physical.walk()
                    if isinstance(op, SortOperator))
        evaluated = [0] * len(sort._kernels)

        def counting(position, bind):
            def counted_bind(context, folded=None):
                kernel = bind(context, folded)

                def counted(columns, selection):
                    evaluated[position] += len(selection)
                    return kernel(columns, selection)

                return counted

            return counted_bind

        sort._kernels = tuple(
            counting(position, bind)
            for position, bind in enumerate(sort._kernels)
        )
        sizes = []
        order = SortOperator._order
        monkeypatch.setattr(
            SortOperator, "_order",
            lambda self, keys: sizes.append(len(keys[0])) or order(
                self, keys
            ),
        )
        context = db.make_context()
        assert collect_rows(physical, context) == sorted(
            rows, key=lambda row: (row[1] is None, -(row[1] or 0), row[0])
        )[:20]
        assert evaluated[0] == 15_000
        assert evaluated[1] <= 15_000
        assert max(sizes) <= 2 * 20 + context.batch_size

    def test_point_lookups_cost_no_more_python_calls(self):
        """200 armed point lookups (1-row batches, a firing each time one
        discloses): binding kernels once per execution must not cost more
        Python calls than per-row closures did (35 442 calls)."""
        import sys

        db = Database(user_id="u")
        db.execute_script("""
            CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR,
                ward INT, age INT);
            CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, day INT,
                cost FLOAT);
            CREATE TABLE log (uid VARCHAR, query VARCHAR, pid INT)
        """)
        db.catalog.table("patients").bulk_load(
            [(pid, f"n{pid}", pid % 8, 20 + pid % 50)
             for pid in range(1, 501)]
        )
        db.catalog.table("visits").bulk_load(
            [(vid, 1 + vid % 500, vid % 365, vid / 4)
             for vid in range(1, 1001)]
        )
        db.execute_script("""
            CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients
                WHERE ward < 2 FOR SENSITIVE TABLE patients,
                PARTITION BY pid;
            CREATE TRIGGER t ON ACCESS TO aud AS
                INSERT INTO log SELECT user_id(), sql_text(), pid
                FROM accessed
        """)
        statements = [
            f"SELECT name, age FROM patients WHERE pid = {1 + key * 7 % 500}"
            if key % 3 else
            "SELECT p.name, v.day, v.cost FROM visits v, patients p "
            f"WHERE v.pid = p.pid AND v.vid = {1 + key * 11 % 1000}"
            for key in range(200)
        ]
        db.execute(statements[0])
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            for sql in statements:
                db.execute(sql)
        finally:
            sys.setprofile(None)
        assert calls <= 35_442
        assert db.execute("SELECT COUNT(*) FROM log").scalar() > 0
