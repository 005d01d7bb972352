"""Unit tests for aggregate accumulators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.expr.aggregates import is_aggregate_name, make_accumulator


class TestAccumulators:
    def test_count_ignores_nulls(self):
        acc = make_accumulator("count")
        for value in (1, None, "x", None):
            acc.add(value)
        assert acc.result() == 2

    def test_count_empty_is_zero(self):
        assert make_accumulator("count").result() == 0

    def test_count_distinct(self):
        acc = make_accumulator("count", distinct=True)
        for value in (1, 2, 2, None, 1):
            acc.add(value)
        assert acc.result() == 2

    def test_sum(self):
        acc = make_accumulator("sum")
        for value in (1, 2.5, None):
            acc.add(value)
        assert acc.result() == 3.5

    def test_sum_empty_is_null(self):
        assert make_accumulator("sum").result() is None

    def test_sum_rejects_strings(self):
        acc = make_accumulator("sum")
        with pytest.raises(ExecutionError):
            acc.add("x")

    def test_avg(self):
        acc = make_accumulator("avg")
        for value in (2, 4, None):
            acc.add(value)
        assert acc.result() == 3.0

    def test_avg_empty_is_null(self):
        assert make_accumulator("avg").result() is None

    def test_min_max(self):
        low = make_accumulator("min")
        high = make_accumulator("max")
        for value in (5, None, 2, 8):
            low.add(value)
            high.add(value)
        assert low.result() == 2
        assert high.result() == 8

    def test_min_empty_is_null(self):
        assert make_accumulator("min").result() is None

    def test_sum_distinct(self):
        acc = make_accumulator("sum", distinct=True)
        for value in (3, 3, 4):
            acc.add(value)
        assert acc.result() == 7

    def test_unknown_aggregate(self):
        with pytest.raises(ExecutionError):
            make_accumulator("median")

    def test_is_aggregate_name(self):
        assert is_aggregate_name("COUNT")
        assert is_aggregate_name("sum")
        assert not is_aggregate_name("substring")


AGGREGATES = [
    (name, distinct)
    for name in ("count", "sum", "avg", "min", "max")
    for distinct in (False, True)
]
numbers = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.just(-0.0),
)


def fold(name, distinct, values, many):
    accumulator = make_accumulator(name, distinct)
    if many:
        accumulator.add_many(values)
    else:
        for value in values:
            accumulator.add(value)
    return accumulator.result()


def outcome(name, distinct, values, many):
    """``repr`` of the result (so ``-0.0`` and int/float differ), or the
    error a fold raised."""
    try:
        return repr(fold(name, distinct, values, many))
    except ExecutionError as error:
        return ("error", str(error))


class TestAddMany:
    """``add_many(xs)`` is ``for x in xs: add(x)``, value for value."""

    @pytest.mark.parametrize("name, distinct", AGGREGATES)
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(numbers, max_size=12))
    def test_matches_add_loop(self, name, distinct, values):
        assert outcome(name, distinct, values, True) == \
            outcome(name, distinct, values, False)

    @pytest.mark.parametrize("name", ["sum", "avg"])
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("bad", [True, "x"])
    def test_non_numeric_raises_alike(self, name, distinct, bad):
        values = [None, bad, 1, 2.5]
        raised = outcome(name, distinct, values, True)
        assert raised == outcome(name, distinct, values, False)
        assert raised == (
            "error", f"{name.upper()} over non-numeric value {bad!r}"
        )

    def test_count_star_counts_positions(self):
        accumulator = make_accumulator("count")
        accumulator.add_many(range(5))
        assert accumulator.result() == 5


class TestGroupOrder:
    """Groups come out in order of first appearance, wherever the
    batches the fold sees begin and end."""

    @pytest.mark.parametrize("sql, expected", [
        ("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
         [(3, 4, 13), (1, 3, 8), (None, 2, 9), (2, 1, 4)]),
        ("SELECT k + 1, MAX(v) FROM t GROUP BY k + 1",
         [(4, 6), (2, 5), (None, 8), (3, 4)]),
        ("SELECT k, v % 2, COUNT(v) FROM t GROUP BY k, v % 2",
         [(3, 0, 3), (1, 1, 2), (None, 1, 1), (1, 0, 1), (2, 0, 1),
          (3, 1, 1), (None, 0, 1)]),
    ])
    def test_first_appearance_at_any_batch_size(self, sql, expected):
        from repro import Database
        from repro.exec.operators.base import collect_rows
        from repro.sql.parser import parse_statement

        db = Database()
        db.block_size = 3
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)")
        rows = [(3, 2), (1, 1), (None, 1), (3, 6), (1, 5), (1, 2),
                (2, 4), (3, 3), (None, 8), (3, 2)]
        db.catalog.table("t").bulk_load(
            (index, k, v) for index, (k, v) in enumerate(rows, start=1)
        )
        physical = db._optimizer.compile(db._optimizer.optimize_logical(
            db._builder.build_select(parse_statement(sql))
        ))
        for size in (1, 7, 1024):
            context = db.make_context()
            context.batch_size = size
            assert collect_rows(physical, context) == expected
