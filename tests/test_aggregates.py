"""Unit tests for the aggregate kernels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.expr.aggregates import (
    aggregate_kernel,
    fold_group,
    is_aggregate_name,
)


def result(name, values, distinct=False):
    return fold_group(aggregate_kernel(name, distinct), values)


class TestAccumulators:
    def test_count_ignores_nulls(self):
        assert result("count", [1, None, "x", None]) == 2

    def test_count_empty_is_zero(self):
        assert result("count", []) == 0

    def test_count_distinct(self):
        assert result("count", [1, 2, 2, None, 1], distinct=True) == 2

    def test_sum(self):
        assert result("sum", [1, 2.5, None]) == 3.5

    def test_sum_empty_is_null(self):
        assert result("sum", []) is None

    def test_sum_rejects_strings(self):
        with pytest.raises(ExecutionError):
            result("sum", ["x"])

    def test_avg(self):
        assert result("avg", [2, 4, None]) == 3.0

    def test_avg_empty_is_null(self):
        assert result("avg", []) is None

    def test_min_max(self):
        assert result("min", [5, None, 2, 8]) == 2
        assert result("max", [5, None, 2, 8]) == 8

    def test_min_empty_is_null(self):
        assert result("min", []) is None

    def test_sum_distinct(self):
        assert result("sum", [3, 3, 4], distinct=True) == 7

    def test_unknown_aggregate(self):
        with pytest.raises(ExecutionError):
            aggregate_kernel("median")

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


def fold(name, distinct, values, how):
    """Fold ``values`` as one global column (``"all"``), one value per
    ``fold_all`` call (``"each"``), or as group 1 of one grouped fold
    whose rows interleave with those of groups 0 and 2 (``"grouped"``)."""
    kernel = aggregate_kernel(name, distinct)
    if how == "all":
        return fold_group(kernel, values)
    if how == "each":
        states = list(kernel.initial)
        for value in values:
            kernel.fold_all(states, [value])
        return kernel.final(states)[0]
    states = list(kernel.initial) * 3
    kernel.fold(
        states, [0, 1, 2] * len(values),
        [cell for value in values for cell in (-9, value, 9)],
    )
    return kernel.final(states)[1]


def outcome(name, distinct, values, how):
    """``repr`` of the result (so ``-0.0`` and int/float differ), or the
    error a fold raised."""
    try:
        return repr(fold(name, distinct, values, how))
    except ExecutionError as error:
        return ("error", str(error))


class TestAddMany:
    """Folding a column at once is folding it value by value, and a
    group of a grouped fold sees exactly its own values in row order."""

    @pytest.mark.parametrize("name, distinct", AGGREGATES)
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(numbers, max_size=12))
    def test_matches_add_loop(self, name, distinct, values):
        folded = outcome(name, distinct, values, "all")
        assert folded == outcome(name, distinct, values, "each")
        assert folded == outcome(name, distinct, values, "grouped")

    @pytest.mark.parametrize("name", ["sum", "avg"])
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("bad", [True, "x"])
    def test_non_numeric_raises_alike(self, name, distinct, bad):
        values = [None, bad, 1, 2.5]
        raised = outcome(name, distinct, values, "all")
        assert raised == outcome(name, distinct, values, "each")
        assert raised == outcome(name, distinct, values, "grouped")
        assert raised == (
            "error", f"{name.upper()} over non-numeric value {bad!r}"
        )

    def test_count_star_counts_positions(self):
        kernel = aggregate_kernel("count", star=True)
        assert fold_group(kernel, range(5)) == 5
        states = list(kernel.initial) * 2
        kernel.fold(states, [1, 0, 1], range(3))
        assert kernel.final(states) == [1, 2]

    @pytest.mark.parametrize("name", ["sum", "avg"])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_first_offending_value_in_input_order(self, name, distinct):
        """Group 1's ``"b"`` comes before group 0's ``"a"`` in the input,
        so it is the value named, grouped and global alike."""
        kernel = aggregate_kernel(name, distinct)
        message = f"{name.upper()} over non-numeric value 'b'"
        states = list(kernel.initial) * 2
        with pytest.raises(ExecutionError, match=message):
            kernel.fold(states, [0, 1, 0, 1], [1, "b", "a", 2])
        with pytest.raises(ExecutionError, match=message):
            fold_group(kernel, [1, "b", "a", 2])


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
