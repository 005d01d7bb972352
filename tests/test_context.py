"""Unit tests for the execution context: outer rows, memoization, state."""

import time

import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.exec.context import ExecutionContext, Session


class TestOuterRows:
    def test_stack_discipline(self):
        context = ExecutionContext()
        context.push_outer_row((1,))
        context.push_outer_row((2,))
        assert context.outer_row(1) == (2,)
        assert context.outer_row(2) == (1,)
        context.pop_outer_row()
        assert context.outer_row(1) == (1,)

    def test_base_rows_seed_the_stack(self):
        context = ExecutionContext(base_outer_rows=((9, 9),))
        assert context.outer_row(1) == (9, 9)

    def test_out_of_range_levels(self):
        context = ExecutionContext()
        with pytest.raises(ExecutionError):
            context.outer_row(1)
        context.push_outer_row((1,))
        with pytest.raises(ExecutionError):
            context.outer_row(2)
        with pytest.raises(ExecutionError):
            context.outer_row(0)


class TestSession:
    def test_defaults(self):
        session = Session()
        assert session.user_id == "anonymous"
        assert session.sql_text == ""
        assert session.now() is not None

    def test_custom_clock(self):
        import datetime

        stamp = datetime.datetime(2013, 4, 8)
        session = Session(clock=lambda: stamp)
        assert session.now() == stamp


class TestAccessedState:
    def test_record_access_accumulates(self):
        context = ExecutionContext()
        context.record_access("a", 1)
        context.record_access("a", 2)
        context.record_access("b", 1)
        assert context.accessed == {"a": {1, 2}, "b": {1}}

    def test_tombstone_lookup(self):
        context = ExecutionContext()
        context.tombstones = {"t": {(1,)}}
        assert context.is_tombstoned("t", (1,))
        assert not context.is_tombstoned("t", (2,))
        assert not context.is_tombstoned("u", (1,))


class TestSubqueryMemoization:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (1, 30)")
        return db

    def test_uncorrelated_subquery_runs_once(self, db):
        """The memo key of an uncorrelated subquery is empty: one run."""
        plan = db.plan_query("SELECT a FROM t WHERE b > 15")
        context = db.make_context()
        first = context.run_subquery(plan, ())
        second = context.run_subquery(plan, ())
        assert first is second  # same cached list object

    def test_correlated_memo_keyed_by_outer_values(self, db):
        # count subquery executions through a scalar subquery correlated
        # on the outer row: identical outer values reuse the memo
        result = db.execute(
            "SELECT a, (SELECT SUM(t2.b) FROM t t2 WHERE t2.a = t1.a) "
            "FROM t t1 ORDER BY a, 2"
        )
        assert result.rows == [(1, 40), (1, 40), (2, 20)]

    def test_missing_parameter_raises(self):
        context = ExecutionContext()
        with pytest.raises(ExecutionError):
            context.parameter("ghost")

    def test_subquery_without_compiler_raises(self, db):
        plan = db.plan_query("SELECT a FROM t")
        bare = ExecutionContext()
        with pytest.raises(ExecutionError):
            bare.run_subquery(plan, ())

    def test_unbound_subquery_plan_raises(self):
        context = ExecutionContext()
        with pytest.raises(ExecutionError):
            context.run_subquery(None, ())


class TestSubqueryCancellation:
    def test_cancelled_token_stops_a_correlated_subquery(self):
        """The WHERE of the first outer block runs before the statement's
        own loop reaches its first checkpoint; the subquery's loop has to
        look at the token itself instead of scanning all of ``b`` for
        each of those outer rows."""
        from repro.concurrency.cancel import DeadlineToken
        from repro.errors import OperationCancelledError
        from repro.exec.operators.base import collect_rows
        from repro.sql.parser import parse_statement

        db = Database()
        db.block_size = 4
        db.execute("CREATE TABLE a (k INT PRIMARY KEY)")
        db.execute("CREATE TABLE b (k INT PRIMARY KEY, v INT)")
        for k in range(16):
            db.execute(f"INSERT INTO a VALUES ({k})")
            db.execute(f"INSERT INTO b VALUES ({k}, {k % 3})")
        logical = db._optimizer.optimize_logical(db._builder.build_select(
            parse_statement(
                "SELECT k FROM a WHERE "
                "EXISTS (SELECT 1 FROM b WHERE b.v + a.k >= 0)"
            )
        ))
        context = db.make_context()
        context.cancel_token = DeadlineToken(time.monotonic())
        with pytest.raises(OperationCancelledError):
            collect_rows(db._optimizer.compile(logical), context)
        # one block of a, then one block of b — not 4 blocks of b per row
        assert context.blocks_scanned == 2


class TestIndexNestedLoopJoinCancellation:
    def test_cancelled_token_stops_the_join_within_one_outer_batch(self):
        """No outer row finds a partner, so the join never hands the
        statement's own loop a batch to checkpoint on; the join has to
        look at the token once per outer batch itself."""
        from repro.concurrency.cancel import DeadlineToken
        from repro.errors import OperationCancelledError
        from repro.exec.operators import IndexNestedLoopJoin
        from repro.exec.operators.base import collect_rows
        from repro.sql.parser import parse_statement

        db = Database()
        db.block_size = 4
        db.join_strategy = "index-nl"
        db.execute("CREATE TABLE a (k INT PRIMARY KEY)")
        db.execute("CREATE TABLE b (k INT PRIMARY KEY, ak INT)")
        db.execute("CREATE INDEX idx_b_ak ON b (ak)")
        for k in range(64):
            db.execute(f"INSERT INTO a VALUES ({k})")
            db.execute(f"INSERT INTO b VALUES ({k}, {k + 1000})")
        physical = db._optimizer.compile(db._optimizer.optimize_logical(
            db._builder.build_select(parse_statement(
                "SELECT a.k FROM a, b WHERE a.k = b.ak"
            ))
        ))
        assert isinstance(physical.children()[0], IndexNestedLoopJoin)
        context = db.make_context()
        context.cancel_token = DeadlineToken(time.monotonic())
        with pytest.raises(OperationCancelledError):
            collect_rows(physical, context)
        assert context.blocks_scanned == 1  # of the 16 blocks of a

