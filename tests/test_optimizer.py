"""Tests for logical rewrites (pushdown, decorrelation) and physical planning."""

import pytest

from repro import Database
from repro.exec.operators import (
    HashJoin,
    IndexNestedLoopJoin,
    IndexRange,
    IndexSeek,
    LimitOperator,
    NestedLoopJoin,
    SortOperator,
    TableScan,
)
from repro.expr.nodes import Binary, conjuncts
from repro.optimizer.rewrite import rewrite_plan
from repro.plan import logical as L
from repro.sql.parser import parse_statement
from repro.tpch import QUERIES, QUERY_PARAMETERS


def logical_plan(db: Database, sql: str):
    return db.plan_query(sql)


def physical_plan(db: Database, sql: str):
    return db._optimizer.compile(db.plan_query(sql))


def find_nodes(plan, node_type):
    return [node for node in plan.walk() if isinstance(node, node_type)]


@pytest.fixture
def joined_db(db):
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT, tag VARCHAR)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, aid INT, y INT)")
    db.execute("CREATE INDEX b_aid ON b (aid)")
    for index in range(20):
        db.execute(
            f"INSERT INTO a VALUES ({index}, {index * 2}, "
            f"'{'even' if index % 2 == 0 else 'odd'}')"
        )
        db.execute(f"INSERT INTO b VALUES ({100 + index}, {index}, {index})")
    db.execute("ANALYZE")
    return db


class TestPredicatePushdown:
    def test_single_table_predicate_reaches_scan(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid AND a.tag = 'even'",
        )
        scans = find_nodes(plan, L.Scan)
        a_scan = next(s for s in scans if s.table_name == "a")
        assert a_scan.predicate is not None

    def test_cross_conjunct_becomes_join_condition(self, joined_db):
        plan = logical_plan(
            joined_db, "SELECT a.x FROM a, b WHERE a.id = b.aid"
        )
        joins = find_nodes(plan, L.Join)
        assert len(joins) == 1
        assert joins[0].condition is not None
        # no residual filter should remain above the join
        assert not find_nodes(plan, L.Filter)

    def test_both_side_predicates_split(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid AND a.x > 1 AND b.y < 5",
        )
        scans = {s.table_name: s for s in find_nodes(plan, L.Scan)}
        assert scans["a"].predicate is not None
        assert scans["b"].predicate is not None

    def test_filter_pushed_through_left_join_preserved_side_only(
        self, joined_db
    ):
        plan = logical_plan(
            joined_db,
            "SELECT a.x, b.y FROM a LEFT JOIN b ON a.id = b.aid "
            "WHERE a.x > 1 AND b.y > 2",
        )
        scans = {s.table_name: s for s in find_nodes(plan, L.Scan)}
        assert scans["a"].predicate is not None  # preserved side: pushed
        assert scans["b"].predicate is None  # nullable side: stays above
        assert find_nodes(plan, L.Filter)  # residual b.y filter above join

    def test_left_join_on_right_conjunct_pushes_into_right(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a LEFT JOIN b ON a.id = b.aid AND b.y > 3",
        )
        scans = {s.table_name: s for s in find_nodes(plan, L.Scan)}
        assert scans["b"].predicate is not None

    def test_pushdown_into_subquery_plans(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT x FROM a WHERE EXISTS "
            "(SELECT 1 FROM b WHERE b.aid = a.id AND b.y > 3)",
        )
        # the EXISTS conjunct sinks into the scan's predicate
        a_scan = next(
            s for s in find_nodes(plan, L.Scan) if s.table_name == "a"
        )
        assert a_scan.predicate is not None
        subplan = None
        for node in a_scan.predicate.walk():
            if getattr(node, "plan", None) is not None:
                subplan = node.plan
        assert subplan is not None
        b_scan = find_nodes(subplan, L.Scan)[0]
        assert b_scan.predicate is not None  # correlated conjunct pushed

    def test_group_key_predicate_pushed_below_aggregate(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT t.tag, t.c FROM (SELECT tag, COUNT(*) AS c FROM a "
            "GROUP BY tag) t WHERE t.tag = 'even'",
        )
        scans = find_nodes(plan, L.Scan)
        assert scans[0].predicate is not None

    def test_filter_not_pushed_below_limit(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT t.x FROM (SELECT x FROM a ORDER BY x LIMIT 3) t "
            "WHERE t.x > 0",
        )
        limits = find_nodes(plan, L.Limit)
        assert limits
        # the filter must sit above the limit, not below it
        scan = find_nodes(plan, L.Scan)[0]
        assert scan.predicate is None


class TestDecorrelation:
    def test_uncorrelated_in_becomes_semi_join(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT x FROM a WHERE id IN (SELECT aid FROM b WHERE y > 5)",
        )
        semis = [
            j for j in find_nodes(plan, L.Join) if j.kind == L.JOIN_SEMI
        ]
        assert len(semis) == 1

    def test_uncorrelated_not_exists_becomes_anti_join(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT x FROM a WHERE NOT EXISTS (SELECT 1 FROM b WHERE y > 99)",
        )
        antis = [
            j for j in find_nodes(plan, L.Join) if j.kind == L.JOIN_ANTI
        ]
        assert len(antis) == 1

    def test_correlated_in_stays_expression(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT x FROM a WHERE id IN "
            "(SELECT aid FROM b WHERE b.y = a.x)",
        )
        assert not [
            j for j in find_nodes(plan, L.Join) if j.kind == L.JOIN_SEMI
        ]

    def test_semi_join_results_match_subquery_evaluation(self, joined_db):
        decorrelated = joined_db.execute(
            "SELECT x FROM a WHERE id IN (SELECT aid FROM b WHERE y > 5) "
            "ORDER BY x"
        )
        # correlated variant cannot decorrelate; must agree
        correlated = joined_db.execute(
            "SELECT x FROM a WHERE id IN "
            "(SELECT aid FROM b WHERE y > 5 AND b.aid = a.id) ORDER BY x"
        )
        assert decorrelated.rows == correlated.rows


def semi_joins(plan):
    return [j for j in find_nodes(plan, L.Join) if j.kind == L.JOIN_SEMI]


def scan_of(plan, alias):
    return next(s for s in find_nodes(plan, L.Scan) if s.alias == alias)


def pushed_ors(scan):
    return [
        part for part in conjuncts(scan.predicate)
        if isinstance(part, Binary) and part.op == "OR"
    ]


STACKED_SEMI_SQL = (
    "SELECT a.x, b.y FROM a, b WHERE a.id = b.aid "
    "AND a.id IN (SELECT aid FROM b WHERE y > 5) "
    "AND b.y IN (SELECT x FROM a WHERE x > 10) ORDER BY a.x"
)


class TestSemiJoinPushdown:
    def test_q18_semi_join_filters_the_orders_scan(self, tpch_db):
        plan = tpch_db.plan_query(QUERIES["Q18"], QUERY_PARAMETERS["Q18"])
        (semi,) = semi_joins(plan)
        assert isinstance(semi.left, L.Scan)
        assert semi.left.table_name == "orders"

    def test_sinks_into_the_side_it_references(self, joined_db):
        sql = (
            "SELECT a.x, b.y FROM a, b WHERE a.id = b.aid "
            "AND b.y IN (SELECT x FROM a WHERE x > 10) ORDER BY a.x"
        )
        (semi,) = semi_joins(logical_plan(joined_db, sql))
        assert isinstance(semi.left, L.Scan) and semi.left.alias == "b"
        # y in {12, 14, ..., 38} and y < 20: the rows with aid 12..19 even
        assert joined_db.execute(sql).rows == [
            (index * 2, index) for index in range(12, 20, 2)
        ]

    def test_stacked_semi_joins_each_reach_their_table(self, joined_db):
        plan = logical_plan(joined_db, STACKED_SEMI_SQL)
        assert sorted(semi.left.alias for semi in semi_joins(plan)) == [
            "a", "b",
        ]
        # a.id in {6..19} and b.y in {12, 14, ..., 38}: b.y = a.id
        assert joined_db.execute(STACKED_SEMI_SQL).rows == [
            (index * 2, index) for index in range(12, 20, 2)
        ]

    def test_condition_spanning_both_sides_stays_above(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid "
            "AND a.x + b.y IN (SELECT x FROM a)",
        )
        (semi,) = semi_joins(plan)
        assert isinstance(semi.left, L.Join)
        assert semi.left.kind == L.JOIN_INNER

    def test_never_crosses_a_left_join(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a LEFT JOIN b ON a.id = b.aid "
            "WHERE b.y IN (SELECT x FROM a)",
        )
        (semi,) = semi_joins(plan)
        assert semi.left.kind == L.JOIN_LEFT

    def test_never_crosses_an_anti_join(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid "
            "AND NOT EXISTS (SELECT 1 FROM b WHERE y > 99) "
            "AND a.id IN (SELECT aid FROM b WHERE y > 5)",
        )
        (semi,) = semi_joins(plan)
        assert semi.left.kind == L.JOIN_ANTI
        # the anti join itself is untouched: still over the inner join
        assert semi.left.left.kind == L.JOIN_INNER


class TestOrImpliedFilters:
    SQL = (
        "SELECT a.x, b.y FROM a, b WHERE a.id = b.aid "
        "AND ((a.tag = 'even' AND b.y < 5) OR (a.tag = 'odd' AND b.y > 15))"
    )

    def test_each_side_gets_its_implied_filter(self, joined_db):
        plan = logical_plan(joined_db, self.SQL)
        assert len(pushed_ors(scan_of(plan, "a"))) == 1
        assert len(pushed_ors(scan_of(plan, "b"))) == 1
        # the original OR stays the join condition
        (join,) = find_nodes(plan, L.Join)
        assert any(
            isinstance(part, Binary) and part.op == "OR"
            for part in conjuncts(join.condition)
        )
        assert sorted(joined_db.execute(self.SQL).rows) == [
            (0, 0), (4, 2), (8, 4), (34, 17), (38, 19),
        ]

    def test_subquery_disjunct_derives_nothing(self, joined_db):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid "
            "AND ((a.tag = 'even' AND b.y < 5) "
            "OR (a.tag = 'odd' AND b.y IN (SELECT x FROM a)))",
        )
        assert scan_of(plan, "a").predicate is None
        assert scan_of(plan, "b").predicate is None

    def test_disjunct_without_a_side_conjunct_derives_nothing(
        self, joined_db
    ):
        plan = logical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid "
            "AND (a.tag = 'even' OR b.y > 15)",
        )
        assert scan_of(plan, "a").predicate is None
        assert scan_of(plan, "b").predicate is None

    def test_q7_filters_both_nation_scans_and_avoids_nested_loops(
        self, tpch_db
    ):
        plan = tpch_db.plan_query(QUERIES["Q7"], QUERY_PARAMETERS["Q7"])
        for alias in ("n1", "n2"):
            assert len(pushed_ors(scan_of(plan, alias))) == 1
        assert not find_nodes(tpch_db._optimizer.compile(plan), NestedLoopJoin)


class TestRewriteIdempotence:
    @pytest.mark.parametrize("join_reorder", [False, True])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_tpch(self, tpch_db, name, join_reorder):
        raw = tpch_db._builder.build_select(parse_statement(QUERIES[name]))
        cost = tpch_db._optimizer._cost if join_reorder else None
        once = rewrite_plan(raw, cost)
        assert rewrite_plan(once, cost) == once

    @pytest.mark.parametrize("sql", [
        TestOrImpliedFilters.SQL,
        "SELECT a.x FROM a, b WHERE a.id = b.aid "
        "AND b.y IN (SELECT x FROM a WHERE x > 10)",
        STACKED_SEMI_SQL,
        # the filter derived for g stays above its aggregate, not in a scan
        "SELECT a.x, g.c FROM a, "
        "(SELECT aid, COUNT(*) AS c FROM b GROUP BY aid) g "
        "WHERE a.id = g.aid "
        "AND ((a.tag = 'even' AND g.c > 1) OR (a.tag = 'odd' AND g.c > 2))",
    ])
    def test_semi_and_or_rewrites(self, joined_db, sql):
        raw = joined_db._builder.build_select(parse_statement(sql))
        once = rewrite_plan(raw)
        assert rewrite_plan(once) == once


class TestAccessPaths:
    def test_equality_predicate_uses_index_seek(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT y FROM b WHERE aid = 7"
        )
        assert find_nodes(physical, IndexSeek)

    def test_selective_range_uses_index_range(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT y FROM b WHERE aid > 18"
        )
        assert find_nodes(physical, IndexRange)

    def test_wide_range_prefers_table_scan(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT y FROM b WHERE aid > 0"
        )
        assert not find_nodes(physical, IndexRange)
        assert find_nodes(physical, TableScan)

    def test_no_index_means_table_scan(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT x FROM a WHERE x = 4"
        )
        assert find_nodes(physical, TableScan)


class TestJoinSelection:
    def test_equi_join_uses_hash_join(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT a.x FROM a, b WHERE a.id = b.aid"
        )
        assert find_nodes(physical, HashJoin)

    def test_inequality_join_uses_nested_loop(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT a.x FROM a, b WHERE a.id < b.aid"
        )
        assert find_nodes(physical, NestedLoopJoin)

    def test_cross_join_uses_nested_loop(self, joined_db):
        physical = physical_plan(joined_db, "SELECT a.x FROM a, b")
        assert find_nodes(physical, NestedLoopJoin)

    def test_equi_join_with_residual(self, joined_db):
        physical = physical_plan(
            joined_db,
            "SELECT a.x FROM a, b WHERE a.id = b.aid AND a.x < b.y + 10",
        )
        joins = find_nodes(physical, HashJoin)
        assert joins and joins[0]._residual is not None


class TestIndexNestedLoopJoinPlanning:
    @pytest.fixture
    def two_index_db(self, db):
        """``b`` is indexed on a filter column (declared first) and on
        the join key; every ``aid`` has 80 rows, 20 of them status 1."""
        db.execute("CREATE TABLE a (id INT PRIMARY KEY)")
        db.execute("CREATE TABLE b (id INT PRIMARY KEY, aid INT, status INT)")
        db.execute("CREATE INDEX idx_b_status ON b (status)")
        db.execute("CREATE INDEX idx_b_aid ON b (aid)")
        db.catalog.table("a").bulk_load((k,) for k in range(4))
        db.catalog.table("b").bulk_load(
            (i, i % 50, (i // 50) % 4) for i in range(4000)
        )
        db.execute("ANALYZE")
        return db

    SQL = "SELECT a.id, b.id FROM a, b WHERE a.id = b.aid AND b.status = 1"

    def test_inner_seek_uses_the_join_key_index(self, two_index_db):
        physical = physical_plan(two_index_db, self.SQL)
        (join,) = find_nodes(physical, IndexNestedLoopJoin)
        inner = join.children()[1]
        assert inner.describe() == "IndexSeek(b.idx_b_aid)"
        # EXPLAIN names the seek the join drives and the outer key slot
        assert join.describe() == (
            "IndexNestedLoopJoin(inner, b.idx_b_aid ← #0)"
        )
        # the filter conjunct is the seek's residual
        rows = two_index_db.execute(self.SQL).rows
        assert len(rows) == 80
        assert all((b // 50) % 4 == 1 and b % 50 == a for a, b in rows)


class TestTopKFusion:
    """Top-k is a logical shape only: no operator fuses Sort and Limit."""

    def test_order_by_limit_compiles_to_limit_over_sort(self, joined_db):
        physical = physical_plan(
            joined_db, "SELECT x FROM a ORDER BY x DESC LIMIT 3"
        )
        (limit,) = find_nodes(physical, LimitOperator)
        (sort,) = limit.children()
        assert isinstance(sort, SortOperator)

    def test_topk_matches_full_sort(self, joined_db):
        top = joined_db.execute(
            "SELECT x FROM a ORDER BY x DESC LIMIT 3"
        ).rows
        full = joined_db.execute("SELECT x FROM a ORDER BY x DESC").rows[:3]
        assert top == full
