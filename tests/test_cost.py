"""Unit tests for the cardinality/cost model."""

import pytest

from repro import Database
from repro.optimizer.cost import CostModel
from repro.plan import logical as L


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE big (id INT PRIMARY KEY, grp INT, val INT)"
    )
    database.execute("CREATE TABLE small (id INT PRIMARY KEY, tag VARCHAR)")
    for index in range(200):
        database.execute(
            f"INSERT INTO big VALUES ({index}, {index % 10}, {index})"
        )
    for index in range(10):
        database.execute(f"INSERT INTO small VALUES ({index}, 't{index}')")
    database.execute("ANALYZE")
    return database


def estimate(db, sql):
    model = CostModel(db.catalog)
    return model.estimate_rows(db.plan_query(sql))


class TestScanEstimates:
    def test_plain_scan_is_row_count(self, db):
        assert estimate(db, "SELECT * FROM big") == pytest.approx(200)

    def test_equality_uses_distinct_count(self, db):
        # grp has 10 distinct values over 200 rows -> ~20 rows
        assert estimate(db, "SELECT * FROM big WHERE grp = 3") == \
            pytest.approx(20, rel=0.2)

    def test_pk_equality_estimates_one_row(self, db):
        assert estimate(db, "SELECT * FROM big WHERE id = 5") == \
            pytest.approx(1, abs=0.5)

    def test_range_uses_minmax_span(self, db):
        # val spans 0..199; val > 149 is ~25% of rows
        assert estimate(db, "SELECT * FROM big WHERE val > 149") == \
            pytest.approx(50, rel=0.3)

    def test_conjunction_multiplies(self, db):
        single = estimate(db, "SELECT * FROM big WHERE grp = 3")
        double = estimate(
            db, "SELECT * FROM big WHERE grp = 3 AND val > 99"
        )
        assert double < single


class TestJoinEstimates:
    def test_equi_join_uses_distinct_counts(self, db):
        # big.grp (10 distinct) = small.id (10 distinct): 200*10/10 = 200
        joined = estimate(
            db, "SELECT * FROM big, small WHERE grp = small.id"
        )
        assert joined == pytest.approx(200, rel=0.3)

    def test_cross_join_is_product(self, db):
        assert estimate(db, "SELECT * FROM big, small") == \
            pytest.approx(2000)

    def test_limit_caps_estimate(self, db):
        assert estimate(db, "SELECT * FROM big LIMIT 7") == 7

    def test_aggregate_reduces(self, db):
        grouped = estimate(db, "SELECT grp, COUNT(*) FROM big GROUP BY grp")
        assert grouped < 200

    def test_global_aggregate_is_one(self, db):
        assert estimate(db, "SELECT COUNT(*) FROM big") == 1

    def test_semi_join_scales_by_distinct_ratio(self, db):
        # the subquery yields <= 10 distinct grp values for 200 big.ids
        kept = estimate(
            db, "SELECT * FROM big WHERE id IN (SELECT grp FROM big)"
        )
        assert kept == pytest.approx(10, rel=0.01)

    def test_semi_join_of_another_shape_keeps_half(self, db):
        kept = estimate(
            db, "SELECT * FROM big WHERE id + 1 IN (SELECT grp FROM big)"
        )
        assert kept == pytest.approx(100)

    def test_q18_semi_join_within_4x_of_actual(self, tpch_db):
        from repro.tpch import QUERIES, QUERY_PARAMETERS

        parameters = QUERY_PARAMETERS["Q18"]
        plan = tpch_db.plan_query(QUERIES["Q18"], parameters)
        (semi,) = [
            node for node in plan.walk()
            if isinstance(node, L.Join) and node.kind == L.JOIN_SEMI
        ]
        estimated = CostModel(tpch_db.catalog).estimate_rows(semi)
        actual = tpch_db.execute(
            "SELECT COUNT(*) FROM orders WHERE o_orderkey IN ("
            "SELECT l_orderkey FROM lineitem GROUP BY l_orderkey "
            "HAVING SUM(l_quantity) > :quantity)",
            parameters,
        ).scalar()
        assert actual > 0
        assert max(estimated / actual, actual / estimated) <= 4.0


class TestStatistics:
    def test_stats_refresh_on_version_change(self, db):
        before = db.catalog.statistics("small").row_count
        db.execute("INSERT INTO small VALUES (99, 'new')")
        after = db.catalog.statistics("small").row_count
        assert after == before + 1

    def test_column_stats_content(self, db):
        stats = db.catalog.statistics("big")
        grp = stats.columns["grp"]
        assert grp.distinct_count == 10
        assert grp.min_value == 0 and grp.max_value == 9
        assert grp.null_count == 0

    def test_selectivity_helpers(self, db):
        stats = db.catalog.statistics("big").columns["val"]
        assert stats.selectivity_equals(200) == pytest.approx(1 / 200)
        assert 0.0 <= stats.selectivity_range(100, 150) <= 1.0

    def test_null_counting(self, db):
        db.execute("CREATE TABLE holes (x INT)")
        db.execute("INSERT INTO holes VALUES (1), (NULL), (NULL)")
        stats = db.catalog.statistics("holes")
        assert stats.columns["x"].null_count == 2
        assert stats.columns["x"].distinct_count == 1


class TestProbeEstimateCalibration:
    """'cost' placement ranks candidates by estimated audit probes, so an
    estimate more than 4x off the measured count (either way) means it
    may be mis-ranking them. Pinned on the paper's micro-join and TPC-H
    Q3 and Q18 (inside since its semi join is priced by distinct counts)
    — the ROADMAP "placement that learns" item starts from this number;
    Q7 is known to sit outside the bound."""

    @pytest.fixture(scope="class")
    def fixture(self):
        from repro.bench.harness import BenchmarkFixture
        from tests.conftest import TPCH_SCALE

        return BenchmarkFixture(scale_factor=TPCH_SCALE)

    @pytest.mark.parametrize("name", ["micro_join", "Q3", "Q18"])
    def test_estimate_within_4x_of_actual(self, fixture, name):
        from repro.bench.figures import micro_parameters
        from repro.exec.operators.base import collect_rows
        from repro.sql.parser import parse_statement
        from repro.tpch import (
            MICRO_BENCHMARK_QUERY, QUERIES, QUERY_PARAMETERS,
        )

        if name == "micro_join":
            sql = MICRO_BENCHMARK_QUERY
            parameters = micro_parameters(fixture, 0.4)
        else:
            sql, parameters = QUERIES[name], QUERY_PARAMETERS[name]
        db = fixture.database
        manager = db.audit_manager
        logical = db._optimizer.optimize_logical(
            db._builder.build_select(parse_statement(sql)),
            instrument=manager.instrument,
        )
        estimated = CostModel(
            db.catalog, manager.resolve_view
        ).estimate_plan_probes(logical)
        context = db.make_context(parameters)
        collect_rows(db._optimizer.compile(logical), context)
        actual = context.audit_probe_count
        assert estimated > 0 and actual > 0
        assert max(estimated / actual, actual / estimated) <= 4.0
