"""Tests for the TPC-H substrate: generator, schema, and query workload."""

import pytest

from repro import HEURISTIC_HCN, HEURISTIC_LEAF, Database
from repro.tpch import (
    MICRO_BENCHMARK_QUERY,
    QUERIES,
    QUERY_PARAMETERS,
    TpchGenerator,
    audit_expression_sql,
    load_tpch,
)
from repro.exec.context import DEFAULT_BATCH_SIZE
from repro.exec.operators import IndexSeek
from repro.exec.operators.base import collect_rows, format_physical
from repro.expr.nodes import Literal, Parameter
from repro.sql.parser import parse_statement
from repro.sql.template import statement_template
from repro.tpch.datagen import MARKET_SEGMENTS
import datetime
import math
import re


def inline_parameters(sql: str, parameters: dict) -> str:
    """``sql`` with every ``:name`` written out as a SQL literal."""

    def literal(match):
        value = parameters[match.group(1)]
        if isinstance(value, datetime.date):
            return f"DATE '{value.isoformat()}'"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return repr(value)

    return re.sub(r":(\w+)", literal, sql)


def compile_statement(db, statement):
    logical = db._optimizer.optimize_logical(
        db._builder.build_select(statement), instrument=db._instrument_hook()
    )
    return logical, db._optimizer.compile(logical)


def run_compiled(db, physical, parameters=None):
    context = db.make_context(parameters)
    rows = collect_rows(physical, context)
    return rows, context.accessed, context.audit_probe_counts


class TestGenerator:
    def test_determinism(self):
        first = list(TpchGenerator(0.001, seed=7).customer_rows())
        second = list(TpchGenerator(0.001, seed=7).customer_rows())
        assert first == second

    def test_seed_changes_data(self):
        first = list(TpchGenerator(0.001, seed=7).customer_rows())
        second = list(TpchGenerator(0.001, seed=8).customer_rows())
        assert first != second

    def test_cardinality_ratios(self, tpch_db):
        counts = {
            name: len(tpch_db.catalog.table(name))
            for name in ("customer", "orders", "nation", "region")
        }
        assert counts["nation"] == 25
        assert counts["region"] == 5
        # two thirds of customers have 10 orders each
        assert counts["orders"] == pytest.approx(
            counts["customer"] * 10 * 2 / 3, rel=0.05
        )

    def test_market_segments_roughly_uniform(self, tpch_db):
        result = tpch_db.execute(
            "SELECT c_mktsegment, COUNT(*) FROM customer "
            "GROUP BY c_mktsegment"
        )
        counts = dict(result.rows)
        assert set(counts) == set(MARKET_SEGMENTS)
        total = sum(counts.values())
        for segment, count in counts.items():
            assert count / total == pytest.approx(0.2, abs=0.08)

    def test_foreign_keys_consistent(self, tpch_db):
        orphans = tpch_db.execute(
            "SELECT COUNT(*) FROM orders WHERE o_custkey NOT IN "
            "(SELECT c_custkey FROM customer)"
        )
        assert orphans.scalar() == 0
        orphan_lines = tpch_db.execute(
            "SELECT COUNT(*) FROM lineitem WHERE l_orderkey NOT IN "
            "(SELECT o_orderkey FROM orders)"
        )
        assert orphan_lines.scalar() == 0

    def test_phone_country_code_matches_nation(self, tpch_db):
        mismatches = tpch_db.execute(
            "SELECT COUNT(*) FROM customer WHERE "
            "CAST(SUBSTRING(c_phone FROM 1 FOR 2) AS INT) "
            "<> c_nationkey + 10"
        )
        assert mismatches.scalar() == 0

    def test_lineitem_dates_follow_order_date(self, tpch_db):
        bad = tpch_db.execute(
            "SELECT COUNT(*) FROM lineitem, orders "
            "WHERE l_orderkey = o_orderkey AND l_shipdate <= o_orderdate"
        )
        assert bad.scalar() == 0

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            TpchGenerator(0)


class TestWorkload:
    def test_micro_benchmark_query_runs(self, tpch_db):
        result = tpch_db.execute(
            MICRO_BENCHMARK_QUERY,
            {"acctbal": 0.0, "orderdate": datetime.date(1995, 6, 1)},
        )
        assert len(result.rows) > 0
        # output = orders ++ customer columns
        assert len(result.columns) == 9 + 8

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_query_executes(self, tpch_db, name):
        result = tpch_db.execute(QUERIES[name], QUERY_PARAMETERS[name])
        assert result.rows is not None
        if name in ("Q3", "Q10", "Q18"):
            limit = {"Q3": 10, "Q10": 20, "Q18": 100}[name]
            assert len(result.rows) <= limit

    def test_q3_orders_by_revenue_desc(self, tpch_db):
        result = tpch_db.execute(QUERIES["Q3"], QUERY_PARAMETERS["Q3"])
        revenues = [row[1] for row in result.rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_q22_customers_have_no_orders(self, tpch_db):
        result = tpch_db.execute(QUERIES["Q22"], QUERY_PARAMETERS["Q22"])
        # every country-code group counts only order-less customers; the
        # count must not exceed the number of order-less customers
        orderless = tpch_db.execute(
            "SELECT COUNT(*) FROM customer WHERE NOT EXISTS "
            "(SELECT * FROM orders WHERE o_custkey = c_custkey)"
        ).scalar()
        assert sum(row[1] for row in result.rows) <= orderless

    def test_audit_expression_covers_one_segment(self):
        db = Database()
        load_tpch(db, scale_factor=0.001)
        db.execute(audit_expression_sql(segment="BUILDING"))
        view = db.audit_manager.view("audit_customer")
        expected = db.execute(
            "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'BUILDING'"
        ).scalar()
        assert len(view) == expected


class TestAuditedWorkload:
    @pytest.fixture(scope="class")
    def audited_tpch(self):
        db = Database()
        load_tpch(db, scale_factor=0.002)
        db.execute(audit_expression_sql())
        return db

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_instrumented_results_match_plain(self, audited_tpch, name):
        """The audit operator is a no-op: results must be identical."""
        instrumented = audited_tpch.execute(
            QUERIES[name], QUERY_PARAMETERS[name]
        )
        audited_tpch.audit_enabled = False
        try:
            plain = audited_tpch.execute(
                QUERIES[name], QUERY_PARAMETERS[name]
            )
        finally:
            audited_tpch.audit_enabled = True
        assert instrumented.rows == plain.rows

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_no_false_negatives_vs_offline(self, audited_tpch, name):
        """Claim 3.6 on the real workload: hcn never misses an access."""
        from repro import OfflineAuditor

        truth = OfflineAuditor(audited_tpch).audit(
            QUERIES[name], "audit_customer", QUERY_PARAMETERS[name]
        )
        online = audited_tpch.execute(
            QUERIES[name], QUERY_PARAMETERS[name]
        ).accessed.get("audit_customer", frozenset())
        assert truth <= online

    @pytest.mark.parametrize(
        "heuristic", [HEURISTIC_HCN, HEURISTIC_LEAF, "cost"]
    )
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_template_compiles_to_the_literal_plan(
        self, audited_tpch, name, heuristic
    ):
        """Audit soundness of statement templates on the paper's
        workload, with the bound parameters written out as literals: the
        plan compiled from the template is the plan compiled from the
        text with the lifted values put back — rewrite, placement and
        access-path choices never depended on them — and it returns the
        same rows, ACCESSED and probe counts."""
        db = audited_tpch
        sql = inline_parameters(QUERIES[name], QUERY_PARAMETERS[name])
        sql = sql.strip()  # as Database.execute sees it
        template = statement_template(sql)
        if name in ("Q3", "Q5", "Q7", "Q8", "Q10"):
            assert template.values  # each filters on column = literal
        previous = db.audit_manager.heuristic
        db.audit_manager.heuristic = heuristic
        try:
            literal_logical, literal_physical = compile_statement(
                db, parse_statement(sql)
            )
            logical, physical = compile_statement(db, template.parse())
            literal_run = run_compiled(db, literal_physical)
            template_run = run_compiled(db, physical, template.bind(None))
        finally:
            db.audit_manager.heuristic = previous
        rendered = repr(logical)
        for parameter, value in template.values.items():
            rendered = rendered.replace(
                repr(Parameter(parameter)), repr(Literal(value))
            )
        assert rendered == repr(literal_logical)
        assert format_physical(physical) == format_physical(literal_physical)
        assert template_run == literal_run

    def test_q3_seeks_the_inner_index_per_outer_batch(
        self, audited_tpch, monkeypatch
    ):
        """Work-count guard: an index nested-loop join starts its inner
        seek once per outer batch, never once per outer row."""
        keys_per_start: dict[IndexSeek, list[int]] = {}
        row_source_starts = []
        seek_many = IndexSeek.seek_many
        rows_columnar = IndexSeek.rows_columnar

        def counting_seek_many(self, keys, context):
            keys = list(keys)
            keys_per_start.setdefault(self, []).append(len(keys))
            return seek_many(self, keys, context)

        def counting_rows_columnar(self, context):
            row_source_starts.append(self)
            return rows_columnar(self, context)

        monkeypatch.setattr(IndexSeek, "seek_many", counting_seek_many)
        monkeypatch.setattr(IndexSeek, "rows_columnar", counting_rows_columnar)
        audited_tpch.execute(QUERIES["Q3"], QUERY_PARAMETERS["Q3"])

        # only the market-segment leaf runs as a row source; the joins
        # drive orders by customer key, then lineitem by order key
        (leaf,) = row_source_starts
        assert keys_per_start.pop(leaf) == [1]
        assert len(keys_per_start) == 2
        for starts in keys_per_start.values():
            outer_rows = sum(starts)
            assert outer_rows > 20
            assert len(starts) <= math.ceil(
                outer_rows / DEFAULT_BATCH_SIZE
            ) + 1

    def test_q18_seeks_lineitem_only_for_surviving_orders(
        self, audited_tpch, monkeypatch
    ):
        """Work-count guard: Q18's semi join filters ``orders`` before the
        joins, so the lineitem seek is fed one key per surviving order,
        not one per row of the customer-orders product."""
        keys_fed: list[int] = []
        seek_many = IndexSeek.seek_many

        def counting_seek_many(self, keys, context):
            keys = list(keys)
            if self.index_label == "lineitem.idx_lineitem_orderkey":
                keys_fed.append(len(keys))
            return seek_many(self, keys, context)

        parameters = QUERY_PARAMETERS["Q18"]
        surviving = audited_tpch.execute(
            "SELECT COUNT(*) FROM orders WHERE o_orderkey IN ("
            "SELECT l_orderkey FROM lineitem GROUP BY l_orderkey "
            "HAVING SUM(l_quantity) > :quantity)",
            parameters,
        ).scalar()
        monkeypatch.setattr(IndexSeek, "seek_many", counting_seek_many)
        rows = audited_tpch.execute(QUERIES["Q18"], parameters).rows
        assert 0 < len(rows) <= surviving
        assert keys_fed
        assert sum(keys_fed) <= surviving
