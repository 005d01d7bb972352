"""Experiment drivers, one per figure of the paper's evaluation (§V).

Each ``fig*`` function returns the rows of the corresponding figure as a
list of tuples (plus headers), so benchmarks and EXPERIMENTS.md generation
share one implementation. Figures 6 and 9 report cardinalities (exact,
engine-independent); figures 7, 8, and 10 report relative runtime
overheads measured as medians over repeated runs.
"""

from __future__ import annotations

import datetime

from repro import (
    HEURISTIC_HCN,
    HEURISTIC_LEAF,
    OfflineAuditor,
    StaticAnalysisAuditor,
)
from repro.bench.harness import (
    AUDIT_NAME,
    BenchmarkFixture,
    measure_median,
    overhead_percent,
)
from repro.exec.operators.base import collect_rows
from repro.tpch import MICRO_BENCHMARK_QUERY, QUERIES, QUERY_PARAMETERS

#: the fixed account-balance predicate of the micro-benchmark (§V-A)
MICRO_ACCTBAL = 2500.0

#: order-date selectivity sweep of Figures 6 and 7
SELECTIVITY_SWEEP = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)

#: Figure 8 fixes the micro query at the 40 % selectivity point
FIG8_SELECTIVITY = 0.4


def micro_parameters(
    fixture: BenchmarkFixture, fraction: float
) -> dict[str, object]:
    return {
        "acctbal": MICRO_ACCTBAL,
        "orderdate": fixture.orderdate_for_selectivity(fraction),
    }


# ---------------------------------------------------------------------------
# Figure 6: micro-benchmark false positives (audit cardinalities)

FIG6_HEADERS = (
    "selectivity_pct",
    "offline_accessed",
    "hcn_audit_ids",
    "leaf_audit_ids",
)


def fig6_micro_false_positives(fixture: BenchmarkFixture):
    auditor = OfflineAuditor(fixture.database)
    rows = []
    for fraction in SELECTIVITY_SWEEP:
        parameters = micro_parameters(fixture, fraction)
        offline = auditor.audit(
            MICRO_BENCHMARK_QUERY, AUDIT_NAME, parameters
        )
        hcn = fixture.run_with_heuristic(
            MICRO_BENCHMARK_QUERY, parameters, HEURISTIC_HCN
        ).accessed.get(AUDIT_NAME, frozenset())
        leaf = fixture.run_with_heuristic(
            MICRO_BENCHMARK_QUERY, parameters, HEURISTIC_LEAF
        ).accessed.get(AUDIT_NAME, frozenset())
        rows.append(
            (round(fraction * 100), len(offline), len(hcn), len(leaf))
        )
    return FIG6_HEADERS, rows


# ---------------------------------------------------------------------------
# Figure 7: micro-benchmark overheads vs predicate selectivity

FIG7_HEADERS = (
    "selectivity_pct",
    "baseline_ms",
    "leaf_overhead_pct",
    "hcn_overhead_pct",
    "leaf_probes",
    "hcn_probes",
)


def fig7_micro_overheads(fixture: BenchmarkFixture, repeats: int = 9):
    """Overhead of leaf vs hcn as the orders predicate selectivity sweeps.

    The paper's plan for this query fetches customers per order row, so
    the leaf audit operator's work grows with the order-date selectivity
    (the mechanism behind its ≈10 % worst case). We force the same plan
    shape — an index nested-loop join with the audit operator inside the
    inner subtree — via the ``index-nl`` join strategy.
    """
    rows = []
    for fraction in SELECTIVITY_SWEEP:
        parameters = micro_parameters(fixture, fraction)
        timings = fixture.compare_execution(
            MICRO_BENCHMARK_QUERY,
            parameters,
            {
                "baseline": (None, "index-nl"),
                "leaf": (HEURISTIC_LEAF, "index-nl"),
                "hcn": (HEURISTIC_HCN, "index-nl"),
            },
            repeats,
        )
        probes = {}
        for label, heuristic in (
            ("leaf", HEURISTIC_LEAF), ("hcn", HEURISTIC_HCN)
        ):
            physical = fixture.compile_with_heuristic(
                MICRO_BENCHMARK_QUERY, heuristic, "index-nl"
            )
            context = fixture.database.make_context(parameters)
            collect_rows(physical, context)
            probes[label] = context.audit_probe_count
        rows.append((
            round(fraction * 100),
            timings["baseline"] * 1000.0,
            overhead_percent(timings["leaf"], timings["baseline"]),
            overhead_percent(timings["hcn"], timings["baseline"]),
            probes["leaf"],
            probes["hcn"],
        ))
    return FIG7_HEADERS, rows


# ---------------------------------------------------------------------------
# Figure 8: hcn overhead vs audit-expression cardinality

FIG8_HEADERS = (
    "audit_cardinality",
    "baseline_ms",
    "hcn_overhead_pct",
)


def fig8_cardinalities(fixture: BenchmarkFixture) -> tuple[int, ...]:
    total = fixture.row_counts["customer"]
    steps = sorted({
        1,
        10,
        max(1, total // 10),
        max(1, total // 4),
        max(1, total // 2),
        total,
    })
    return tuple(steps)


def fig8_audit_cardinality(fixture: BenchmarkFixture, repeats: int = 5):
    """Sweep the number of audited customers from 1 to the whole table.

    The paper sweeps 1 → 1M customers at SF 10 and reports ≈2 % overhead
    at the top end; the property under test — probe cost independent of
    the sensitive-ID set size — is scale-free.
    """
    database = fixture.database
    parameters = micro_parameters(fixture, FIG8_SELECTIVITY)

    rows = []
    for cardinality in fig8_cardinalities(fixture):
        name = f"audit_card_{cardinality}"
        database.execute(
            f"CREATE AUDIT EXPRESSION {name} AS SELECT * FROM customer "
            f"WHERE c_custkey <= {cardinality} "
            "FOR SENSITIVE TABLE customer, PARTITION BY c_custkey"
        )
        # audit only through this expression for the measurement
        try:
            with database.audit_manager.suspend_expression(AUDIT_NAME):
                timings = fixture.compare_execution(
                    MICRO_BENCHMARK_QUERY,
                    parameters,
                    {
                        "baseline": (None, None),
                        "hcn": (HEURISTIC_HCN, None),
                    },
                    repeats,
                )
        finally:
            database.execute(f"DROP AUDIT EXPRESSION {name}")
        rows.append((
            cardinality,
            timings["baseline"] * 1000.0,
            overhead_percent(timings["hcn"], timings["baseline"]),
        ))
    return FIG8_HEADERS, rows


# ---------------------------------------------------------------------------
# Figure 9: false positives on the complex-query workload

FIG9_HEADERS = (
    "query",
    "offline_accessed",
    "hcn_audit_ids",
    "leaf_audit_ids",
)


def fig9_tpch_false_positives(fixture: BenchmarkFixture):
    auditor = OfflineAuditor(fixture.database)
    rows = []
    for name in sorted(QUERIES):
        sql = QUERIES[name]
        parameters = QUERY_PARAMETERS[name]
        offline = auditor.audit(sql, AUDIT_NAME, parameters)
        hcn = fixture.run_with_heuristic(
            sql, parameters, HEURISTIC_HCN
        ).accessed.get(AUDIT_NAME, frozenset())
        leaf = fixture.run_with_heuristic(
            sql, parameters, HEURISTIC_LEAF
        ).accessed.get(AUDIT_NAME, frozenset())
        rows.append((name, len(offline), len(hcn), len(leaf)))
    return FIG9_HEADERS, rows


# ---------------------------------------------------------------------------
# Figure 10: hcn overheads on the complex-query workload

FIG10_HEADERS = (
    "query",
    "baseline_ms",
    "hcn_ms",
    "hcn_overhead_pct",
)


def fig10_tpch_overheads(fixture: BenchmarkFixture, repeats: int = 13):
    rows = []
    for name in sorted(QUERIES):
        sql = QUERIES[name]
        parameters = QUERY_PARAMETERS[name]
        timings = fixture.compare_execution(
            sql,
            parameters,
            {"baseline": (None, None), "hcn": (HEURISTIC_HCN, None)},
            repeats,
        )
        rows.append((
            name,
            timings["baseline"] * 1000.0,
            timings["hcn"] * 1000.0,
            overhead_percent(timings["hcn"], timings["baseline"]),
        ))
    return FIG10_HEADERS, rows


# ---------------------------------------------------------------------------
# §VI / Example 6.1: static-analysis baseline comparison

STATIC_HEADERS = (
    "query",
    "fga_flags",
    "audit_op_flags",
    "offline_accessed",
)


def static_analysis_comparison(fixture: BenchmarkFixture):
    """FGA-style flagging vs audit operators vs ground truth per query."""
    analyzer = StaticAnalysisAuditor(fixture.database)
    auditor = OfflineAuditor(fixture.database)
    rows = []
    for name in sorted(QUERIES):
        sql = QUERIES[name]
        parameters = QUERY_PARAMETERS[name]
        flagged = analyzer.flags_query(sql, AUDIT_NAME, parameters)
        accessed = fixture.run_with_heuristic(
            sql, parameters, HEURISTIC_HCN
        ).accessed.get(AUDIT_NAME, frozenset())
        offline = auditor.audit(sql, AUDIT_NAME, parameters)
        rows.append((
            name,
            "yes" if flagged else "no",
            "yes" if accessed else "no",
            len(offline),
        ))
    # The paper notes FGA avoids a false positive only for Q3, whose
    # c_mktsegment predicate can be provably disjoint from the audit
    # expression's segment. Run Q3 against a different segment to show it.
    other_segment = "AUTOMOBILE" if fixture.segment != "AUTOMOBILE" \
        else "MACHINERY"
    q3_parameters = dict(QUERY_PARAMETERS["Q3"], segment=other_segment)
    flagged = analyzer.flags_query(QUERIES["Q3"], AUDIT_NAME, q3_parameters)
    accessed = fixture.run_with_heuristic(
        QUERIES["Q3"], q3_parameters, HEURISTIC_HCN
    ).accessed.get(AUDIT_NAME, frozenset())
    offline = auditor.audit(QUERIES["Q3"], AUDIT_NAME, q3_parameters)
    rows.append((
        f"Q3({other_segment[:4].lower()})",
        "yes" if flagged else "no",
        "yes" if accessed else "no",
        len(offline),
    ))
    return STATIC_HEADERS, rows


# ---------------------------------------------------------------------------
# Ablation X7: Theorem 3.7 on a generated select-join workload

SJ_HEADERS = ("selectivity_pct", "offline", "hcn", "false_positives")


def sj_exactness(fixture: BenchmarkFixture):
    """hcn must equal the offline auditor on every SJ query instance."""
    auditor = OfflineAuditor(fixture.database)
    rows = []
    for fraction in SELECTIVITY_SWEEP:
        parameters = micro_parameters(fixture, fraction)
        offline = auditor.audit(
            MICRO_BENCHMARK_QUERY, AUDIT_NAME, parameters
        )
        hcn = fixture.run_with_heuristic(
            MICRO_BENCHMARK_QUERY, parameters, HEURISTIC_HCN
        ).accessed.get(AUDIT_NAME, frozenset())
        rows.append((
            round(fraction * 100),
            len(offline),
            len(hcn),
            len(hcn - offline),
        ))
    return SJ_HEADERS, rows


# ---------------------------------------------------------------------------
# Ablation: ID-view compilation vs evaluating the audit predicate (§IV-A.1)

IDVIEW_HEADERS = ("probe_kind", "rows_probed", "total_ms")


def idview_probe_ablation(fixture: BenchmarkFixture, repeats: int = 5):
    """Cost of the per-row check: compiled ID set vs full predicate.

    The paper compiles audit expressions to materialized ID views so the
    operator does an O(1) key probe instead of evaluating the audit
    predicate on every row. This measures both on the customer table.
    """
    from repro.exec.context import ExecutionContext
    from repro.expr.evaluator import evaluate
    from repro.plan.builder import PlanBuilder, Scope
    from repro.plan.logical import PlanColumn
    from repro.sql.parser import parse_expression

    database = fixture.database
    table = database.catalog.table("customer")
    rows = list(table.rows()) * 20  # amplify for stable timing
    view = fixture.audit_view
    key_slot = table.schema.position_of("c_custkey")

    def probe_ids():
        hits = 0
        for row in rows:
            if row[key_slot] in view:
                hits += 1
        return hits

    builder = PlanBuilder(database.catalog)
    scope = Scope(tuple(
        PlanColumn(c.name, "customer", ("customer", c.name))
        for c in table.schema.columns
    ))
    predicate = builder.bind_expression(
        parse_expression(f"c_mktsegment = '{fixture.segment}'"), scope
    )
    context = ExecutionContext()

    def probe_predicate():
        hits = 0
        for row in rows:
            if evaluate(predicate, row, context) is True:
                hits += 1
        return hits

    assert probe_ids() == probe_predicate()
    id_time = measure_median(probe_ids, repeats)
    predicate_time = measure_median(probe_predicate, repeats)
    return IDVIEW_HEADERS, [
        ("compiled_id_view", len(rows), id_time * 1000.0),
        ("full_predicate", len(rows), predicate_time * 1000.0),
    ]


# ---------------------------------------------------------------------------
# §V-D: SELECT triggers as a filter in front of the offline auditor

FILTERING_HEADERS = (
    "strategy",
    "queries_audited_offline",
    "total_seconds",
)


def offline_filtering_benefit(
    fixture: BenchmarkFixture, workload_size: int = 12
):
    """The Figure-1 architecture claim (§III-A, §V-D).

    Build a mixed workload — queries that touch the audited segment and
    queries that provably cannot — then compare total auditing cost:

    * **offline-everything**: ship every query to the deletion-based
      auditor (the pre-paper architecture);
    * **trigger-filtered**: run queries with SELECT triggers online and
      audit offline only those whose ACCESSED state is non-empty.

    The one-sided guarantee makes the filter safe: a query with an empty
    ACCESSED state cannot have accessed any sensitive tuple (no false
    negatives), so skipping it loses nothing.
    """
    import time

    database = fixture.database
    other_segments = [
        segment
        for segment in (
            "AUTOMOBILE", "MACHINERY", "FURNITURE", "HOUSEHOLD"
        )
        if segment != fixture.segment
    ]
    workload: list[tuple[str, dict]] = []
    for index in range(workload_size):
        if index % 3 == 0:
            # touches the audited segment
            parameters = dict(
                QUERY_PARAMETERS["Q3"], segment=fixture.segment
            )
            workload.append((QUERIES["Q3"], parameters))
        elif index % 3 == 1:
            # a different market segment: never touches audited customers
            parameters = dict(
                QUERY_PARAMETERS["Q3"],
                segment=other_segments[index % len(other_segments)],
            )
            workload.append((QUERIES["Q3"], parameters))
        else:
            # no customer table at all
            workload.append((
                "SELECT l_returnflag, COUNT(*) FROM lineitem "
                "WHERE l_shipdate > :cutoff GROUP BY l_returnflag",
                {"cutoff": datetime.date(1996, 1, 1)},
            ))

    # arm 1: the naive pre-paper architecture — every query goes to a
    # Definition-2.3 offline system that deletion-tests every sensitive
    # tuple (no SELECT-trigger information available to narrow anything)
    # (deletion strategy pinned: the naive system predates lineage)
    naive_auditor = OfflineAuditor(
        database, restrict_candidates=False, mode="deletion"
    )
    start = time.perf_counter()
    audited_everything = 0
    for sql, parameters in workload:
        naive_auditor.audit(sql, AUDIT_NAME, parameters)
        audited_everything += 1
    offline_everything = time.perf_counter() - start

    # arm 2: Figure 1's architecture — SELECT triggers run online; only
    # queries with a non-empty ACCESSED state reach the offline system,
    # which additionally restricts its deletion tests to the flagged IDs'
    # leaf-reachable candidates
    auditor = OfflineAuditor(database)
    start = time.perf_counter()
    audited_filtered = 0
    for sql, parameters in workload:
        result = fixture.run_with_heuristic(sql, parameters, HEURISTIC_HCN)
        flagged = result.accessed.get(AUDIT_NAME, frozenset())
        if flagged:
            auditor.audit(sql, AUDIT_NAME, parameters)
            audited_filtered += 1
    trigger_filtered = time.perf_counter() - start

    return FILTERING_HEADERS, [
        ("offline-everything", audited_everything, offline_everything),
        ("trigger-filtered", audited_filtered, trigger_filtered),
    ]


# ---------------------------------------------------------------------------
# Ablation: greedy join reordering (engine substrate quality)

REORDER_HEADERS = ("query", "reordered_ms", "from_order_ms", "speedup")


def join_reorder_ablation(fixture: BenchmarkFixture, repeats: int = 5):
    """Greedy join reordering vs FROM-order left-deep plans.

    Not a paper experiment — an engine-substrate ablation showing the
    reproduction's optimizer handles the authentic TPC-H FROM clauses
    (Q8 starts with ``part``) without manual reordering.
    """
    database = fixture.database
    optimizer = database._optimizer
    rows = []
    for name in ("Q5", "Q7", "Q8", "Q10"):
        sql = QUERIES[name]
        parameters = QUERY_PARAMETERS[name]
        timings = {}
        for label, flag in (("reordered", True), ("from_order", False)):
            optimizer.join_reorder = flag
            try:
                timings[label] = fixture.execution_time(
                    sql, parameters, None, repeats
                )
            finally:
                optimizer.join_reorder = True
        speedup = (
            timings["from_order"] / timings["reordered"]
            if timings["reordered"] > 0 else float("inf")
        )
        rows.append((
            name,
            timings["reordered"] * 1000.0,
            timings["from_order"] * 1000.0,
            round(speedup, 2),
        ))
    return REORDER_HEADERS, rows


# ---------------------------------------------------------------------------
# Ablation: Bloom-filter probe structure (§IV-A.2)

BLOOM_HEADERS = (
    "probe",
    "memory_bytes",
    "accessed_ids",
    "extra_false_positives",
)


def bloom_probe_ablation(fixture: BenchmarkFixture):
    """Exact set vs counting Bloom filter as the operator's probe.

    The Bloom probe may flag extra IDs (one-sided false positives that the
    offline auditor later clears) in exchange for constant small memory.
    """
    from repro.audit.idview import IdView

    database = fixture.database
    expression = database.audit_manager.expression(AUDIT_NAME)
    parameters = micro_parameters(fixture, FIG8_SELECTIVITY)

    results = []
    exact_accessed: frozenset = frozenset()
    for probe in ("set", "bloom"):
        view = IdView(
            expression,
            database.catalog,
            database._materialize_ids,
            probe_structure=probe,
        )
        with database.audit_manager.override_view(AUDIT_NAME, view):
            result = fixture.run_with_heuristic(
                MICRO_BENCHMARK_QUERY, parameters, HEURISTIC_HCN
            )
        accessed = result.accessed.get(AUDIT_NAME, frozenset())
        if probe == "set":
            exact_accessed = accessed
        results.append((
            probe,
            view.probe_size_bytes,
            len(accessed),
            len(accessed - exact_accessed),
        ))
    return BLOOM_HEADERS, results


# ---------------------------------------------------------------------------
# Ablation: offline auditor subplan caching

OFFLINE_CACHE_HEADERS = ("query", "cached_ms", "uncached_ms", "speedup")


def offline_cache_ablation(fixture: BenchmarkFixture, repeats: int = 3):
    # deletion strategy pinned: the subplan cache only matters on the
    # per-candidate re-run path the lineage mode exists to avoid
    cached_auditor = OfflineAuditor(
        fixture.database, use_cache=True, mode="deletion"
    )
    uncached_auditor = OfflineAuditor(
        fixture.database, use_cache=False, mode="deletion"
    )
    cases = [
        ("micro", MICRO_BENCHMARK_QUERY,
         micro_parameters(fixture, FIG8_SELECTIVITY)),
        ("Q10", QUERIES["Q10"], QUERY_PARAMETERS["Q10"]),
    ]
    rows = []
    for name, sql, parameters in cases:
        cached = measure_median(
            lambda: cached_auditor.audit(sql, AUDIT_NAME, parameters),
            repeats,
        )
        uncached = measure_median(
            lambda: uncached_auditor.audit(sql, AUDIT_NAME, parameters),
            repeats,
        )
        speedup = uncached / cached if cached > 0 else float("inf")
        rows.append(
            (name, cached * 1000.0, uncached * 1000.0, round(speedup, 1))
        )
    return OFFLINE_CACHE_HEADERS, rows
