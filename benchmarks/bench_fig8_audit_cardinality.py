"""Figure 8: hcn overhead vs audit-expression cardinality (§V-B).

Paper: sweeping the number of audited customers from 1 to ≈1M changes the
overhead barely at all (≈2 % at the top end) because the audit operator's
per-row work is one hash probe regardless of the sensitive-ID set size.
We sweep 1 → every customer at our scale factor.
"""

from repro.bench.figures import (
    FIG8_SELECTIVITY,
    fig8_audit_cardinality,
    fig8_cardinalities,
    micro_parameters,
)
from repro import HEURISTIC_HCN
from repro.exec.operators.base import collect_rows
from repro.tpch import MICRO_BENCHMARK_QUERY

from conftest import report


def test_benchmark_hcn_full_table_audit(fixture, benchmark):
    """Instrumented run with every customer audited (the worst case)."""
    database = fixture.database
    total = fixture.row_counts["customer"]
    database.execute(
        f"CREATE AUDIT EXPRESSION audit_everyone AS SELECT * FROM customer "
        f"WHERE c_custkey <= {total} "
        "FOR SENSITIVE TABLE customer, PARTITION BY c_custkey"
    )
    try:
        parameters = micro_parameters(fixture, FIG8_SELECTIVITY)
        physical = fixture.compile_with_heuristic(
            MICRO_BENCHMARK_QUERY, HEURISTIC_HCN, "hash"
        )

        def run():
            context = database.make_context(parameters)
            collect_rows(physical, context)

        benchmark(run)
    finally:
        database.execute("DROP AUDIT EXPRESSION audit_everyone")


def test_report_fig8(fixture, benchmark):
    headers, rows = benchmark.pedantic(
        lambda: fig8_audit_cardinality(fixture), rounds=1, iterations=1
    )
    report(
        "fig8",
        "Figure 8 - HCN Micro-Benchmark: Overheads For Audit Cardinality",
        headers,
        rows,
    )
    assert [row[0] for row in rows] == list(fig8_cardinalities(fixture))
    # paper shape: overhead stays small at every cardinality — flat in the
    # size of the sensitive-ID set (we allow generous noise headroom; the
    # paper reports ≈2 % at one million audited customers)
    for cardinality, __, overhead in rows:
        assert overhead < 35.0, (cardinality, overhead)
