"""Figure 6: micro-benchmark false positives (§V-A).

Paper: the offline audit cardinality grows with the order-date predicate
selectivity; the leaf-node heuristic's cardinality stays constant at every
segment customer passing the account-balance predicate (≈250K at SF 10),
a large false-positive gap; hcn equals offline for this SJ query
(Theorem 3.7).
"""

from repro import HEURISTIC_LEAF, OfflineAuditor
from repro.bench.figures import (
    fig6_micro_false_positives,
    micro_parameters,
)
from repro.bench.harness import AUDIT_NAME
from repro.exec.operators.base import collect_rows
from repro.tpch import MICRO_BENCHMARK_QUERY

from conftest import report


def test_benchmark_offline_audit(fixture, benchmark):
    """Time one offline (deletion-based) audit of the micro query."""
    auditor = OfflineAuditor(fixture.database)
    parameters = micro_parameters(fixture, 0.4)
    benchmark(
        lambda: auditor.audit(MICRO_BENCHMARK_QUERY, AUDIT_NAME, parameters)
    )


def test_benchmark_leaf_instrumented_run(fixture, benchmark):
    parameters = micro_parameters(fixture, 0.4)
    physical = fixture.compile_with_heuristic(
        MICRO_BENCHMARK_QUERY, HEURISTIC_LEAF, "hash"
    )
    database = fixture.database

    def run():
        context = database.make_context(parameters)
        collect_rows(physical, context)

    benchmark(run)


def test_report_fig6(fixture, benchmark):
    headers, rows = benchmark.pedantic(
        lambda: fig6_micro_false_positives(fixture), rounds=1, iterations=1
    )
    report(
        "fig6",
        "Figure 6 - Micro-Benchmark: False Positives "
        "(audit cardinality vs orderdate selectivity)",
        headers,
        rows,
    )
    # paper shape 1: leaf cardinality is constant across the sweep
    leaf_counts = {row[3] for row in rows}
    assert len(leaf_counts) == 1
    # paper shape 2: offline cardinality is non-decreasing in selectivity
    offline_counts = [row[1] for row in rows]
    assert offline_counts == sorted(offline_counts)
    # paper shape 3 (Theorem 3.7): hcn equals offline for this SJ query
    for __, offline, hcn, leaf in rows:
        assert hcn == offline
        assert leaf >= hcn
