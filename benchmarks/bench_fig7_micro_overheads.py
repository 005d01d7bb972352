"""Figure 7: micro-benchmark overheads vs predicate selectivity (§V-A).

Paper: the leaf-node heuristic's overhead grows with the order-date
selectivity (up to ≈10 %) because its audit operator sits inside the
per-order customer access; hcn checks at the join output and stays low
(the paper calls it "more robust to the selectivity of the predicate").
The index nested-loop plan family reproduces that mechanism.
"""

from repro import HEURISTIC_HCN, HEURISTIC_LEAF
from repro.bench.figures import fig7_micro_overheads, micro_parameters
from repro.exec.operators.base import collect_rows
from repro.tpch import MICRO_BENCHMARK_QUERY

from conftest import report


def _timed_run(fixture, heuristic, benchmark):
    parameters = micro_parameters(fixture, 0.4)
    physical = fixture.compile_with_heuristic(
        MICRO_BENCHMARK_QUERY, heuristic, "index-nl"
    )
    database = fixture.database

    def run():
        context = database.make_context(parameters)
        collect_rows(physical, context)

    benchmark(run)


def test_benchmark_micro_baseline(fixture, benchmark):
    _timed_run(fixture, None, benchmark)


def test_benchmark_micro_leaf(fixture, benchmark):
    _timed_run(fixture, HEURISTIC_LEAF, benchmark)


def test_benchmark_micro_hcn(fixture, benchmark):
    _timed_run(fixture, HEURISTIC_HCN, benchmark)


def test_report_fig7(fixture, benchmark):
    headers, rows = benchmark.pedantic(
        lambda: fig7_micro_overheads(fixture), rounds=1, iterations=1
    )
    report(
        "fig7",
        "Figure 7 - Micro-Benchmark: Overheads For Predicate Selectivity "
        "(index nested-loop plan)",
        headers,
        rows,
    )
    # paper shape: averaged over the sweep, leaf costs more than hcn
    leaf_mean = sum(row[2] for row in rows) / len(rows)
    hcn_mean = sum(row[3] for row in rows) / len(rows)
    assert leaf_mean >= hcn_mean
