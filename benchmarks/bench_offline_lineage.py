"""Offline-audit benchmark: lineage fast path vs deletion runs.

Pytest usage (alongside the figure benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_offline_lineage.py -q

Standalone usage (CI smoke runs this)::

    PYTHONPATH=src python benchmarks/bench_offline_lineage.py [--quick]

The full run writes ``benchmarks/results/BENCH_offline.json`` — a
machine-readable record of the TPC-H offline-audit timings under the
two strategies (lineage / deletion), the deletion runs each avoided or
performed, and proof that both agree on the accessed-ID set (the
lineage engine is exact, not approximate).
``--quick`` checks the agreement only and writes nothing.
"""

from __future__ import annotations

import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_FILE = RESULTS_DIR / "BENCH_offline.json"


def run(repeats: int) -> dict:
    from repro.bench import BenchmarkFixture
    from repro.bench.offline import offline_lineage_benchmark

    return offline_lineage_benchmark(BenchmarkFixture(), repeats=repeats)


def write(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(results, indent=2, default=str) + "\n")
    print(f"  written to {RESULT_FILE}")


def _summarize(results: dict) -> str:
    lines = [
        f"offline audit benchmark (SF {results['scale_factor']}, "
        f"best / median of {results['repeats']}, Python calls of one)"
    ]
    for name, entry in results["queries"].items():
        lines.append(
            f"  {name}: lineage {entry['lineage_s'] * 1e3:.2f} / "
            f"{entry['lineage_median_s'] * 1e3:.2f} ms, "
            f"{entry['lineage_calls']} calls "
            f"({entry['speedup_lineage']:.1f}x), "
            f"deletion {entry['deletion_s'] * 1e3:.2f} / "
            f"{entry['deletion_median_s'] * 1e3:.2f} ms, "
            f"{entry['deletion_calls']} calls "
            f"({entry['deletion_runs']} runs); "
            f"runs avoided {entry['deletion_runs_avoided']}, "
            f"accessed sets equal: {entry['accessed_sets_equal']}"
        )
    return "\n".join(lines)


def test_report_offline_lineage():
    from repro.bench.offline import DEFAULT_REPEATS

    results = run(DEFAULT_REPEATS)
    print()
    print(_summarize(results))
    write(results)
    for entry in results["queries"].values():
        # the lineage strategy is exact: both strategies agree
        assert entry["accessed_sets_equal"]
        # the fast path really was one instrumented run, not N deletions
        assert entry["lineage_certified"]
        assert entry["lineage_deletion_runs"] == 0
        assert entry["deletion_runs_avoided"] == entry["deletion_runs"]
        assert entry["deletion_runs"] > 0
    # ISSUE acceptance: lineage ≥5x over per-candidate deletion testing
    # on the TPC-H offline workload
    assert results["queries"]["tpch_q3"]["speedup_lineage"] >= 5.0
    assert results["queries"]["micro_join"]["speedup_lineage"] >= 5.0


def main(argv: list[str]) -> int:
    from repro.bench.offline import DEFAULT_REPEATS, QUICK_REPEATS

    quick = "--quick" in argv
    results = run(QUICK_REPEATS if quick else DEFAULT_REPEATS)
    print(_summarize(results))
    if not quick:
        write(results)
    failures = [
        name
        for name, entry in results["queries"].items()
        if not (entry["accessed_sets_equal"] and entry["lineage_certified"])
    ]
    if failures:
        print(f"FAIL: lineage/deletion strategies diverge for {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
