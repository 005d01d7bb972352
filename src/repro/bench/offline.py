"""Offline-auditing benchmark: lineage fast path vs deletion testing.

Times the same TPC-H offline-audit workload through the two strategies
the offline auditor offers:

* ``lineage``  — one lineage-capturing execution classifies every
  candidate (``offline_audit_mode='auto'`` on a certifiable plan);
* ``deletion`` — the literal Definition-2.3 re-runs, one ``Q(D − t)``
  per candidate tuple.

Both strategies must return the identical accessed-ID set — the lineage
engine is exact, not approximate — which this benchmark asserts before
reporting timings (it doubles as the CI differential check). The output is
a machine-readable dict that ``benchmarks/bench_offline_lineage.py``
serializes to ``benchmarks/results/BENCH_offline.json``: wall-clock per
strategy and the deletion runs performed and avoided.
"""

from __future__ import annotations

import gc
import time
from typing import TYPE_CHECKING

from repro.audit.offline import OfflineAuditor
from repro.bench.figures import micro_parameters
from repro.bench.harness import AUDIT_NAME
from repro.tpch import MICRO_BENCHMARK_QUERY, QUERIES, QUERY_PARAMETERS

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.bench.harness import BenchmarkFixture

#: the micro query's order-date selectivity point (§V-A's 40 %)
MICRO_SELECTIVITY = 0.4

DEFAULT_REPEATS = 3
QUICK_REPEATS = 1


def _workloads(fixture: "BenchmarkFixture") -> dict[str, tuple[str, dict]]:
    return {
        # bag-semantics SPJ: the pure one-pass lineage case (empty tail)
        "micro_join": (
            MICRO_BENCHMARK_QUERY,
            micro_parameters(fixture, MICRO_SELECTIVITY),
        ),
        # aggregation + ORDER BY + LIMIT spine: incremental per-group
        # re-derivation, then the compiled top-k tail per candidate
        "tpch_q3": (QUERIES["Q3"], QUERY_PARAMETERS["Q3"]),
    }


def _time_audit(auditor, sql, parameters, repeats: int) -> tuple[float, set]:
    """Best-of-N seconds for one full audit() call (plan cache warm)."""
    accessed = auditor.audit(sql, AUDIT_NAME, parameters)  # warm-up
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for __ in range(repeats):
            start = time.perf_counter()
            result = auditor.audit(sql, AUDIT_NAME, parameters)
            elapsed = time.perf_counter() - start
            assert result == accessed
            if elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best, accessed


def offline_lineage_benchmark(
    fixture: "BenchmarkFixture",
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Run the strategy comparison; returns a JSON-ready dict."""
    database = fixture.database
    results: dict = {
        "benchmark": "offline_lineage",
        "scale_factor": fixture.scale_factor,
        "repeats": repeats,
        "audit_expression": AUDIT_NAME,
        "queries": {},
    }
    for name, (sql, parameters) in _workloads(fixture).items():
        lineage = OfflineAuditor(database, mode="auto")
        deletion = OfflineAuditor(database, mode="deletion")

        lineage_s, lineage_ids = _time_audit(
            lineage, sql, parameters, repeats
        )
        deletion_s, deletion_ids = _time_audit(
            deletion, sql, parameters, repeats
        )

        entry = {
            "lineage_s": lineage_s,
            "deletion_s": deletion_s,
            "speedup_lineage": _ratio(deletion_s, lineage_s),
            "accessed_ids": len(deletion_ids),
            "candidates": deletion.last_candidate_count,
            "lineage_mode": lineage.last_mode,
            "lineage_certified": lineage.last_lineage_certified,
            "lineage_deletion_runs": lineage.last_deletion_runs,
            "deletion_runs": deletion.last_deletion_runs,
            "deletion_runs_avoided": lineage.last_deletion_runs_avoided,
            "accessed_sets_equal": lineage_ids == deletion_ids,
        }
        results["queries"][name] = entry
    return results


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return 0.0
    return numerator / denominator


__all__ = [
    "offline_lineage_benchmark",
    "DEFAULT_REPEATS",
    "QUICK_REPEATS",
    "MICRO_SELECTIVITY",
]
