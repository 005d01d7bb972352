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
serializes to ``benchmarks/results/BENCH_offline.json``: per strategy the
best and median wall clock of the warm audits, the Python calls of one (a
``sys.setprofile`` count, steady where a few-millisecond timing is not),
and the deletion runs performed and avoided.
"""

from __future__ import annotations

import gc
import statistics
import sys
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

DEFAULT_REPEATS = 9
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


def _time_audit(auditor, sql, parameters, repeats: int) -> dict:
    """Best and median seconds of ``repeats`` full audit() calls and the
    Python calls of one, all with the plan cache warm; ``ids`` is the
    accessed set they all returned."""
    accessed = auditor.audit(sql, AUDIT_NAME, parameters)  # warm-up
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for __ in range(repeats):
            start = time.perf_counter()
            result = auditor.audit(sql, AUDIT_NAME, parameters)
            times.append(time.perf_counter() - start)
            assert result == accessed
    finally:
        if was_enabled:
            gc.enable()
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = auditor.audit(sql, AUDIT_NAME, parameters)
    finally:
        sys.setprofile(None)
    assert result == accessed
    return {
        "best": min(times), "median": statistics.median(times),
        "calls": calls, "ids": accessed,
    }


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

        timed_lineage = _time_audit(lineage, sql, parameters, repeats)
        timed_deletion = _time_audit(deletion, sql, parameters, repeats)

        entry = {
            "lineage_s": timed_lineage["best"],
            "lineage_median_s": timed_lineage["median"],
            "lineage_calls": timed_lineage["calls"],
            "deletion_s": timed_deletion["best"],
            "deletion_median_s": timed_deletion["median"],
            "deletion_calls": timed_deletion["calls"],
            "speedup_lineage": _ratio(
                timed_deletion["best"], timed_lineage["best"]
            ),
            "accessed_ids": len(timed_deletion["ids"]),
            "candidates": deletion.last_candidate_count,
            "lineage_mode": lineage.last_mode,
            "lineage_certified": lineage.last_lineage_certified,
            "lineage_deletion_runs": lineage.last_deletion_runs,
            "deletion_runs": deletion.last_deletion_runs,
            "deletion_runs_avoided": lineage.last_deletion_runs_avoided,
            "accessed_sets_equal":
                timed_lineage["ids"] == timed_deletion["ids"],
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
