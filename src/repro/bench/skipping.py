"""Data-skipping benchmark: block sketches vs full probe passes.

Loads TPC-H, installs an audit expression of the form ``c_custkey <= K``
at each target sensitive selectivity, and measures — with the
``skipping`` knob on vs off:

* *scan-under-audit* — draining the instrumented ``Audit(Scan(customer))``
  subtree batch by batch without pivoting rows out. This isolates the component the block sketches accelerate: with skipping on
  the audit operator consults each block's sensitive-ID sketch (a
  zone-range shortcut resolves clustered ID sets in two comparisons) and
  skips the per-row membership pass for blocks provably free of
  sensitive rows;
* *end-to-end* — the full ``SELECT * FROM customer`` through
  ``collect_rows``, where result materialization dominates and the win is proportionally smaller.

Beside the timings the benchmark checks the conservative-skip invariant
observationally: ACCESSED sets and the verdicts of an
:class:`OfflineAuditor` audit of the same query must be identical under
both knob settings. The offline audit is not timed: its lineage run is an
ordinary plan, and this predicate-free query gives zone maps nothing to
skip.
``benchmarks/bench_skipping.py`` serializes the result to
``benchmarks/results/BENCH_skipping.json``.
"""

from __future__ import annotations

import gc
import os
import time

from repro import Database
from repro.audit.offline import OfflineAuditor
from repro.exec.operators.audit import AuditOperator
from repro.exec.operators.base import collect_rows
from repro.tpch import load_tpch

#: the paper's evaluation ran at SF 10; the skipping experiment needs
#: enough blocks for block-granular skipping to be visible, so this
#: benchmark defaults higher than the harness-wide 0.005
DEFAULT_SCALE_FACTOR = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
QUICK_SCALE_FACTOR = 0.02

DEFAULT_REPEATS = 7
QUICK_REPEATS = 3

#: fraction of customers declared sensitive (``c_custkey <= K``)
SELECTIVITIES = (0.001, 0.01, 0.1)

AUDIT_NAME = "aud_skip"
QUERY = "SELECT * FROM customer"


def _find_audit(operator) -> AuditOperator:
    if isinstance(operator, AuditOperator):
        return operator
    for child in operator.children():
        found = _find_audit(child)
        if found is not None:
            return found
    return None


def _best_of(action, repeats: int) -> float:
    action()  # warm-up
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for __ in range(repeats):
            start = time.perf_counter()
            action()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best


def _compile_instrumented(database: Database, sql: str):
    """Leaf-instrumented physical plan (scan-fused audit placement)."""
    from repro.sql.parser import parse_statement

    statement = parse_statement(sql)
    logical = database._builder.build_select(statement)
    instrumented = database.audit_manager.instrument(
        logical, heuristic="leaf-node"
    )
    return database._optimizer.compile(instrumented)


def _measure_point(
    database: Database, sensitive_upto: int, repeats: int
) -> dict:
    database.execute(
        f"CREATE AUDIT EXPRESSION {AUDIT_NAME} AS "
        f"SELECT * FROM customer WHERE c_custkey <= {sensitive_upto} "
        "FOR SENSITIVE TABLE customer, PARTITION BY c_custkey"
    )
    try:
        physical = _compile_instrumented(database, QUERY)
        audit = _find_audit(physical)
        assert audit is not None, "instrumented plan lost its audit node"

        def drain_audit() -> None:
            context = database.make_context()
            for __ in audit.rows_columnar(context):
                pass

        def drain_query() -> None:
            context = database.make_context()
            collect_rows(physical, context)

        entry: dict = {"sensitive_ids": sensitive_upto}
        contexts = {}
        for label, skipping in (("on", True), ("off", False)):
            database.skipping = skipping
            entry[f"scan_under_audit_{label}_s"] = _best_of(
                drain_audit, repeats
            )
            entry[f"query_{label}_s"] = _best_of(drain_query, repeats)
            context = database.make_context()
            for __ in audit.rows_columnar(context):
                pass
            contexts[label] = context
            entry[f"probes_{label}"] = context.audit_probe_count
            entry[f"blocks_skipped_{label}"] = context.audit_blocks_skipped

        # conservative-skip differential: ACCESSED must be knob-invariant
        database.skipping = True
        accessed_on = database.execute(QUERY).accessed
        database.skipping = False
        accessed_off = database.execute(QUERY).accessed
        entry["accessed_equal"] = accessed_on == accessed_off
        entry["accessed_ids"] = len(accessed_on.get(AUDIT_NAME, ()))

        # offline mode: verdicts must not depend on the knob
        def offline(skipping: bool):
            database.skipping = skipping
            return OfflineAuditor(database).audit(QUERY, AUDIT_NAME)

        entry["offline_verdicts_equal"] = offline(True) == offline(False)

        entry["scan_under_audit_speedup"] = _ratio(
            entry["scan_under_audit_off_s"], entry["scan_under_audit_on_s"]
        )
        entry["query_speedup"] = _ratio(
            entry["query_off_s"], entry["query_on_s"]
        )
        return entry
    finally:
        database.skipping = True
        database.audit_manager.drop_expression(AUDIT_NAME)


def skipping_benchmark(
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    repeats: int = DEFAULT_REPEATS,
    selectivities: tuple[float, ...] = SELECTIVITIES,
) -> dict:
    """Run the on/off comparison; returns a JSON-ready dict."""
    database = Database()
    row_counts = load_tpch(database, scale_factor=scale_factor, seed=42)
    customers = row_counts["customer"]
    table = database.catalog.table("customer")
    results: dict = {
        "benchmark": "skipping",
        "scale_factor": scale_factor,
        "repeats": repeats,
        "customer_rows": customers,
        "block_size": database.block_size,
        "block_count": table.block_count,
        "query": QUERY,
        "selectivities": {},
    }
    for fraction in selectivities:
        sensitive_upto = max(1, round(fraction * customers))
        results["selectivities"][str(fraction)] = _measure_point(
            database, sensitive_upto, repeats
        )
    return results


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return 0.0
    return numerator / denominator


__all__ = [
    "skipping_benchmark",
    "DEFAULT_SCALE_FACTOR",
    "QUICK_SCALE_FACTOR",
    "DEFAULT_REPEATS",
    "QUICK_REPEATS",
    "SELECTIVITIES",
]
