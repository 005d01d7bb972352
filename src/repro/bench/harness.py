"""Shared benchmark infrastructure: fixture, timing, table rendering.

The paper's evaluation ran on TPC-H at scale factor 10 inside SQL Server;
our substrate is a pure-Python engine, so the default scale factor is
``0.005`` (≈750 customers) — every reported quantity is either a
cardinality (scale-free in shape) or a *relative* overhead. Set the
``REPRO_BENCH_SF`` environment variable to rescale.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Sequence

from repro import Database
from repro.exec.operators.base import collect_rows
from repro.tpch import audit_expression_sql, load_tpch

DEFAULT_SCALE_FACTOR = float(os.environ.get("REPRO_BENCH_SF", "0.005"))
DEFAULT_SEGMENT = "BUILDING"
AUDIT_NAME = "audit_customer"


class BenchmarkFixture:
    """A loaded TPC-H database with the §V audit expression installed."""

    def __init__(
        self,
        scale_factor: float = DEFAULT_SCALE_FACTOR,
        segment: str = DEFAULT_SEGMENT,
        seed: int = 42,
    ) -> None:
        self.scale_factor = scale_factor
        self.segment = segment
        self.database = Database()
        self.row_counts = load_tpch(
            self.database, scale_factor=scale_factor, seed=seed
        )
        self.database.execute(
            audit_expression_sql(AUDIT_NAME, segment)
        )

    @property
    def audit_view(self):
        return self.database.audit_manager.view(AUDIT_NAME)

    def orderdate_for_selectivity(self, fraction: float):
        """The o_orderdate cutoff such that ``o_orderdate > cutoff``
        selects ≈``fraction`` of the orders table."""
        dates = sorted(
            self.database.execute(
                "SELECT o_orderdate FROM orders"
            ).column(0)
        )
        index = max(
            0, min(len(dates) - 1, round((1.0 - fraction) * len(dates)))
        )
        return dates[index]

    def compile_with_heuristic(
        self,
        sql: str,
        heuristic: str | None,
        join_strategy: str | None = None,
    ):
        """Compile a SELECT to a physical plan under one heuristic.

        Benchmarks time pre-compiled plans — matching the paper, which
        reports query *execution* overheads — so parse/optimize noise does
        not pollute the audit-operator measurements.
        """
        from repro.sql.parser import parse_statement

        database = self.database
        statement = parse_statement(sql)
        logical = database._builder.build_select(statement)
        if heuristic is None:
            instrument = None
        else:
            manager = database.audit_manager

            def instrument(plan):
                return manager.instrument(plan, heuristic=heuristic)

        optimized = database._optimizer.optimize_logical(
            logical, instrument=instrument
        )
        previous = database.join_strategy
        if join_strategy is not None:
            database.join_strategy = join_strategy
        try:
            return database._optimizer.compile(optimized)
        finally:
            database.join_strategy = previous

    def execution_time(
        self,
        sql: str,
        parameters: dict | None,
        heuristic: str | None,
        repeats: int = 9,
        join_strategy: str | None = None,
    ) -> float:
        """Best-of-N wall-clock seconds for executing the compiled plan."""
        physical = self.compile_with_heuristic(sql, heuristic, join_strategy)
        database = self.database

        def run():
            context = database.make_context(parameters)
            collect_rows(physical, context)

        run()  # warm-up
        import gc

        best = float("inf")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for __ in range(repeats):
                start = time.perf_counter()
                run()
                elapsed = time.perf_counter() - start
                if elapsed < best:
                    best = elapsed
        finally:
            if was_enabled:
                gc.enable()
        return best

    def compare_execution(
        self,
        sql: str,
        parameters: dict | None,
        variants: dict[str, tuple[str | None, str | None]],
        repeats: int = 11,
    ) -> dict[str, float]:
        """Best-of-N execution seconds per variant, measured interleaved.

        ``variants`` maps a label to ``(heuristic, join_strategy)``. All
        plans are compiled up front; each timing round runs every variant
        once, so slow machine phases hit all variants equally instead of
        biasing whichever variant happened to run last.
        """
        import gc

        database = self.database
        plans = {
            label: self.compile_with_heuristic(sql, heuristic, strategy)
            for label, (heuristic, strategy) in variants.items()
        }

        def run(physical) -> None:
            context = database.make_context(parameters)
            collect_rows(physical, context)

        for physical in plans.values():
            run(physical)  # warm-up
        best = {label: float("inf") for label in plans}
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for __ in range(repeats):
                for label, physical in plans.items():
                    start = time.perf_counter()
                    run(physical)
                    elapsed = time.perf_counter() - start
                    if elapsed < best[label]:
                        best[label] = elapsed
        finally:
            if was_enabled:
                gc.enable()
        return best

    def run_with_heuristic(
        self,
        sql: str,
        parameters: dict | None,
        heuristic: str | None,
        join_strategy: str = "hash",
    ):
        """Execute ``sql`` under a placement heuristic (None = no audit).

        Cardinality experiments default to the hash-join plan family so
        the leaf-node heuristic audits every tuple passing the sensitive
        table's single-table predicates — the §III semantics — instead of
        only the tuples an index nested-loop join happens to fetch.
        """
        database = self.database
        previous_strategy = database.join_strategy
        database.join_strategy = join_strategy
        try:
            if heuristic is None:
                database.audit_enabled = False
                try:
                    return database.execute(sql, parameters)
                finally:
                    database.audit_enabled = True
            previous = database.audit_manager.heuristic
            database.audit_manager.heuristic = heuristic
            try:
                return database.execute(sql, parameters)
            finally:
                database.audit_manager.heuristic = previous
        finally:
            database.join_strategy = previous_strategy


def measure_median(
    action: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
) -> float:
    """Median wall-clock seconds of ``action`` over ``repeats`` runs."""
    for __ in range(warmup):
        action()
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        action()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def overhead_percent(instrumented: float, baseline: float) -> float:
    """Relative overhead in percent (clamped below at 0 for noise)."""
    if baseline <= 0:
        return 0.0
    return max(0.0, (instrumented / baseline - 1.0) * 100.0)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Fixed-width text table in the style of the paper's figures."""
    formatted = [
        [_format_cell(value) for value in row] for row in rows
    ]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in formatted))
        if formatted
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append(
        "  ".join(
            str(header).ljust(width)
            for header, width in zip(headers, widths)
        )
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in formatted:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
