"""tpch_armed: the paper's own workload, armed against an unarmed twin.

In-process ``Database.execute``, one client. One round is the §V-A
micro-join at 1 % and 50 % ``o_orderdate`` selectivity plus Q3, Q5, Q7,
Q8, Q10, Q18 and Q22 with bound parameters on the armed database, then
the same nine on an identically loaded second database that has no audit
expression. (Toggling ``audit_enabled`` on one instance would change the
plan-cache tags and evict every cached plan.)
"""

from __future__ import annotations

import statistics
import time

from repro import Database
from repro.tpch import (
    MICRO_BENCHMARK_QUERY,
    QUERIES,
    QUERY_PARAMETERS,
    audit_expression_sql,
)
from repro.tpch.datagen import TpchGenerator
from repro.tpch.schema import TABLE_NAMES, create_schema

import constants as C
import measure
import streams
from spans import durations_s
from staged import StagedEngine, layer_metrics

LOG_DDL = (
    "CREATE TABLE audit_log (ts VARCHAR, uid VARCHAR, query VARCHAR, "
    "c_custkey INT)"
)
TRIGGER_DDL = (
    f"CREATE TRIGGER log_access ON ACCESS TO {C.TPCH_AUDIT_NAME} AS "
    "INSERT INTO audit_log SELECT cast_varchar(now()), user_id(), "
    "sql_text(), c_custkey FROM accessed"
)


class TpchArmed(measure.Workload):
    name = "tpch_armed"

    def setup(self, seed: int) -> None:
        generator = TpchGenerator(C.TPCH_SCALE_FACTOR, seed=C.DATA_SEED)
        data = {
            # the generator names its orders method in the singular
            table: list(getattr(
                generator,
                "order_rows" if table == "orders" else f"{table}_rows",
            )())
            for table in TABLE_NAMES
        }
        self.load_rows = 0
        self.load_s = 0.0
        self.armed = self._load(data)
        self.unarmed = self._load(data)
        self.armed.execute(
            audit_expression_sql(C.TPCH_AUDIT_NAME, C.TPCH_SEGMENT)
        )
        self.armed.execute(LOG_DDL)
        self.armed.execute(TRIGGER_DDL)
        self.armed.catalog.table("audit_log").bulk_load(
            ("pre-aged", "bench", "set-up", key)
            for key in range(C.TPCH_LOG_PREAGE_ROWS)
        )
        self.statements = self._statements()
        # Theorem 3.7 ground truth for the two select-join statements
        self.offline = {
            name: self.armed.offline_audit(
                self.statements[name][0], C.TPCH_AUDIT_NAME,
                self.statements[name][1],
            )
            for name, _ in C.MICRO_SELECTIVITIES
        }
        # warm-up: one full round fills both plan caches
        for name in streams.TPCH_NAMES:
            sql, parameters = self.statements[name]
            self.armed.execute(sql, parameters)
            self.unarmed.execute(sql, parameters)

    def _load(self, data: dict[str, list]) -> Database:
        db = Database(user_id="bench")
        create_schema(db)
        begin = time.perf_counter()
        for table, rows in data.items():
            self.load_rows += db.catalog.table(table).bulk_load(rows)
        self.load_s += time.perf_counter() - begin
        db.execute("ANALYZE")
        return db

    def _statements(self) -> dict[str, tuple[str, dict]]:
        dates = sorted(
            self.unarmed.execute("SELECT o_orderdate FROM orders").column(0)
        )
        statements = {}
        for name, fraction in C.MICRO_SELECTIVITIES:
            index = max(0, min(len(dates) - 1,
                               round((1.0 - fraction) * len(dates))))
            statements[name] = (
                MICRO_BENCHMARK_QUERY,
                {"acctbal": 0.0, "orderdate": dates[index]},
            )
        for name, sql in QUERIES.items():
            statements[name.lower()] = (sql, QUERY_PARAMETERS[name])
        return statements

    def teardown(self) -> None:
        for name in ("armed", "unarmed"):
            if hasattr(self, name):
                getattr(self, name).close()

    # ------------------------------------------------------------------

    def window(self, seed: int, seconds: float) -> dict:
        log = self.armed.catalog.table("audit_log")
        log_before = len(log)
        cache_before = self.armed.plan_cache.stats()
        disclosed = 0
        firings = 0
        armed_rows: dict[str, list] = {}

        def make_block(index: int) -> list[tuple]:
            order = streams.tpch_round(seed, index)
            return [("armed", name) for name in order] + [
                ("unarmed", name) for name in order
            ]

        def call(op):
            side, name = op
            sql, parameters = self.statements[name]
            database = self.armed if side == "armed" else self.unarmed
            return database.execute(sql, parameters)

        def verify(op, result):
            nonlocal disclosed, firings
            side, name = op
            if side == "armed":
                armed_rows[name] = result.rows
                ids = result.accessed.get(C.TPCH_AUDIT_NAME, frozenset())
                disclosed += len(ids)
                firings += bool(ids)
                if name in self.offline and set(ids) != self.offline[name]:
                    return f"{name}: ACCESSED differs from the offline audit"
                return None
            if result.accessed:
                return f"{name}: unarmed database reported ACCESSED"
            if result.rows != armed_rows.get(name):
                return f"{name}: armed and unarmed rows differ"
            return None

        window = measure.run_blocks(make_block, call, verify, seconds)
        log_rows = len(log) - log_before
        armed_s = statistics.median(window.block_seconds("armed"))
        unarmed_s = statistics.median(window.block_seconds("unarmed"))
        return {
            "window": window,
            "stmt_per_s": len(streams.TPCH_NAMES) / armed_s,
            **measure.latency_metrics("select", window.latencies("armed")),
            "audit_overhead_ratio": armed_s / unarmed_s,
            "audit_overhead_base_s": unarmed_s,
            "rounds": len(window.blocks),
            **measure.plancache_metrics(
                cache_before, self.armed.plan_cache.stats()
            ),
            "triggers.firings": firings,
            "triggers.log_rows": log_rows,
            "triggers.lost_firings": disclosed - log_rows,
        }

    # ------------------------------------------------------------------

    def traced(self, seed: int, tracer) -> dict:
        engine = StagedEngine(self.armed, tracer)
        stmt = 0
        for index in range(C.TPCH_TRACED_ROUNDS):
            for name in streams.tpch_round(seed, index):
                sql, parameters = self.statements[name]
                engine.select(stmt, sql, parameters, tag=name)
                engine.run_without_hook(stmt, sql, parameters, tag=name)
                stmt += 1
        metrics = layer_metrics(tracer.spans, tracer.counters)
        for name in streams.TPCH_NAMES:
            metrics[f"exec.{name}_ms"] = measure.p50_ms(
                durations_s(tracer.spans, "exec.run", name)
            )
        return metrics
