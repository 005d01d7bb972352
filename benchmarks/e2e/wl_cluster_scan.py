"""cluster_scan: scatter/gather over two shards, compute only.

In-process ``ClusterDatabase(shards=2)`` with ``simulated_io_us_per_row``
left at 0 — no modeled sleep. The customer table at SF 0.1, the §V audit
expression and a NOTIFY trigger; the four scan-heavy armed statements of
``repro.bench.cluster.WORKLOAD``, each once per round, one client. The
only workload where split/scatter/gather/merge and coordinator-level
firing are on the blocking path. A single-node ``Database`` holding the
same rows is both the correctness reference and the base of
``cluster.scatter_overhead_ratio``.
"""

from __future__ import annotations

import statistics
import time

from repro import Database
from repro.bench.cluster import AUDIT_NAME, CUSTOMER_DDL, SEGMENT, WORKLOAD
from repro.cluster import ClusterDatabase
from repro.tpch.datagen import TpchGenerator
from repro.tpch.queries import audit_expression_sql

import constants as C
import measure
from spans import durations_s
from staged import StagedEngine, layer_metrics
import streams

STATEMENTS = dict(WORKLOAD)
NAMES = tuple(STATEMENTS)
ARM_DDL = (
    audit_expression_sql(AUDIT_NAME, SEGMENT),
    f"CREATE TRIGGER fired ON ACCESS TO {AUDIT_NAME} AS NOTIFY 'hit'",
)


def _canonical(rows) -> list:
    return sorted((tuple(row) for row in rows), key=repr)


class ClusterScan(measure.Workload):
    name = "cluster_scan"

    def setup(self, seed: int) -> None:
        rows = list(
            TpchGenerator(C.CLUSTER_SCALE_FACTOR, seed=C.DATA_SEED)
            .customer_rows()
        )
        self.cluster = ClusterDatabase(shards=C.CLUSTER_SHARDS)
        self.cluster.execute(CUSTOMER_DDL)
        begin = time.perf_counter()
        self.cluster.bulk_load("customer", rows)
        self.load_s = time.perf_counter() - begin
        self.load_rows = len(rows)
        self.cluster.execute("ANALYZE")
        self.single = Database(user_id="bench")
        self.single.execute(CUSTOMER_DDL)
        self.single.catalog.table("customer").bulk_load(rows)
        self.single.execute("ANALYZE")
        for ddl in ARM_DDL:  # repartitions customer on c_custkey
            self.cluster.execute(ddl)
            self.single.execute(ddl)
        self.expected = {}
        for name, sql in STATEMENTS.items():
            result = self.single.execute(sql)
            self.expected[name] = (_canonical(result.rows), result.accessed)
        for _ in range(C.CLUSTER_WARMUP_ROUNDS):
            for sql in STATEMENTS.values():
                self.cluster.execute(sql)
                self.single.execute(sql)

    def teardown(self) -> None:
        for name in ("cluster", "single"):
            if hasattr(self, name):
                getattr(self, name).close()

    def window(self, seed: int, seconds: float) -> dict:
        fired_before = len(self.cluster.notifications)
        cache_before = self.cluster.plan_cache.stats()
        health_before = self.cluster.cluster_health()
        disclosing = 0

        def verify(op, result):
            nonlocal disclosing
            rows, accessed = self.expected[op[0]]
            if _canonical(result.rows) != rows:
                return f"{op[0]}: rows differ from the single-node twin"
            if result.accessed != accessed:
                return f"{op[0]}: ACCESSED differs from the single-node twin"
            disclosing += bool(accessed)
            return None

        def make_block(index: int) -> list[tuple]:
            return [
                (name,) for name in streams.cluster_block(seed, index, NAMES)
            ]

        window = measure.run_blocks(
            make_block,
            lambda op: self.cluster.execute(STATEMENTS[op[0]]),
            verify, seconds,
        )
        fired = len(self.cluster.notifications) - fired_before
        health = self.cluster.cluster_health()
        # the same rounds on the single-node twin, after the window
        twin = measure.run_blocks(
            make_block,
            lambda op: self.single.execute(STATEMENTS[op[0]]),
            lambda op, result: None,
            0.0, max_blocks=C.MIN_BLOCKS,
        )
        cluster_block_s = statistics.median(window.block_seconds())
        twin_block_s = statistics.median(twin.block_seconds())
        return {
            "window": window,
            "stmt_per_s": window.rate(),
            **measure.latency_metrics("select", window.latencies(*NAMES)),
            **measure.plancache_metrics(
                cache_before, self.cluster.plan_cache.stats()
            ),
            "triggers.firings": fired,
            "triggers.log_rows": fired,  # NOTIFY: one message per firing
            "triggers.lost_firings": disclosing - fired,
            "cluster.scatter_overhead_ratio": cluster_block_s / twin_block_s,
            "cluster.scatter_overhead_base_s": twin_block_s,
            "cluster.deadline_timeouts": (
                health["deadline_timeouts"]
                - health_before["deadline_timeouts"]
            ),
            "cluster.retries": (
                health["scatter_retries"] - health_before["scatter_retries"]
            ),
        }

    def traced(self, seed: int, tracer) -> dict:
        """Spans around the cluster statement and, separately, around the
        same statement on each shard; the engine stages come from the
        single-node twin run through the staged driver."""
        order = [
            name
            for index in range(
                C.CLUSTER_TRACED_ROUNDS // C.CLUSTER_BLOCK_ROUNDS
            )
            for name in streams.cluster_block(seed, index, NAMES)
        ]
        shard_max_s, coord_s = [], []
        for stmt, name in enumerate(order):
            sql = STATEMENTS[name]
            with tracer.span("cluster.stmt", stmt, name) as whole:
                self.cluster.execute(sql)
            shard_ns = []
            for index in range(self.cluster.shard_count):
                with tracer.span("cluster.shard_exec", stmt, name) as part:
                    self.cluster.shard(index).execute(sql)
                shard_ns.append(part["end_ns"] - part["start_ns"])
            # a gather waits for its slowest shard
            shard_max_s.append(max(shard_ns) / 1e9)
            coord_s.append(
                (whole["end_ns"] - whole["start_ns"] - max(shard_ns)) / 1e9
            )
        cluster_s = sum(durations_s(tracer.spans, "cluster.stmt"))
        staged_from = len(tracer.spans)
        engine = StagedEngine(self.single, tracer)
        for stmt, name in enumerate(order, start=len(order)):
            engine.select(stmt, STATEMENTS[name], tag=name)
            engine.run_without_hook(stmt, STATEMENTS[name], tag=name)
        metrics = layer_metrics(tracer.spans[staged_from:], tracer.counters)
        metrics.update({
            "cluster.shard_exec_ms": measure.p50_ms(shard_max_s),
            "cluster.coord_ms": measure.p50_ms(coord_s),
            "trace.stmt_per_s": len(order) / cluster_s,
        })
        return metrics
