"""point_cold: point lookups whose working set exceeds the plan cache.

In-process, one client. Every SELECT inlines its key as a literal drawn
from a key space far above the 128-entry plan cache, so every statement
runs parse -> build -> rewrite -> placement -> compile and then executes
an index probe; the AFTER trigger fires synchronously on the caller's
thread. The mirror image of ``tpch_armed``.
"""

from __future__ import annotations

import time

from repro import Database

import constants as C
import measure
import streams
from staged import StagedEngine, layer_metrics


def build_patients_db(patients: list[tuple], visits: list[tuple] | None,
                      armed: bool, user: str = "bench"
                      ) -> tuple[Database, float]:
    """A loaded patients database and the seconds its bulk load took."""
    db = Database(user_id=user)
    db.execute(C.PATIENTS_DDL)
    db.execute(C.PATIENT_LOG_DDL)
    begin = time.perf_counter()
    db.catalog.table("patients").bulk_load(patients)
    if visits is not None:
        db.execute(C.VISITS_DDL)
        db.catalog.table("visits").bulk_load(visits)
    load_s = time.perf_counter() - begin
    db.execute("ANALYZE")
    if armed:
        db.execute(C.PATIENT_AUDIT_DDL)
        db.execute(C.PATIENT_TRIGGER_DDL)
    return db, load_s


class PointCold(measure.Workload):
    name = "point_cold"

    def setup(self, seed: int) -> None:
        self.patients = streams.patient_rows(C.POINT_PATIENTS)
        self.visits = streams.visit_rows(C.POINT_VISITS, C.POINT_PATIENTS)
        self.db, self.load_s = build_patients_db(
            self.patients, self.visits, armed=True
        )
        self.load_rows = len(self.patients) + len(self.visits)
        for op in streams.point_block(C.DATA_SEED, -1, C.POINT_WARMUP_OPS):
            self.db.execute(op[1])

    def teardown(self) -> None:
        if hasattr(self, "db"):
            self.db.close()

    def _expected(self, op) -> tuple[tuple, int]:
        """(the one result row, the patient it may disclose)."""
        kind, _, _, key = op
        if kind == "pk":
            pid, name, _, age, _ = self.patients[key - 1]
            return (name, age), pid
        _, pid, day, cost = self.visits[key - 1]
        return (self.patients[pid - 1][1], day, cost), pid

    def window(self, seed: int, seconds: float) -> dict:
        log = self.db.catalog.table("audit_log")
        log_before = len(log)
        cache_before = self.db.plan_cache.stats()
        disclosed = 0

        def verify(op, result):
            nonlocal disclosed
            row, pid = self._expected(op)
            if [tuple(r) for r in result.rows] != [row]:
                return f"{op[1]}: rows {result.rows!r}, expected {row!r}"
            ids = set(result.accessed.get(C.PATIENT_AUDIT, ()))
            expected = {pid} if streams.is_sensitive(pid % C.WARDS) else set()
            if ids != expected:
                return f"{op[1]}: ACCESSED {ids!r}, expected {expected!r}"
            disclosed += len(ids)
            return None

        window = measure.run_blocks(
            lambda index: streams.point_block(seed, index),
            lambda op: self.db.execute(op[1]),
            verify, seconds,
        )
        log_rows = len(log) - log_before
        return {
            "window": window,
            "stmt_per_s": window.rate(),
            **measure.latency_metrics(
                "select", window.latencies("pk", "join")
            ),
            **measure.plancache_metrics(
                cache_before, self.db.plan_cache.stats()
            ),
            "triggers.firings": disclosed,  # one ID per disclosing SELECT
            "triggers.log_rows": log_rows,
            "triggers.lost_firings": disclosed - log_rows,
        }

    def traced(self, seed: int, tracer) -> dict:
        engine = StagedEngine(self.db, tracer)
        for stmt, op in enumerate(
            streams.point_block(seed, 0, C.POINT_TRACED_OPS)
        ):
            engine.select(stmt, op[1])
            engine.run_without_hook(stmt, op[1])
        return layer_metrics(tracer.spans, tracer.counters)
