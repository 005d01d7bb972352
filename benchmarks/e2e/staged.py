"""The staged driver: one SELECT through the engine's public stages.

``Database.execute`` runs parse -> build -> rewrite -> audit placement ->
compile -> execute -> trigger firing as one call. The traced run needs a
number per stage, so this driver calls the same public functions in the
same order, with a span around each. Spans inside ``src/`` are a later
change and must reproduce these names.
"""

from __future__ import annotations

from collections import OrderedDict

from measure import lower_quartile, p50_ms
from spans import durations_s, self_time_by_name

from repro.exec.operators.base import collect_rows
from repro.optimizer import Optimizer
from repro.plan.builder import PlanBuilder
from repro.sql.parser import parse_statement

#: compile-pipeline span names, in pipeline order
COMPILE_STAGES = (
    "sql.parse", "plan.build", "optimizer.rewrite", "audit.place",
    "optimizer.compile",
)


class StagedEngine:
    """Runs SELECTs on ``db`` stage by stage under ``tracer``."""

    def __init__(self, db, tracer, user: str = "bench") -> None:
        self.db = db
        self.tracer = tracer
        self.user = user
        self.builder = PlanBuilder(db.catalog)
        self.optimizer = Optimizer(db.catalog, db.audit_manager.resolve_view)
        self.armed = bool(db.audit_manager.expressions())
        # stands in for the engine's plan cache: same key (SQL text),
        # same capacity, so a cold stream compiles every statement here
        # exactly as it does there
        self._plans: OrderedDict = OrderedDict()
        self._capacity = db.plan_cache.capacity

    def select(self, stmt: int, sql: str, parameters=None, tag=None):
        """One staged SELECT; returns (rows, accessed)."""
        span, count = self.tracer.span, self.tracer.count
        with span("stmt", stmt, tag):
            plans = self._plans.get(sql)
            if plans is None:
                with span("sql.parse", stmt):
                    statement = parse_statement(sql)
                with span("plan.build", stmt):
                    logical = self.builder.build_select(statement)
                with span("optimizer.rewrite", stmt):
                    rewritten = self.optimizer.optimize_logical(logical)
                instrumented = rewritten
                if self.armed:
                    with span("audit.place", stmt):
                        instrumented = self.db.audit_manager.instrument(
                            rewritten
                        )
                with span("optimizer.compile", stmt):
                    physical = self.optimizer.compile(instrumented)
                plans = [physical, rewritten, None]
                self._plans[sql] = plans
                if len(self._plans) > self._capacity:
                    self._plans.popitem(last=False)
            else:
                self._plans.move_to_end(sql)
            with span("exec.run", stmt, tag):
                context = self.db.make_context(parameters)
                rows = collect_rows(
                    plans[0], context, mode=self.db.exec_mode
                )
            accessed = {
                name: frozenset(ids)
                for name, ids in context.accessed.items()
            }
            if accessed:
                with span("triggers.fire", stmt):
                    self.db.apply_forwarded_intent(accessed, sql, self.user)
        count(
            stmt,
            rows_out=len(rows),
            blocks_scanned=context.blocks_scanned,
            blocks_zone_skipped=context.blocks_zone_skipped,
            audit_probes=context.audit_probe_count,
            audit_probes_skipped=context.audit_probes_skipped,
            audit_blocks_skipped=context.audit_blocks_skipped,
            accessed_ids=sum(len(ids) for ids in accessed.values()),
        )
        return rows, accessed

    def run_without_hook(self, stmt: int, sql: str, parameters=None,
                         tag=None) -> None:
        """Execute the same rewritten plan compiled without the audit
        hook, outside the statement span: ``exec.run`` minus this is what
        the audit probe costs."""
        plans = self._plans[sql]
        if plans[2] is None:
            plans[2] = self.optimizer.compile(plans[1])
        with self.tracer.span("exec.run_nohook", stmt, tag):
            collect_rows(
                plans[2], self.db.make_context(parameters),
                mode=self.db.exec_mode,
            )


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer numbers of one staged replay.

    Timings are the p50 over the statements that ran the stage (a warm
    plan skips the compile stages); counts are totals over the replay,
    which has a fixed number of statements, so they repeat exactly.
    """
    metrics: dict[str, float] = {}
    for name in (*COMPILE_STAGES, "exec.run", "triggers.fire"):
        samples = durations_s(spans, name)
        metrics[f"{name}_ms"] = p50_ms(samples)
        metrics[f"{name}_ms#n"] = len(samples)
    totals: dict[str, float] = {}
    for values in counters.values():
        for name, value in values.items():
            totals[name] = totals.get(name, 0) + value
    scanned = totals.get("blocks_scanned", 0)
    skipped = totals.get("blocks_zone_skipped", 0)
    metrics.update({
        "exec.rows_out": totals.get("rows_out", 0),
        "storage.blocks_scanned": scanned,
        "storage.blocks_zone_skipped": skipped,
        "storage.skip_ratio": (
            skipped / (scanned + skipped) if scanned + skipped else 0.0
        ),
        "audit.probes": totals.get("audit_probes", 0),
        "audit.probes_skipped": totals.get("audit_probes_skipped", 0),
        "audit.blocks_skipped": totals.get("audit_blocks_skipped", 0),
        "audit.accessed_ids": totals.get("accessed_ids", 0),
    })
    # the audit probe's cost: instrumented minus hook-free execution of
    # the same rewritten plan, per distinct statement, summed. Lower
    # quartiles: a collector pause lands on either side at random, is
    # several times the probe's cost, and is not the probe's doing.
    tags = {span.get("tag") for span in spans
            if span["name"] == "exec.run_nohook"}
    metrics["audit.probe_ms"] = 1e3 * sum(
        lower_quartile(durations_s(spans, "exec.run", tag))
        - lower_quartile(durations_s(spans, "exec.run_nohook", tag))
        for tag in tags
    )
    own = self_time_by_name(spans)
    statement_s = sum(durations_s(spans, "stmt"))
    staged_s = sum(
        own.get(name, 0.0)
        for name in (*COMPILE_STAGES, "exec.run", "triggers.fire")
    )
    compile_s = sum(own.get(name, 0.0) for name in COMPILE_STAGES)
    metrics["trace.stage_coverage"] = (
        staged_s / statement_s if statement_s else 0.0
    )
    metrics["trace.compile_share"] = (
        compile_s / statement_s if statement_s else 0.0
    )
    metrics["trace.stmt_per_s"] = (
        len(durations_s(spans, "stmt")) / statement_s if statement_s else 0.0
    )
    return metrics
