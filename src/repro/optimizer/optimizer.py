"""The optimization pipeline.

``Optimizer.optimize`` runs:

1. logical rewrites (decorrelation, predicate pushdown);
2. the *instrumentation hook* — the audit subsystem inserts and places
   audit operators here, after logical and before physical optimization,
   exactly where the paper integrated them into SQL Server (§IV-B);
3. physical planning.

Rule application never reorders or simplifies across an ``Audit`` node:
the paper reports that ordinary filter transformations corrupted audit
placements (Examples 4.1/4.2), so our rule set treats audit operators as
opaque barriers (see ``rewrite._pushdown``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.exec.operators.base import PhysicalOperator
from repro.optimizer.physical import AuditViewResolver, PhysicalPlanner
from repro.optimizer.rewrite import rewrite_plan
from repro.plan.logical import LogicalPlan, Scan

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.catalog import Catalog

#: instruments a logically-optimized plan with audit operators
InstrumentHook = Callable[[LogicalPlan], LogicalPlan]


class Optimizer:
    """Logical rewrites + instrumentation hook + physical planning."""

    def __init__(
        self,
        catalog: "Catalog",
        audit_view_resolver: AuditViewResolver | None = None,
    ) -> None:
        self._planner = PhysicalPlanner(catalog, audit_view_resolver)
        from repro.optimizer.cost import CostModel

        self._cost = CostModel(catalog, audit_view_resolver)
        #: set False to keep joins in FROM order (ablation / debugging)
        self.join_reorder = True

    @property
    def join_strategy(self) -> str:
        return self._planner.join_strategy

    @join_strategy.setter
    def join_strategy(self, strategy: str) -> None:
        self._planner.join_strategy = strategy

    def optimize(
        self,
        plan: LogicalPlan,
        instrument: InstrumentHook | None = None,
    ) -> PhysicalOperator:
        """Full pipeline: rewritten, instrumented, compiled."""
        optimized = self.optimize_logical(plan, instrument)
        return self.compile(optimized)

    def optimize_logical(
        self,
        plan: LogicalPlan,
        instrument: InstrumentHook | None = None,
    ) -> LogicalPlan:
        """Logical phase only (exposed for plan-shape tests)."""
        rewritten = rewrite_plan(
            plan, cost_model=self._cost if self.join_reorder else None
        )
        if instrument is not None:
            rewritten = instrument(rewritten)
        return rewritten

    def compile(self, plan: LogicalPlan) -> PhysicalOperator:
        return self._planner.compile(plan)

    def access_path(self, plan: Scan) -> PhysicalOperator:
        return self._planner.access_path(plan)
