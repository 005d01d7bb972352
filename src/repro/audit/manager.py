"""Audit manager: registry of audit expressions, ID views, and triggers.

The manager is the glue between the catalog, the optimizer's
instrumentation hook, and the trigger subsystem:

* ``create_expression`` validates a CREATE AUDIT EXPRESSION, materializes
  its sensitive-ID view, and installs maintenance observers;
* ``instrument`` is handed to the optimizer as the hook that runs between
  logical and physical optimization (§IV-B);
* ``resolve_view`` supplies the physical planner with the ID container a
  physical audit operator probes;
* after a query completes, ``fire_select_triggers`` runs the actions of
  every SELECT trigger whose audit expression recorded accesses (§II-C).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Sequence

from repro.audit.expression import AuditExpression
from repro.audit.idview import IdView
from repro.audit.placement import (
    HEURISTIC_COST,
    HEURISTIC_HCN,
    HEURISTIC_LEAF,
    AuditTarget,
    instrument_plan,
)
from repro.errors import AuditError
from repro.plan.logical import LogicalPlan

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.catalog import Catalog
    from repro.sql import ast

#: executes the ID-materialization select, returning a set of IDs
Materializer = Callable[[AuditExpression], set]


class AuditManager:
    """Owns audit expressions and their materialized ID views."""

    def __init__(
        self,
        catalog: "Catalog",
        materializer: Materializer,
        heuristic: str = HEURISTIC_HCN,
    ) -> None:
        self._catalog = catalog
        self._materializer = materializer
        self._views: dict[str, IdView] = {}
        self.heuristic = heuristic
        #: probe structure for new ID views: 'set' (exact, default) or
        #: 'bloom' (§IV-A.2's fallback when IDs do not fit in memory;
        #: one-sided — may add false positives, never false negatives)
        self.probe_structure = "set"
        #: monotonic counter bumped whenever the set of audit expressions
        #: (or their views) changes; plan caches include it in their keys
        #: because instrumented plan shapes depend on this configuration
        self.config_version = 0
        # Serializes registry mutation and the config_version bumps
        # (read-modify-write) against concurrent DDL threads.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # expression lifecycle

    def create_expression(
        self, statement: "ast.CreateAuditExpressionStatement"
    ) -> AuditExpression:
        with self._lock:
            expression = AuditExpression.from_statement(
                statement, self._catalog
            )
            if expression.name in self._views:
                raise AuditError(
                    f"audit expression {expression.name!r} already exists"
                )
            view = IdView(
                expression,
                self._catalog,
                self._materializer,
                probe_structure=self.probe_structure,
            )
            view.install_observers()
            self._views[expression.name] = view
            self._catalog.add_audit_expression(expression.name, expression)
            # Sketch the partition-by column in the sensitive table's
            # block summaries so scans under this expression's audit
            # operators can skip blocks with no sensitive rows.
            self._catalog.table(
                expression.sensitive_table
            ).register_sketch_column(expression.partition_by)
            self.config_version += 1
            return expression

    def drop_expression(self, name: str) -> None:
        with self._lock:
            key = name.lower()
            view = self._views.pop(key, None)
            if view is None:
                raise AuditError(
                    f"audit expression {name!r} does not exist"
                )
            view.uninstall_observers()
            self._catalog.drop_audit_expression(key)
            self.config_version += 1

    def expression(self, name: str) -> AuditExpression:
        return self.view(name).expression

    def has_expression(self, name: str) -> bool:
        """True when an audit expression named ``name`` is registered
        (recovery uses this to drop intents for dropped expressions)."""
        return name.lower() in self._views

    def expressions(self) -> list[AuditExpression]:
        return [view.expression for view in self._views.values()]

    def view(self, name: str) -> IdView:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise AuditError(
                f"audit expression {name!r} does not exist"
            ) from None

    def resolve_view(self, name: str) -> IdView:
        """Resolver handed to the physical planner (audit operator probe)."""
        return self.view(name)

    def override_view(self, name: str, view: IdView):
        """Context manager: temporarily replace an expression's ID view
        (benchmarks use this to compare probe structures in place)."""
        manager = self

        class _Override:
            def __enter__(self) -> None:
                with manager._lock:
                    self._previous = manager._views[name.lower()]
                    manager._views[name.lower()] = view
                    manager.config_version += 1

            def __exit__(self, *exc_info) -> None:
                with manager._lock:
                    manager._views[name.lower()] = self._previous
                    manager.config_version += 1

        return _Override()

    def suspend_expression(self, name: str):
        """Context manager: temporarily exclude an expression from
        instrumentation (used by benchmarks to isolate one expression)."""
        manager = self

        class _Suspend:
            def __enter__(self) -> None:
                with manager._lock:
                    self._view = manager._views.pop(name.lower())
                    manager.config_version += 1

            def __exit__(self, *exc_info) -> None:
                with manager._lock:
                    manager._views[name.lower()] = self._view
                    manager.config_version += 1

        return _Suspend()

    # ------------------------------------------------------------------
    # instrumentation (the optimizer hook)

    def targets(
        self, names: Sequence[str] | None = None
    ) -> list[AuditTarget]:
        """Placement targets for the given (or all) audit expressions."""
        views = (
            [self.view(name) for name in names]
            if names is not None
            else list(self._views.values())
        )
        return [
            AuditTarget(
                name=view.expression.name,
                sensitive_table=view.expression.sensitive_table,
                partition_column=view.expression.partition_by,
            )
            for view in views
        ]

    def instrument(
        self,
        plan: LogicalPlan,
        names: Sequence[str] | None = None,
        heuristic: str | None = None,
    ) -> LogicalPlan:
        """Insert + place audit operators (Algorithm 1)."""
        targets = self.targets(names)
        chosen = heuristic or self.heuristic
        if chosen == HEURISTIC_COST:
            return self._instrument_costed(plan, targets)
        return instrument_plan(plan, targets, chosen)

    def _instrument_costed(
        self, plan: LogicalPlan, targets: Sequence[AuditTarget]
    ) -> LogicalPlan:
        """Pick leaf vs HCN placement by estimated probe count.

        Leaf placement probes every sensitive-table row but fuses with
        the scan's block sketches; HCN probes only rows surviving
        filters/joins but cannot consult block summaries above the scan.
        The sketch-selectivity-aware cost model prices both and the
        cheaper candidate wins (ties go to HCN, the paper's default).
        """
        from repro.optimizer.cost import CostModel  # local: cycle guard

        candidates = [
            instrument_plan(plan, targets, heuristic)
            for heuristic in (HEURISTIC_HCN, HEURISTIC_LEAF)
        ]
        model = CostModel(self._catalog, self.resolve_view)
        return min(candidates, key=model.estimate_plan_cost)
