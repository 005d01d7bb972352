"""Cardinality estimation for the physical planner.

A classical textbook model: per-conjunct selectivities multiplied together,
equi-join cardinality via distinct-value counts, and fixed fallbacks when
statistics cannot help. The estimates drive only *relative* choices (hash
build side, index-vs-scan, audit-operator placement), so rough numbers
suffice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Container

from repro.expr.nodes import (
    Between,
    Binary,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    conjuncts,
)
from repro.plan import logical as L
from repro.plan.builder import OneRow

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.catalog import Catalog

_DEFAULT_EQ_SELECTIVITY = 0.1
_DEFAULT_RANGE_SELECTIVITY = 0.3
_DEFAULT_OTHER_SELECTIVITY = 0.5

#: relative per-probe cost of a scan-fused audit probe: it is one
#: ``set.intersection`` sweep over the stored ID column, so probes at a
#: fused leaf are priced well below probes above joins/filters (which run
#: over re-pivoted batches)
COLUMNAR_FUSED_PROBE_WEIGHT = 0.25


class CostModel:
    """Estimates output cardinalities of logical plans."""

    def __init__(
        self,
        catalog: "Catalog",
        audit_view_resolver: Callable[[str], Container] | None = None,
    ) -> None:
        self._catalog = catalog
        self._audit_view_resolver = audit_view_resolver

    # ------------------------------------------------------------------

    def estimate_rows(self, plan: L.LogicalPlan) -> float:
        if isinstance(plan, L.Scan):
            return self._estimate_scan(plan)
        if isinstance(plan, OneRow):
            return 1.0
        if isinstance(plan, L.Filter):
            base = self.estimate_rows(plan.child)
            return base * self._predicate_selectivity(plan.predicate, plan.child)
        if isinstance(plan, L.Project):
            return self.estimate_rows(plan.child)
        if isinstance(plan, L.Audit):
            return self.estimate_rows(plan.child)
        if isinstance(plan, L.Join):
            return self._estimate_join(plan)
        if isinstance(plan, L.Aggregate):
            base = self.estimate_rows(plan.child)
            if not plan.group_expressions:
                return 1.0
            return max(1.0, base / 10.0)
        if isinstance(plan, L.Sort):
            return self.estimate_rows(plan.child)
        if isinstance(plan, L.Limit):
            return min(float(plan.count), self.estimate_rows(plan.child))
        if isinstance(plan, L.Distinct):
            return max(1.0, self.estimate_rows(plan.child) / 2.0)
        if isinstance(plan, L.Gather) and plan.rows is not None:
            return float(plan.rows)
        return 1000.0

    # ------------------------------------------------------------------
    # audit probe estimation (data-skipping-aware placement)

    def estimate_audit_probes(self, plan: L.Audit) -> float:
        """Expected per-row probes an audit operator will perform.

        Normally the child's cardinality. When the operator sits directly
        over a scan of the sensitive table it fuses with the scan's block
        stream and consults the per-block sensitive-ID sketch, probing
        only admitted blocks — the estimate shrinks by the fraction of
        blocks the sketch admits for the view's current ID set.
        """
        base = self.estimate_rows(plan.child)
        child = plan.child
        if not isinstance(child, L.Scan):
            return base
        if self._audit_view_resolver is None:
            return base
        try:
            view = self._audit_view_resolver(plan.audit_name)
            expression = view.expression
            if child.table_name != expression.sensitive_table:
                return base
            fraction = self._catalog.sketch_block_selectivity(
                child.table_name, expression.partition_by, view.ids()
            )
        except Exception:  # resolver/view shape mismatch: no discount
            return base
        return base * fraction

    def estimate_plan_probes(self, plan: L.LogicalPlan) -> float:
        """Total estimated audit probes over every operator in ``plan``."""
        from repro.audit.placement import audit_operators

        return sum(
            self.estimate_audit_probes(operator)
            for operator in audit_operators(plan)
        )

    def estimate_plan_cost(self, plan: L.LogicalPlan) -> float:
        """Probe *cost* of a plan — what 'cost' placement minimizes.

        :meth:`estimate_plan_probes` with probes at an audit operator
        fused with a scan (sitting directly over one) weighted by
        :data:`COLUMNAR_FUSED_PROBE_WEIGHT`, so leaf
        placement can win even when it probes more rows — the probe
        count stays an honest count, only its price per probe changes.
        """
        from repro.audit.placement import audit_operators

        total = 0.0
        for operator in audit_operators(plan):
            probes = self.estimate_audit_probes(operator)
            if isinstance(operator.child, L.Scan):
                probes *= COLUMNAR_FUSED_PROBE_WEIGHT
            total += probes
        return total

    # ------------------------------------------------------------------

    def _estimate_scan(self, plan: L.Scan) -> float:
        try:
            stats = self._catalog.statistics(plan.table_name)
        except Exception:  # missing table stats: arbitrary default
            return 1000.0
        rows = float(stats.row_count)
        if plan.predicate is not None:
            rows *= self._predicate_selectivity(plan.predicate, plan)
        return max(rows, 0.0)

    def _estimate_join(self, plan: L.Join) -> float:
        left = self.estimate_rows(plan.left)
        right = self.estimate_rows(plan.right)
        if plan.kind == L.JOIN_SEMI:
            return left * self._semi_match_fraction(plan, right)
        if plan.kind == L.JOIN_ANTI:
            return left * 0.5
        if plan.condition is None:
            product = left * right
        else:
            selectivity = 1.0
            for conjunct in conjuncts(plan.condition):
                selectivity *= self._join_conjunct_selectivity(
                    conjunct, plan
                )
            product = left * right * selectivity
        if plan.kind == L.JOIN_LEFT:
            return max(product, left)
        return product

    def _join_conjunct_selectivity(
        self, conjunct: Expression, plan: L.Join
    ) -> float:
        if isinstance(conjunct, Binary) and conjunct.op == "=":
            left_distinct = self._distinct_of(conjunct.left, plan)
            right_distinct = self._distinct_of(conjunct.right, plan)
            denominator = max(left_distinct, right_distinct, 1.0)
            return 1.0 / denominator
        return _DEFAULT_OTHER_SELECTIVITY

    def _semi_match_fraction(self, plan: L.Join, right_rows: float
                             ) -> float:
        """Share of left rows a semi join keeps. For one equality
        ``left key = right value``: distinct right values (never more
        than the right input's rows) over distinct left keys, capped at
        1; 0.5 when the condition has another shape or stats are absent.
        """
        parts = conjuncts(plan.condition)
        if len(parts) == 1 and isinstance(parts[0], Binary) \
                and parts[0].op == "=":
            arity = plan.left.arity
            refs = sorted(
                (side for side in (parts[0].left, parts[0].right)
                 if isinstance(side, ColumnRef) and side.outer_level == 0
                 and side.index is not None),
                key=lambda ref: ref.index,
            )
            if len(refs) == 2 and refs[0].index < arity <= refs[1].index:
                left_distinct = self._slot_distinct(plan.left, refs[0].index)
                right_distinct = self._slot_distinct(
                    plan.right, refs[1].index - arity
                ) or right_rows
                if left_distinct is not None:
                    return min(
                        1.0, min(right_distinct, right_rows) / left_distinct
                    )
        return 0.5

    def _distinct_of(self, expression: Expression, plan: L.LogicalPlan
                     ) -> float:
        if not isinstance(expression, ColumnRef) or expression.index is None:
            return 10.0
        distinct = self._slot_distinct(plan, expression.index)
        return 10.0 if distinct is None else distinct

    def _slot_distinct(self, plan: L.LogicalPlan, slot: int
                       ) -> float | None:
        """Distinct count of a base-table column flowing out at ``slot``."""
        if slot >= len(plan.columns):
            return None
        return self.column_distinct(plan.columns[slot], plan)

    def column_distinct(self, column: L.PlanColumn, plan: L.LogicalPlan
                        ) -> float | None:
        """Distinct count of base-table column ``column`` of ``plan``.
        An ``accessed`` leaf's IDs are a set, so it has as many distinct
        values as rows."""
        if column.origin is None:
            return None
        table_name, column_name = column.origin
        try:
            stats = self._catalog.statistics(table_name)
        except Exception:
            for node in plan.walk():
                if isinstance(node, L.Gather) \
                        and node.key == L.ACCESSED_KEY \
                        and column in node.columns:
                    return float(node.rows)
            return None
        column_stats = stats.columns.get(column_name)
        if column_stats is None or column_stats.distinct_count <= 0:
            return None
        return float(column_stats.distinct_count)

    # ------------------------------------------------------------------

    def _predicate_selectivity(
        self, predicate: Expression, child: L.LogicalPlan
    ) -> float:
        selectivity = 1.0
        for conjunct in conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(conjunct, child)
        return min(max(selectivity, 0.0), 1.0)

    def _conjunct_selectivity(
        self, conjunct: Expression, child: L.LogicalPlan
    ) -> float:
        if isinstance(conjunct, Binary) and conjunct.op in (
            "=", "<", "<=", ">", ">=", "<>"
        ):
            column, constant = _column_and_constant(conjunct)
            if column is not None:
                stats = self._column_stats(column, child)
                if stats is not None:
                    if conjunct.op == "=":
                        return stats.selectivity_equals(1)
                    if conjunct.op == "<>":
                        return 1.0 - stats.selectivity_equals(1)
                    if constant is not None:
                        if conjunct.op in ("<", "<="):
                            return stats.selectivity_range(None, constant)
                        return stats.selectivity_range(constant, None)
            if conjunct.op == "=":
                return _DEFAULT_EQ_SELECTIVITY
            return _DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, Between):
            return _DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, (InList, Like, IsNull)):
            return _DEFAULT_RANGE_SELECTIVITY
        return _DEFAULT_OTHER_SELECTIVITY

    def _column_stats(self, column: ColumnRef, child: L.LogicalPlan):
        if column.index is None or column.index >= len(child.columns):
            return None
        plan_column = child.columns[column.index]
        if plan_column.origin is None:
            return None
        table_name, column_name = plan_column.origin
        try:
            stats = self._catalog.statistics(table_name)
        except Exception:
            return None
        return stats.columns.get(column_name)


def _column_and_constant(
    conjunct: Binary,
) -> tuple[ColumnRef | None, object]:
    """Extract (column, literal constant) from a comparison, either side."""
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and left.outer_level == 0:
        constant = right.value if isinstance(right, Literal) else None
        return left, constant
    if isinstance(right, ColumnRef) and right.outer_level == 0:
        constant = left.value if isinstance(left, Literal) else None
        return right, constant
    return None, None
