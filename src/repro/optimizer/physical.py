"""Physical planning: logical plans to executable operator trees.

Mapping is 1:1 per node — deliberately so: the audit operator's position,
fixed by the placement algorithm on the logical plan, must survive into
execution (§IV-B). The planner's choices are local: access path per scan
(full scan vs index seek vs index range), join algorithm (hash vs nested
loop) with hash build side picked by estimated cardinality. ``ORDER BY
... LIMIT`` stays ``Limit`` over ``Sort``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Container

from repro.errors import PlanError
from repro.expr.nodes import (
    Binary,
    ColumnRef,
    Expression,
    conjoin,
    conjuncts,
    contains_subquery,
    referenced_slots,
)
from repro.exec.operators import (
    AuditOperator,
    DistinctOperator,
    FilterOperator,
    GatherSource,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexRange,
    IndexSeek,
    LimitOperator,
    NestedLoopJoin,
    OneRowSource,
    PhysicalOperator,
    ProjectOperator,
    SortOperator,
    TableScan,
)
from repro.optimizer.cost import CostModel
from repro.plan import logical as L
from repro.plan.builder import OneRow

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.catalog import Catalog

#: resolves an audit expression name to its sensitive-ID container
AuditViewResolver = Callable[[str], Container]

#: a range predicate uses an index only below this estimated selectivity
_INDEX_RANGE_THRESHOLD = 0.25

#: join strategies: 'auto' costs index-NL vs hash, the others force one
JOIN_AUTO = "auto"
JOIN_FORCE_HASH = "hash"
JOIN_FORCE_INDEX_NL = "index-nl"


class PhysicalPlanner:
    """Compiles logical plans into physical operator trees."""

    def __init__(
        self,
        catalog: "Catalog",
        audit_view_resolver: AuditViewResolver | None = None,
        node_wrapper: Callable[
            [L.LogicalPlan, PhysicalOperator], PhysicalOperator
        ] | None = None,
    ) -> None:
        self._catalog = catalog
        self._cost = CostModel(catalog, audit_view_resolver)
        self._audit_view_resolver = audit_view_resolver
        self._node_wrapper = node_wrapper
        #: 'auto' | 'hash' | 'index-nl' (see JOIN_* constants)
        self.join_strategy = JOIN_AUTO

    # ------------------------------------------------------------------

    def compile(self, plan: L.LogicalPlan) -> PhysicalOperator:
        """Compile ``plan``, applying the node wrapper (if any) per node.

        The wrapper hook lets the offline auditor splice materializing
        cache operators around subtrees that do not read the sensitive
        table, so repeated ``Q(D − t)`` runs share their results.
        """
        operator = self._compile_node(plan)
        if self._node_wrapper is not None:
            operator = self._node_wrapper(plan, operator)
        return operator

    def _compile_node(self, plan: L.LogicalPlan) -> PhysicalOperator:
        if isinstance(plan, L.Scan):
            return self.access_path(plan)
        if isinstance(plan, OneRow):
            return OneRowSource()
        if isinstance(plan, L.Gather):
            return GatherSource(plan.key)
        if isinstance(plan, L.Filter):
            return FilterOperator(self.compile(plan.child), plan.predicate)
        if isinstance(plan, L.Project):
            return ProjectOperator(self.compile(plan.child), plan.expressions)
        if isinstance(plan, L.Join):
            return self._compile_join(plan)
        if isinstance(plan, L.Aggregate):
            return HashAggregate(
                self.compile(plan.child),
                plan.group_expressions,
                plan.aggregates,
            )
        if isinstance(plan, L.Sort):
            return SortOperator(self.compile(plan.child), plan.keys)
        if isinstance(plan, L.Limit):
            below = plan.child
            if isinstance(below, L.Sort):
                # the sort keeps no more rows than the limit takes (left
                # unwrapped: a subtree the wrapper caches ends higher up)
                child = SortOperator(
                    self.compile(below.child), below.keys, plan.count
                )
            else:
                child = self.compile(below)
            return LimitOperator(child, plan.count)
        if isinstance(plan, L.Distinct):
            return DistinctOperator(self.compile(plan.child))
        if isinstance(plan, L.Audit):
            return self._audit_operator(plan, self.compile(plan.child))
        raise PlanError(f"cannot compile {type(plan).__name__}")

    def _audit_operator(
        self, plan: L.Audit, child: PhysicalOperator
    ) -> AuditOperator:
        if self._audit_view_resolver is None:
            raise PlanError(
                "plan contains an audit operator but the planner has "
                "no audit view resolver"
            )
        return AuditOperator(
            child,
            plan.audit_name,
            plan.id_slot,
            self._audit_view_resolver(plan.audit_name),
        )

    # ------------------------------------------------------------------
    # scans and access paths

    def access_path(self, plan: L.Scan) -> TableScan | IndexSeek | IndexRange:
        """The one-table access choice: an index seek on ``col = <row-
        independent expr>``, an index range under the selectivity
        threshold, else a zone-skipping scan with the compiled predicate.
        UPDATE and DELETE find their targets through it too."""
        table = self._catalog.table(plan.table_name)
        if plan.predicate is None:
            return TableScan(table)
        remaining = conjuncts(plan.predicate)

        # equality seek: col = <row-independent expression>
        for index_name, index in table.secondary_indexes().items():
            if len(index.positions) != 1:
                continue
            position = index.positions[0]
            for conjunct in remaining:
                key = _equality_key(conjunct, position)
                if key is not None:
                    residual = conjoin(
                        [c for c in remaining if c is not conjunct]
                    )
                    return IndexSeek(table, index_name, (key,), residual)

        # range scan: col </<=/>/>= <row-independent expression>
        seek = self._try_index_range(table, remaining)
        if seek is not None:
            return seek
        return TableScan(table, plan.predicate)

    def _try_index_range(
        self, table, remaining: list[Expression]
    ) -> IndexRange | None:
        from repro.storage.index import OrderedIndex

        for index_name, index in table.secondary_indexes().items():
            if not isinstance(index, OrderedIndex) or len(index.positions) != 1:
                continue
            position = index.positions[0]
            low = high = None
            low_inclusive = high_inclusive = True
            used: list[Expression] = []
            for conjunct in remaining:
                bound = _range_bound(conjunct, position)
                if bound is None:
                    continue
                op, expression = bound
                if op in (">", ">=") and low is None:
                    low, low_inclusive = expression, op == ">="
                    used.append(conjunct)
                elif op in ("<", "<=") and high is None:
                    high, high_inclusive = expression, op == "<="
                    used.append(conjunct)
            if low is None and high is None:
                continue
            column_name = table.schema.columns[position].name
            stats = self._catalog.statistics(table.schema.name)
            column_stats = stats.columns.get(column_name)
            if column_stats is not None:
                from repro.expr.nodes import Literal

                low_value = low.value if isinstance(low, Literal) else None
                high_value = high.value if isinstance(high, Literal) else None
                if low_value is None and high_value is None:
                    continue  # bounds unknown at plan time: prefer scan
                selectivity = column_stats.selectivity_range(
                    low_value, high_value
                )
                if selectivity > _INDEX_RANGE_THRESHOLD:
                    continue
            residual = conjoin([c for c in remaining if c not in used])
            return IndexRange(
                table, index_name, low, high,
                low_inclusive, high_inclusive, residual,
            )
        return None

    # ------------------------------------------------------------------
    # joins

    def _compile_join(self, plan: L.Join) -> PhysicalOperator:
        if self.join_strategy != JOIN_FORCE_HASH:
            index_nl = self._try_index_nl_join(plan)
            if index_nl is not None:
                return index_nl

        left = self.compile(plan.left)
        right = self.compile(plan.right)
        right_arity = plan.right.arity
        left_arity = plan.left.arity

        equi_left: list[int] = []
        equi_right: list[int] = []
        residual_parts: list[Expression] = []
        for conjunct in conjuncts(plan.condition) if plan.condition else []:
            pair = _equi_pair(conjunct, left_arity)
            if pair is not None:
                equi_left.append(pair[0])
                equi_right.append(pair[1])
            else:
                residual_parts.append(conjunct)

        if equi_left:
            build_left = False
            if plan.kind == L.JOIN_INNER:
                left_rows = self._cost.estimate_rows(plan.left)
                right_rows = self._cost.estimate_rows(plan.right)
                build_left = left_rows < right_rows
            return HashJoin(
                left,
                right,
                plan.kind,
                tuple(equi_left),
                tuple(equi_right),
                conjoin(residual_parts),
                right_arity,
                build_left=build_left,
            )
        return NestedLoopJoin(left, right, plan.kind, plan.condition, right_arity)

    def _try_index_nl_join(self, plan: L.Join) -> PhysicalOperator | None:
        """Compile as an apply-style index nested-loop join if profitable.

        Requirements: inner (or left-outer) join whose right input is a
        scan — possibly wrapped in audit operators — over a table with a
        single-column index matching one equi-join key, and no correlated
        references already inside the right subtree (pushing the seek key
        would otherwise require shifting their outer levels).

        The seek sits *below* any audit operator, on the index matched
        to the join key here (never re-picked from the scan's own
        conjuncts, which become the seek's residual). This cannot
        introduce audit false negatives: an inner-join row the seek never
        fetches has no join partner, so deleting it cannot change the
        query result and it is not accessed under Definition 2.3.
        """
        from repro.exec.context import _free_outer_refs

        if plan.kind not in (L.JOIN_INNER, L.JOIN_LEFT):
            return None
        if plan.condition is None:
            return None
        # peel audit operators off the right subtree
        audits: list[L.Audit] = []
        inner_plan = plan.right
        while isinstance(inner_plan, L.Audit):
            audits.append(inner_plan)
            inner_plan = inner_plan.child
        if not isinstance(inner_plan, L.Scan):
            return None
        if _free_outer_refs(plan.right):
            return None

        left_arity = plan.left.arity
        parts = conjuncts(plan.condition)
        left_slot: int | None = None
        chosen_conjunct: Expression | None = None
        index_name: str | None = None
        table = self._catalog.table(inner_plan.table_name)
        for conjunct in parts:
            pair = _equi_pair(conjunct, left_arity)
            if pair is None:
                continue
            for name, index in table.secondary_indexes().items():
                if index.positions == (pair[1],):
                    left_slot, chosen_conjunct, index_name = (
                        pair[0], conjunct, name
                    )
                    break
            if left_slot is not None:
                break
        if left_slot is None:
            return None

        if self.join_strategy == JOIN_AUTO:
            left_rows = self._cost.estimate_rows(plan.left)
            right_rows = self._cost.estimate_rows(plan.right)
            if not (left_rows < right_rows * 0.5):
                return None
            if plan.kind != L.JOIN_INNER:
                return None  # conservative in auto mode

        # no key expressions: the join seeks the outer key column itself
        inner: PhysicalOperator = IndexSeek(
            table, index_name, (), inner_plan.predicate
        )
        for audit in reversed(audits):
            inner = self._audit_operator(audit, inner)

        # residuals stay bound over the combined (left ++ right) row
        residual_parts = [c for c in parts if c is not chosen_conjunct]
        return IndexNestedLoopJoin(
            self.compile(plan.left),
            inner,
            plan.kind,
            conjoin(residual_parts),
            plan.right.arity,
            left_slot,
        )


def _equality_key(conjunct: Expression, position: int) -> Expression | None:
    """Match ``col@position = <row-independent expr>`` (either side)."""
    if not isinstance(conjunct, Binary) or conjunct.op != "=":
        return None
    for column_side, value_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if (
            isinstance(column_side, ColumnRef)
            and column_side.outer_level == 0
            and column_side.index == position
            and not referenced_slots(value_side)
            and not contains_subquery(value_side)
        ):
            return value_side
    return None


def _range_bound(
    conjunct: Expression, position: int
) -> tuple[str, Expression] | None:
    """Match ``col@position <op> <row-independent expr>``; normalizes side."""
    if not isinstance(conjunct, Binary):
        return None
    op = conjunct.op
    if op not in ("<", "<=", ">", ">="):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    left, right = conjunct.left, conjunct.right
    if (
        isinstance(left, ColumnRef)
        and left.outer_level == 0
        and left.index == position
        and not referenced_slots(right)
        and not contains_subquery(right)
    ):
        return op, right
    if (
        isinstance(right, ColumnRef)
        and right.outer_level == 0
        and right.index == position
        and not referenced_slots(left)
        and not contains_subquery(left)
    ):
        return flipped[op], left
    return None


def _equi_pair(
    conjunct: Expression, left_arity: int
) -> tuple[int, int] | None:
    """Match ``left_col = right_col`` across a join; returns slot pair."""
    if not isinstance(conjunct, Binary) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not (
        isinstance(left, ColumnRef)
        and isinstance(right, ColumnRef)
        and left.outer_level == 0
        and right.outer_level == 0
        and left.index is not None
        and right.index is not None
    ):
        return None
    if left.index < left_arity <= right.index:
        return left.index, right.index - left_arity
    if right.index < left_arity <= left.index:
        return right.index, left.index - left_arity
    return None
