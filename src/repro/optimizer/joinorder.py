"""Greedy join-order selection for inner-join clusters.

The binder builds joins left-deep in FROM order; real queries (TPC-H Q8
starts its FROM list with ``part``) need reordering to avoid cross
products and huge intermediates. This pass:

1. flattens each maximal inner-join cluster into *leaves* (scans, derived
   tables, outer/semi/anti joins — anything that is not an inner join)
   and *conjuncts* normalized to the cluster-global row layout (the
   in-order concatenation of leaf outputs);
2. greedily orders the leaves: start from the smallest estimated leaf,
   repeatedly join the connected leaf (one sharing an applicable
   equality conjunct, so it can hash or seek) with the smallest
   estimated result — falling back to the smallest disconnected leaf
   when the equality graph is disconnected. A non-equality conjunct
   (Q7's nation-pair OR) connects nothing: taken as an edge, it would
   pair two small filtered scans under a nested-loop join;
3. rebuilds a left-deep tree, attaching each conjunct at the lowest join
   where all its columns are available, and caps the cluster with a
   projection restoring the *original* column order — so no expression
   above the cluster ever needs rebasing.

Clusters whose conjuncts contain subqueries are left untouched: moving a
subquery across join levels would require shifting the outer-reference
levels inside its plan, which this pass deliberately avoids.
"""

from __future__ import annotations

from dataclasses import replace

from repro.expr.nodes import (
    Binary,
    ColumnRef,
    Expression,
    conjoin,
    conjuncts,
    contains_subquery,
)
from repro.optimizer.cost import CostModel
from repro.plan import logical as L
from repro.plan.logical import LogicalPlan, PlanColumn


def reorder_joins(plan: LogicalPlan, cost: CostModel) -> LogicalPlan:
    """Reorder every inner-join cluster in the plan.

    Clusters are flattened top-down — a cluster must be seen whole before
    any of its members is rewritten, else the restoring projection of an
    inner cluster would fragment its parent — and the recursion then
    descends into the cluster's leaves.
    """
    if isinstance(plan, L.Join) and plan.kind == L.JOIN_INNER:
        return _reorder_cluster(plan, cost)
    children = tuple(
        reorder_joins(child, cost) for child in plan.children()
    )
    if children:
        plan = plan.replace_children(children)
    return plan


# ---------------------------------------------------------------------------
# cluster flattening


def _collect(
    node: LogicalPlan,
    offset: int,
    leaves: list[LogicalPlan],
    parts: list[Expression],
) -> int:
    """Flatten an inner-join subtree; returns the subtree's width.

    Conditions are rebased to cluster-global coordinates: a condition at
    a join node binds over the in-order concatenation of its subtree's
    leaves, which starts at the global offset of its leftmost leaf.
    """
    if isinstance(node, L.Join) and node.kind == L.JOIN_INNER:
        left_width = _collect(node.left, offset, leaves, parts)
        right_width = _collect(node.right, offset + left_width, leaves, parts)
        if node.condition is not None:
            for part in conjuncts(node.condition):
                parts.append(_shift(part, offset))
        return left_width + right_width
    leaves.append(node)
    return node.arity


def _shift(expression: Expression, offset: int) -> Expression:
    if offset == 0:
        return expression
    from repro.plan.rebase import remap_slots

    return remap_slots(expression, lambda slot: slot + offset)


def _rebuild_in_order(
    node: LogicalPlan, leaves: list[LogicalPlan]
) -> LogicalPlan:
    """Splice (possibly rewritten) leaves back into the original tree."""
    iterator = iter(leaves)

    def splice(current: LogicalPlan) -> LogicalPlan:
        if isinstance(current, L.Join) and current.kind == L.JOIN_INNER:
            left = splice(current.left)
            right = splice(current.right)
            return replace(current, left=left, right=right)
        return next(iterator)

    return splice(node)


# ---------------------------------------------------------------------------
# greedy ordering


def _reorder_cluster(root: L.Join, cost: CostModel) -> LogicalPlan:
    leaves: list[LogicalPlan] = []
    parts: list[Expression] = []
    _collect(root, 0, leaves, parts)
    # recurse into the leaves (their internal clusters reorder on their
    # own; a restoring projection keeps each leaf's arity/layout stable)
    leaves = [reorder_joins(leaf, cost) for leaf in leaves]
    rebuilt_root = _rebuild_in_order(root, leaves)
    if len(leaves) <= 2:
        return rebuilt_root
    if any(contains_subquery(part) for part in parts):
        return rebuilt_root  # conservative: see module docstring

    # global layout bookkeeping
    widths = [leaf.arity for leaf in leaves]
    starts: list[int] = []
    position = 0
    for width in widths:
        starts.append(position)
        position += width

    def leaf_of_slot(slot: int) -> int:
        for index in range(len(leaves) - 1, -1, -1):
            if slot >= starts[index]:
                return index
        raise AssertionError("slot out of range")

    from repro.plan.rebase import deep_referenced_slots

    part_leaves = [
        frozenset(
            leaf_of_slot(slot) for slot in deep_referenced_slots(part)
        )
        for part in parts
    ]

    estimates = [max(cost.estimate_rows(leaf), 1.0) for leaf in leaves]
    distincts = _distinct_lookup(leaves, parts, cost)

    remaining = set(range(len(leaves)))
    order: list[int] = []
    placed: set[int] = set()
    current_rows = 0.0

    def join_selectivity(candidate: int) -> float:
        selectivity = 1.0
        for index, needed in enumerate(part_leaves):
            if candidate in needed and needed - {candidate} <= placed \
                    and needed - {candidate}:
                selectivity *= distincts[index]
        return selectivity

    first = min(remaining, key=lambda index: estimates[index])
    order.append(first)
    placed.add(first)
    remaining.discard(first)
    current_rows = estimates[first]

    while remaining:
        connected = [
            index
            for index in remaining
            if any(
                index in needed and (needed - {index}) & placed
                for needed, part in zip(part_leaves, parts)
                if isinstance(part, Binary) and part.op == "="
            )
        ]
        pool = connected or sorted(remaining)
        best = min(
            pool,
            key=lambda index: current_rows
            * estimates[index]
            * join_selectivity(index),
        )
        current_rows = max(
            1.0, current_rows * estimates[best] * join_selectivity(best)
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)

    if order == sorted(order):
        return rebuilt_root  # already in the best order found

    return _rebuild(leaves, parts, part_leaves, order, starts, widths)


def _distinct_lookup(
    leaves: list[LogicalPlan],
    parts: list[Expression],
    cost: CostModel,
) -> list[float]:
    """Per-conjunct selectivity estimate (equi: 1/max distinct, else 0.5)."""
    #: (column, leaf it comes from) per slot of the flattened join row
    owners = [(column, leaf) for leaf in leaves for column in leaf.columns]

    def distinct_of(expression: Expression) -> float:
        if not isinstance(expression, ColumnRef) \
                or expression.index is None \
                or expression.index >= len(owners):
            return 10.0
        distinct = cost.column_distinct(*owners[expression.index])
        return 10.0 if distinct is None else distinct

    selectivities = []
    for part in parts:
        if isinstance(part, Binary) and part.op == "=":
            denominator = max(
                distinct_of(part.left), distinct_of(part.right), 1.0
            )
            selectivities.append(1.0 / denominator)
        else:
            selectivities.append(0.5)
    return selectivities


# ---------------------------------------------------------------------------
# rebuilding


def _rebuild(
    leaves: list[LogicalPlan],
    parts: list[Expression],
    part_leaves: list[frozenset],
    order: list[int],
    starts: list[int],
    widths: list[int],
) -> LogicalPlan:
    # new global slot of each old global slot
    new_starts: dict[int, int] = {}
    position = 0
    for leaf_index in order:
        new_starts[leaf_index] = position
        position += widths[leaf_index]

    def slot_fn(slot: int) -> int:
        leaf_index = _owner(slot, starts, widths)
        return new_starts[leaf_index] + (slot - starts[leaf_index])

    def remap(expression: Expression) -> Expression:
        from repro.plan.rebase import remap_slots

        return remap_slots(expression, slot_fn)

    unattached = list(range(len(parts)))
    plan: LogicalPlan = leaves[order[0]]
    placed: set[int] = {order[0]}
    for leaf_index in order[1:]:
        placed.add(leaf_index)
        applicable = [
            index
            for index in unattached
            if part_leaves[index] <= placed
        ]
        unattached = [i for i in unattached if i not in applicable]
        condition = conjoin(
            [remap(parts[index]) for index in applicable]
        )
        plan = L.Join(plan, leaves[leaf_index], L.JOIN_INNER, condition)
    if unattached:  # pragma: no cover - every part references some leaves
        plan = L.Filter(
            plan, conjoin([remap(parts[index]) for index in unattached])
        )

    # restoring projection: original global layout order
    expressions: list[Expression] = []
    columns: list[PlanColumn] = []
    for leaf_index, leaf in enumerate(leaves):
        for offset, column in enumerate(leaf.columns):
            expressions.append(
                ColumnRef(
                    column.name,
                    index=new_starts[leaf_index] + offset,
                )
            )
            columns.append(column)
    return L.Project(plan, tuple(expressions), tuple(columns))


def _owner(slot: int, starts: list[int], widths: list[int]) -> int:
    for index in range(len(starts) - 1, -1, -1):
        if slot >= starts[index]:
            return index
    raise AssertionError("slot out of range")
