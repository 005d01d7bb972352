"""Logical rewrite rules: decorrelation and predicate pushdown.

The rewrites run bottom-up through every plan, including the plans embedded
in subquery expressions. They preserve bound slot coordinates by rebasing
column references whenever a predicate crosses a join boundary.

Rules:

* **decorrelation** — an *uncorrelated* ``IN (SELECT ...)`` conjunct in a
  WHERE filter becomes a semi join; an uncorrelated ``NOT EXISTS`` becomes
  an anti join. Correlated subqueries stay as expressions and are handled
  by the executor's per-correlation memoization.
* **predicate pushdown** — filter conjuncts sink to the lowest operator
  that can evaluate them: through projections (by substitution), inner
  joins (splitting per side; cross-side conjuncts become the join
  condition), the preserved side of left joins, sorts, distincts, group-by
  keys of aggregates, and finally into scans, where the physical planner
  can turn them into index seeks.
* **semi-join pushdown** — a semi join over an inner join sinks into the
  side holding every left-row slot its condition references, repeatedly,
  so ``o_orderkey IN (SELECT ...)`` filters ``orders`` before the join
  rather than the whole product. It passes a stacked semi join on the
  way, but never crosses a left or anti join, nor an inner join whose
  sides its condition spans; anti joins stay where decorrelation put
  them.
* **OR-implied filters** — for a cross-side inner-join conjunct
  ``D1 OR ... OR Dk`` where every ``Di`` has conjuncts over one side
  alone, ``OR_i (those conjuncts)`` is pushed into that side while the
  original stays the join condition (implied, hence sound under
  three-valued logic). Subquery-bearing ORs derive nothing, and a
  derived predicate already present is not added again, so the rewrite
  is idempotent.
"""

from __future__ import annotations

from dataclasses import replace

from repro.expr.nodes import (
    Binary,
    ColumnRef,
    Exists,
    Expression,
    InSubquery,
    SubqueryExpression,
    conjoin,
    conjuncts,
    contains_subquery,
    referenced_slots,
    transform,
)
from repro.plan import logical as L
from repro.plan.builder import OneRow


def rewrite_plan(
    plan: L.LogicalPlan,
    cost_model=None,
) -> L.LogicalPlan:
    """Apply all logical rewrites and return the new plan.

    ``cost_model`` (a :class:`repro.optimizer.cost.CostModel`) enables the
    greedy join-reordering pass; without it, joins keep FROM order.
    """
    plan = _rewrite_subquery_plans(plan, cost_model)
    plan = _fold_plan(plan)
    plan = _decorrelate(plan)
    plan = _pushdown(plan, [])
    if cost_model is not None:
        from repro.optimizer.joinorder import reorder_joins

        plan = reorder_joins(plan, cost_model)
    return plan


# ---------------------------------------------------------------------------
# recursion into subquery expressions


def _rewrite_expression_plans(
    expression: Expression, cost_model=None
) -> Expression:
    def visit(node: Expression) -> Expression:
        if isinstance(node, SubqueryExpression) and node.plan is not None:
            return replace(node, plan=rewrite_plan(node.plan, cost_model))
        return node

    return transform(expression, visit)


def _rewrite_subquery_plans(
    plan: L.LogicalPlan, cost_model=None
) -> L.LogicalPlan:
    """Rewrite the plans inside every subquery expression of ``plan``."""

    def fix(expression: Expression) -> Expression:
        return _rewrite_expression_plans(expression, cost_model)

    if isinstance(plan, L.Scan):
        if plan.predicate is None:
            return plan
        return replace(plan, predicate=fix(plan.predicate))
    children = tuple(
        _rewrite_subquery_plans(child, cost_model)
        for child in plan.children()
    )
    if isinstance(plan, L.Filter):
        plan = replace(plan, predicate=fix(plan.predicate))
    elif isinstance(plan, L.Project):
        plan = replace(
            plan,
            expressions=tuple(fix(e) for e in plan.expressions),
        )
    elif isinstance(plan, L.Join) and plan.condition is not None:
        plan = replace(plan, condition=fix(plan.condition))
    elif isinstance(plan, L.Aggregate):
        plan = replace(
            plan,
            group_expressions=tuple(
                fix(e) for e in plan.group_expressions
            ),
            aggregates=tuple(
                replace(
                    spec,
                    argument=fix(spec.argument)
                    if spec.argument is not None
                    else None,
                )
                for spec in plan.aggregates
            ),
        )
    if children:
        plan = plan.replace_children(children)
    return plan


# ---------------------------------------------------------------------------
# constant folding


def _fold_plan(plan: L.LogicalPlan) -> L.LogicalPlan:
    from repro.optimizer.folding import fold_constants
    from repro.plan.logical import map_expressions

    return map_expressions(plan, fold_constants)


# ---------------------------------------------------------------------------
# decorrelation


def _is_uncorrelated(subplan: L.LogicalPlan) -> bool:
    from repro.exec.context import _free_outer_refs

    return not _free_outer_refs(subplan)


def _decorrelate(plan: L.LogicalPlan) -> L.LogicalPlan:
    children = tuple(_decorrelate(child) for child in plan.children())
    if children:
        plan = plan.replace_children(children)
    if not isinstance(plan, L.Filter):
        return plan

    child = plan.child
    remaining: list[Expression] = []
    for conjunct in conjuncts(plan.predicate):
        converted = _try_convert_conjunct(conjunct, child)
        if converted is None:
            remaining.append(conjunct)
        else:
            child = converted
    if child is plan.child:
        return plan
    predicate = conjoin(remaining)
    if predicate is None:
        return child
    return L.Filter(child, predicate)


def _try_convert_conjunct(
    conjunct: Expression, child: L.LogicalPlan
) -> L.LogicalPlan | None:
    """Convert one WHERE conjunct to a semi/anti join if possible."""
    from repro.expr.nodes import Unary

    if isinstance(conjunct, Unary) and conjunct.op == "NOT" \
            and isinstance(conjunct.operand, Exists):
        # normalize NOT (EXISTS ...) into a negated Exists node
        conjunct = replace(conjunct.operand, negated=not conjunct.operand.negated)
    if isinstance(conjunct, InSubquery) and not conjunct.negated:
        subplan = conjunct.plan
        if subplan is None or subplan.arity != 1:
            return None
        if not _is_uncorrelated(subplan):
            return None
        condition = Binary(
            "=",
            conjunct.operand,
            ColumnRef("__subquery_value", index=child.arity),
        )
        return L.Join(child, subplan, L.JOIN_SEMI, condition)
    if isinstance(conjunct, Exists) and conjunct.negated:
        subplan = conjunct.plan
        if subplan is None or not _is_uncorrelated(subplan):
            return None
        return L.Join(child, subplan, L.JOIN_ANTI, None)
    return None


# ---------------------------------------------------------------------------
# predicate pushdown


def _rebase(expression: Expression, offset: int) -> Expression:
    """Shift slot ordinals referencing this row by ``offset``.

    Follows references into subquery plans (a correlated subquery pushed
    across a join boundary addresses the same row via its outer levels).
    """
    from repro.plan.rebase import remap_slots

    return remap_slots(expression, lambda slot: slot + offset)


def _substitutable(
    expression: Expression, replacements: tuple[Expression, ...]
) -> bool:
    """Can every referenced slot be replaced by a plain column reference?"""
    from repro.plan.rebase import deep_referenced_slots

    return all(
        slot < len(replacements)
        and isinstance(replacements[slot], ColumnRef)
        and replacements[slot].outer_level == 0
        and replacements[slot].index is not None
        for slot in deep_referenced_slots(expression)
    )


def _substitute(
    expression: Expression, replacements: tuple[Expression, ...]
) -> Expression:
    """Remap slot references through column-reference replacements.

    Only valid when :func:`_substitutable` holds — i.e. the substitution
    is a pure slot renaming, safe to apply inside subquery plans too.
    """
    from repro.plan.rebase import remap_slots

    return remap_slots(
        expression, lambda slot: replacements[slot].index
    )


def _pushdown(
    plan: L.LogicalPlan, pending: list[Expression]
) -> L.LogicalPlan:
    """Sink ``pending`` conjuncts (bound over ``plan``'s output) into it."""
    if isinstance(plan, L.Filter):
        return _pushdown(
            plan.child, _merge(pending, conjuncts(plan.predicate))
        )

    if isinstance(plan, L.Scan):
        if pending:
            merged = conjoin(_merge(conjuncts(plan.predicate), pending))
            return replace(plan, predicate=merged)
        return plan

    if isinstance(plan, OneRow):
        return _wrap(plan, pending)

    if isinstance(plan, L.Join):
        return _pushdown_join(plan, pending)

    if isinstance(plan, L.Project):
        sinkable: list[Expression] = []
        stuck: list[Expression] = []
        for conjunct in pending:
            if _substitutable(conjunct, plan.expressions):
                sinkable.append(_substitute(conjunct, plan.expressions))
            else:
                stuck.append(conjunct)
        child = _pushdown(plan.child, sinkable)
        return _wrap(plan.replace_children((child,)), stuck)

    if isinstance(plan, (L.Sort, L.Distinct)):
        # deterministic filters commute with sorting and duplicate removal
        child = _pushdown(plan.children()[0], pending)
        return plan.replace_children((child,))

    if isinstance(plan, L.Aggregate):
        from repro.plan.rebase import deep_referenced_slots

        group_count = len(plan.group_expressions)
        replacements = plan.group_expressions + tuple(
            ColumnRef("__agg") for __ in plan.aggregates
        )
        sinkable = []
        stuck = []
        for conjunct in pending:
            slots = deep_referenced_slots(conjunct)
            if slots and all(slot < group_count for slot in slots) \
                    and _substitutable(conjunct, replacements):
                sinkable.append(_substitute(conjunct, replacements))
            else:
                stuck.append(conjunct)
        child = _pushdown(plan.child, sinkable)
        return _wrap(plan.replace_children((child,)), stuck)

    if isinstance(plan, (L.Limit, L.Audit)):
        # filters do NOT commute below a limit; audit nodes are placed
        # post-rewrite and must not be disturbed
        child = _pushdown(plan.children()[0], [])
        return _wrap(plan.replace_children((child,)), pending)

    return _wrap(plan, pending)


def _references_child(expression: Expression) -> bool:
    return bool(referenced_slots(expression))


def _merge(
    existing: list[Expression], extra: list[Expression]
) -> list[Expression]:
    """``existing`` plus the conjuncts of ``extra`` not already in it."""
    if not existing:
        return list(extra)
    return existing + [part for part in extra if part not in existing]


def _sink_semi_join(plan: L.Join) -> L.LogicalPlan | None:
    """Move a semi join into the side of the inner join beneath it that
    holds every left-row slot its condition references; None if the
    condition spans both sides (or no inner join lies beneath).

    The semi join's output is its left row, so the inner join's layout
    is unchanged; only the condition is rebased — row slots by the
    side's offset, the subquery slot to just past the side's arity.
    """
    from repro.plan.rebase import deep_referenced_slots, remap_slots

    inner = plan.left
    if isinstance(inner, L.Join) and inner.kind == L.JOIN_SEMI:
        # stacked semi joins commute and share a layout: pass the lower
        # one only to sink below it, else the next rewrite would
        sunk = _sink_semi_join(replace(plan, left=inner.left))
        return None if sunk is None else replace(inner, left=sunk)
    if not (
        isinstance(inner, L.Join)
        and inner.kind == L.JOIN_INNER
        and plan.condition is not None
    ):
        return None
    arity = inner.arity
    row_slots = [
        slot
        for slot in deep_referenced_slots(plan.condition)
        if slot < arity
    ]
    if not row_slots:
        return None
    split = inner.left.arity
    if max(row_slots) < split:
        side, offset = inner.left, 0
    elif min(row_slots) >= split:
        side, offset = inner.right, split
    else:
        return None
    condition = remap_slots(
        plan.condition,
        lambda slot: slot - offset if slot < arity
        else slot - arity + side.arity,
    )
    semi = L.Join(side, plan.right, L.JOIN_SEMI, condition)
    if offset:
        return replace(inner, right=semi)
    return replace(inner, left=semi)


def _disjuncts(expression: Expression) -> list[Expression]:
    if isinstance(expression, Binary) and expression.op == "OR":
        return _disjuncts(expression.left) + _disjuncts(expression.right)
    return [expression]


def _or_implied(conjunct: Expression, on_side) -> Expression | None:
    """For ``D1 OR ... OR Dk``: ``OR_i (conjuncts of Di whose slots
    satisfy on_side)``, or None unless every ``Di`` has one."""
    from repro.plan.rebase import deep_referenced_slots

    if not (isinstance(conjunct, Binary) and conjunct.op == "OR") \
            or contains_subquery(conjunct):
        return None
    derived: Expression | None = None
    for disjunct in _disjuncts(conjunct):
        term = conjoin([
            part
            for part in conjuncts(disjunct)
            if on_side(deep_referenced_slots(part))
        ])
        if term is None:
            return None
        derived = term if derived is None else Binary("OR", derived, term)
    return derived


def _pushdown_join(plan: L.Join, pending: list[Expression]) -> L.LogicalPlan:
    from repro.plan.rebase import deep_referenced_slots

    if plan.kind == L.JOIN_SEMI:
        sunk = _sink_semi_join(plan)
        if sunk is not None:
            return _pushdown(sunk, pending)

    left_arity = plan.left.arity
    left_parts: list[Expression] = []
    right_parts: list[Expression] = []
    condition_parts: list[Expression] = []
    above_parts: list[Expression] = []

    candidates = list(pending)
    if plan.kind == L.JOIN_INNER and plan.condition is not None:
        candidates += conjuncts(plan.condition)

    for conjunct in candidates:
        slots = deep_referenced_slots(conjunct)
        only_left = all(slot < left_arity for slot in slots)
        only_right = bool(slots) and all(slot >= left_arity for slot in slots)
        if plan.kind == L.JOIN_INNER:
            if only_left:
                left_parts.append(conjunct)
            elif only_right:
                right_parts.append(_rebase(conjunct, -left_arity))
            else:
                condition_parts.append(conjunct)
        elif plan.kind in (L.JOIN_SEMI, L.JOIN_ANTI):
            # output row is the left row: every pending conjunct references
            # left slots only and may sink into the left input
            left_parts.append(conjunct)
        else:  # LEFT OUTER: only left-side conjuncts sink (preserved side)
            if only_left:
                left_parts.append(conjunct)
            else:
                above_parts.append(conjunct)

    condition = plan.condition
    if plan.kind == L.JOIN_INNER:
        condition = conjoin(condition_parts)
        for conjunct in condition_parts:
            derived = _or_implied(
                conjunct, lambda slots: slots and max(slots) < left_arity
            )
            if derived is not None:
                left_parts.append(derived)
            derived = _or_implied(
                conjunct, lambda slots: slots and min(slots) >= left_arity
            )
            if derived is not None:
                right_parts.append(_rebase(derived, -left_arity))
    elif plan.kind == L.JOIN_LEFT and condition is not None:
        # ON conjuncts referencing only the right side sink into the right
        kept: list[Expression] = []
        sink_right: list[Expression] = []
        for conjunct in conjuncts(condition):
            slots = deep_referenced_slots(conjunct)
            if slots and all(slot >= left_arity for slot in slots):
                sink_right.append(_rebase(conjunct, -left_arity))
            else:
                kept.append(conjunct)
        condition = conjoin(kept)
        right_parts.extend(sink_right)

    new_left = _pushdown(plan.left, left_parts)
    new_right = _pushdown(plan.right, right_parts)
    new_join = L.Join(new_left, new_right, plan.kind, condition)
    return _wrap(new_join, above_parts)


def _wrap(plan: L.LogicalPlan, pending: list[Expression]) -> L.LogicalPlan:
    predicate = conjoin(pending)
    if predicate is None:
        return plan
    return L.Filter(plan, predicate)
