"""AST-to-logical-plan builder (the binder).

Responsibilities:

* name resolution with nested scopes (correlated subqueries bind to outer
  rows with an ``outer_level``);
* SELECT semantics: FROM joins, WHERE, GROUP BY/HAVING with aggregate
  extraction, DISTINCT, ORDER BY with hidden sort columns, LIMIT/TOP;
* binding of subquery expressions — each gets its own logical plan stored
  in the expression node's ``plan`` field;
* ``accessed``: a ``Gather`` leaf over the rows of the SELECT-trigger
  firing running on this thread (:class:`AccessedRows`), else a table.

The builder performs *no* optimization: it produces a canonical left-deep
plan that the optimizer (``repro.optimizer``) then rewrites.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.errors import BindError
from repro.expr.functions import is_scalar_function
from repro.expr.aggregates import is_aggregate_name
from repro.expr.nodes import (
    ColumnRef,
    Expression,
    FunctionCall,
    Star,
    SubqueryExpression,
    transform,
)
from repro.plan import logical
from repro.plan.logical import (
    ACCESSED_KEY,
    Aggregate,
    AggregateSpec,
    Distinct,
    Filter,
    Gather,
    Join,
    Limit,
    LogicalPlan,
    PlanColumn,
    Project,
    Scan,
    Sort,
    SortKey,
)
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.catalog import Catalog


class Scope:
    """One level of name resolution: the columns of a plan's output row.

    ``parent`` chains to the enclosing query block (or to a pseudo-scope
    such as a trigger's NEW/OLD row).
    """

    def __init__(
        self, columns: tuple[PlanColumn, ...], parent: "Scope | None" = None
    ) -> None:
        self.columns = columns
        self.parent = parent

    def resolve(self, name: str, qualifier: str | None) -> tuple[int, int]:
        """Return ``(outer_level, slot)`` for a column reference."""
        scope: Scope | None = self
        level = 0
        while scope is not None:
            matches = [
                index
                for index, column in enumerate(scope.columns)
                if column.name == name
                and (qualifier is None or column.qualifier == qualifier)
            ]
            if len(matches) > 1:
                display = f"{qualifier}.{name}" if qualifier else name
                raise BindError(f"ambiguous column reference {display!r}")
            if matches:
                return level, matches[0]
            scope = scope.parent
            level += 1
        display = f"{qualifier}.{name}" if qualifier else name
        raise BindError(f"unknown column {display!r}")


def normalize(expression: Expression) -> Expression:
    """Strip display-only fields so bound expressions compare structurally."""

    def visit(node: Expression) -> Expression:
        if isinstance(node, ColumnRef):
            return ColumnRef(
                name="", qualifier=None,
                index=node.index, outer_level=node.outer_level,
            )
        return node

    return transform(expression, visit)


def expressions_match(left: Expression, right: Expression) -> bool:
    """Structural equality of bound expressions, ignoring display names."""
    return normalize(left) == normalize(right)


class AccessedRows(threading.local):
    """The ``accessed`` column name and rows of the SELECT-trigger firing
    running on this thread (``rows`` is None between firings).

    A firing may set ``rows`` to a function that builds them: the first
    read calls it (binding ``accessed`` through :meth:`built`, or running
    a ``Gather`` leaf of it), so a firing none of whose statements reads
    ``accessed`` builds no rows."""

    column: str = ""
    rows = None

    def built(self) -> list[tuple]:
        """The rows, built now if they were not yet."""
        rows = self.rows
        if callable(rows):
            rows = self.rows = rows()
        return rows

    def gather_rows(self) -> dict[int, object] | None:
        """``gather_rows`` of an execution context made now (the rows, or
        the function building them)."""
        return None if self.rows is None else {ACCESSED_KEY: self.rows}


class PlanBuilder:
    """Builds bound logical plans from parsed statements."""

    def __init__(
        self, catalog: "Catalog", accessed: AccessedRows | None = None
    ) -> None:
        self._catalog = catalog
        self._accessed = accessed

    # ------------------------------------------------------------------
    # public API

    def build_select(
        self,
        statement: ast.SelectStatement,
        outer_scope: Scope | None = None,
    ) -> LogicalPlan:
        """Build the logical plan for one SELECT block."""
        plan, scope = self._build_from(statement.from_items, outer_scope)

        if statement.where is not None:
            predicate = self.bind_expression(statement.where, scope)
            plan = Filter(plan, predicate)

        select_expressions, names = self._expand_select_items(
            statement.items, scope
        )
        bound_select = [
            self.bind_expression(expression, scope)
            for expression in select_expressions
        ]
        bound_having = (
            self.bind_expression(statement.having, scope)
            if statement.having is not None
            else None
        )

        # order-by keys: resolve select-list aliases first, else bind
        order_specs = self._prepare_order_by(
            statement.order_by, names, bound_select, scope
        )

        group_expressions = tuple(
            self.bind_expression(expression, scope)
            for expression in statement.group_by
        )
        has_aggregates = any(
            _find_aggregates(expression) for expression in bound_select
        ) or (bound_having is not None and _find_aggregates(bound_having)) \
            or any(
                spec[1] is not None and _find_aggregates(spec[1])
                for spec in order_specs
            )

        if group_expressions or has_aggregates:
            plan, bound_select, bound_having, order_specs = self._aggregate(
                plan,
                group_expressions,
                bound_select,
                bound_having,
                order_specs,
            )
        elif bound_having is not None:
            raise BindError("HAVING requires GROUP BY or aggregates")

        return self._finish(
            plan,
            bound_select,
            names,
            order_specs,
            distinct=statement.distinct,
            limit=statement.limit,
        )

    # ------------------------------------------------------------------
    # FROM clause

    def _build_from(
        self,
        from_items: tuple[ast.FromItem, ...],
        outer_scope: Scope | None,
    ) -> tuple[LogicalPlan, Scope]:
        if not from_items:
            plan: LogicalPlan = OneRow()
            return plan, Scope((), outer_scope)
        plan = None
        for item in from_items:
            item_plan = self._build_from_item(item, outer_scope)
            if plan is None:
                plan = item_plan
            else:
                plan = Join(plan, item_plan, logical.JOIN_INNER, None)
        assert plan is not None
        return plan, Scope(plan.columns, outer_scope)

    def _build_from_item(
        self, item: ast.FromItem, outer_scope: Scope | None
    ) -> LogicalPlan:
        if isinstance(item, ast.TableRef):
            accessed = self._accessed
            if accessed is not None and accessed.rows is not None \
                    and item.name.lower() == "accessed":
                name = accessed.column
                column = PlanColumn(
                    name, item.binding_name.lower(), ("accessed", name)
                )
                return Gather(ACCESSED_KEY, (column,), len(accessed.built()))
            table = self._catalog.table(item.name)
            return Scan(
                table_name=table.schema.name,
                alias=item.binding_name.lower(),
                schema=table.schema,
            )
        if isinstance(item, ast.SubqueryRef):
            subplan = self.build_select(item.select, outer_scope)
            return _requalify(subplan, item.alias.lower())
        if isinstance(item, ast.JoinRef):
            left = self._build_from_item(item.left, outer_scope)
            right = self._build_from_item(item.right, outer_scope)
            kind = (
                logical.JOIN_LEFT if item.kind == "LEFT" else logical.JOIN_INNER
            )
            condition = None
            if item.condition is not None:
                scope = Scope(left.columns + right.columns, outer_scope)
                condition = self.bind_expression(item.condition, scope)
            return Join(left, right, kind, condition)
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    # ------------------------------------------------------------------
    # select list

    def _expand_select_items(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> tuple[list[Expression], list[str]]:
        """Expand ``*`` and derive output names (pre-binding)."""
        expressions: list[Expression] = []
        names: list[str] = []
        for item in items:
            if isinstance(item.expression, Star):
                qualifier = item.expression.qualifier
                matched = False
                for column in scope.columns:
                    if qualifier is not None and column.qualifier != qualifier:
                        continue
                    matched = True
                    expressions.append(
                        ColumnRef(column.name, qualifier=column.qualifier)
                    )
                    names.append(column.name)
                if not matched:
                    raise BindError(
                        f"no columns match {qualifier or ''}.*"
                    )
                continue
            expressions.append(item.expression)
            names.append(item.alias or _derive_name(item.expression, len(names)))
        return expressions, names

    # ------------------------------------------------------------------
    # expression binding

    def bind_expression(
        self, expression: Expression, scope: Scope
    ) -> Expression:
        """Bind column references and subqueries in ``expression``."""
        if isinstance(expression, ColumnRef):
            if expression.is_bound:
                return expression
            level, slot = scope.resolve(expression.name, expression.qualifier)
            return replace(expression, index=slot, outer_level=level)
        if isinstance(expression, SubqueryExpression):
            bound_children = [
                self.bind_expression(child, scope)
                for child in expression.children()
            ]
            if bound_children:
                expression = expression.replace_children(bound_children)
            assert expression.select is not None
            subplan = self.build_select(expression.select, outer_scope=scope)
            return replace(expression, plan=subplan)
        if isinstance(expression, FunctionCall):
            name = expression.name.lower()
            if not is_aggregate_name(name) and not is_scalar_function(name):
                raise BindError(f"unknown function {expression.name!r}")
            args = tuple(
                argument if isinstance(argument, Star)
                else self.bind_expression(argument, scope)
                for argument in expression.args
            )
            return replace(expression, name=name, args=args)
        children = expression.children()
        if not children:
            return expression
        bound = [self.bind_expression(child, scope) for child in children]
        return expression.replace_children(bound)

    # ------------------------------------------------------------------
    # aggregation

    def _aggregate(
        self,
        plan: LogicalPlan,
        group_expressions: tuple[Expression, ...],
        bound_select: list[Expression],
        bound_having: Expression | None,
        order_specs: list[tuple[int | None, Expression | None, bool]],
    ):
        """Insert an Aggregate node and rewrite dependents over its output."""
        aggregate_calls: list[FunctionCall] = []

        def register(call: FunctionCall) -> int:
            for index, existing in enumerate(aggregate_calls):
                if expressions_match(existing, call):
                    return index
            aggregate_calls.append(call)
            return len(aggregate_calls) - 1

        for expression in bound_select:
            for call in _find_aggregates(expression):
                register(call)
        if bound_having is not None:
            for call in _find_aggregates(bound_having):
                register(call)
        for __, expression, __ascending in order_specs:
            if expression is not None:
                for call in _find_aggregates(expression):
                    register(call)

        group_count = len(group_expressions)
        columns = []
        for index, expression in enumerate(group_expressions):
            if isinstance(expression, ColumnRef):
                columns.append(
                    PlanColumn(expression.name, expression.qualifier)
                )
            else:
                columns.append(PlanColumn(f"group{index}"))
        for index, call in enumerate(aggregate_calls):
            columns.append(PlanColumn(f"{call.name}{index}"))

        specs = tuple(
            AggregateSpec(
                name=call.name,
                argument=(
                    None
                    if len(call.args) == 1 and isinstance(call.args[0], Star)
                    else call.args[0]
                ),
                distinct=call.distinct,
            )
            for call in aggregate_calls
        )
        aggregate = Aggregate(plan, group_expressions, specs, tuple(columns))

        def rewrite(expression: Expression) -> Expression:
            return _rewrite_over_groups(
                expression, group_expressions, aggregate_calls, group_count
            )

        bound_select = [rewrite(expression) for expression in bound_select]
        if bound_having is not None:
            bound_having = rewrite(bound_having)
        order_specs = [
            (slot, rewrite(expression) if expression is not None else None,
             ascending)
            for slot, expression, ascending in order_specs
        ]
        result_plan: LogicalPlan = aggregate
        if bound_having is not None:
            result_plan = Filter(result_plan, bound_having)
        return result_plan, bound_select, bound_having, order_specs

    # ------------------------------------------------------------------
    # order by / distinct / limit

    def _prepare_order_by(
        self,
        order_by: tuple[ast.OrderItem, ...],
        names: list[str],
        bound_select: list[Expression],
        scope: Scope,
    ) -> list[tuple[int | None, Expression | None, bool]]:
        """Resolve each ORDER BY item to (select slot | bound expression).

        A bare identifier matching a select alias refers to that output
        column; an integer literal is a 1-based ordinal; anything else is
        bound over the FROM/aggregate scope.
        """
        specs: list[tuple[int | None, Expression | None, bool]] = []
        for item in order_by:
            expression = item.expression
            if isinstance(expression, ColumnRef) and not expression.is_bound \
                    and expression.qualifier is None \
                    and expression.name in names:
                specs.append(
                    (names.index(expression.name), None, item.ascending)
                )
                continue
            from repro.expr.nodes import Literal

            if isinstance(expression, Literal) and isinstance(
                expression.value, int
            ):
                ordinal = expression.value
                if not 1 <= ordinal <= len(names):
                    raise BindError(f"ORDER BY ordinal {ordinal} out of range")
                specs.append((ordinal - 1, None, item.ascending))
                continue
            bound = self.bind_expression(expression, scope)
            # an order key identical to a select item reuses its slot
            slot = next(
                (
                    index
                    for index, candidate in enumerate(bound_select)
                    if expressions_match(candidate, bound)
                ),
                None,
            )
            if slot is not None:
                specs.append((slot, None, item.ascending))
            else:
                specs.append((None, bound, item.ascending))
        return specs

    def _finish(
        self,
        plan: LogicalPlan,
        bound_select: list[Expression],
        names: list[str],
        order_specs: list[tuple[int | None, Expression | None, bool]],
        distinct: bool,
        limit: int | None,
    ) -> LogicalPlan:
        """Assemble Project / Distinct / Sort / Limit above ``plan``."""
        visible = len(bound_select)
        hidden: list[Expression] = []
        keys: list[SortKey] = []
        for slot, expression, ascending in order_specs:
            if slot is None:
                assert expression is not None
                slot = visible + len(hidden)
                hidden.append(expression)
            keys.append(
                SortKey(ColumnRef(f"sort{slot}", index=slot), ascending)
            )

        if distinct and hidden:
            raise BindError(
                "ORDER BY expressions must appear in the select list "
                "when DISTINCT is used"
            )

        columns = tuple(
            _project_column(expression, name, plan)
            for expression, name in zip(bound_select, names)
        ) + tuple(
            PlanColumn(f"__sort{index}") for index in range(len(hidden))
        )
        plan = Project(plan, tuple(bound_select) + tuple(hidden), columns)

        if distinct:
            plan = Distinct(plan)
        if keys:
            plan = Sort(plan, tuple(keys))
        if limit is not None:
            plan = Limit(plan, limit)
        if hidden:
            strip = tuple(
                ColumnRef(columns[index].name, index=index)
                for index in range(visible)
            )
            plan = Project(plan, strip, columns[:visible])
        return plan


class OneRow(LogicalPlan):
    """Leaf producing a single empty row (FROM-less SELECT)."""

    columns: tuple[PlanColumn, ...] = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OneRow)

    def __hash__(self) -> int:
        return hash(type(self))


def _project_column(
    expression: Expression, name: str, child: LogicalPlan
) -> PlanColumn:
    """Derive the output PlanColumn for a projected expression.

    Bare column references keep their origin so downstream consumers (the
    audit machinery, EXPLAIN output) can trace base-table columns through
    projections.
    """
    if isinstance(expression, ColumnRef) and expression.outer_level == 0 \
            and expression.index is not None:
        source = child.columns[expression.index]
        return PlanColumn(name, source.qualifier, source.origin)
    return PlanColumn(name)


def _derive_name(expression: Expression, position: int) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionCall):
        return expression.name
    return f"col{position}"


def _find_aggregates(expression: Expression) -> list[FunctionCall]:
    """Aggregate calls in a bound tree (not entering subqueries)."""
    found: list[FunctionCall] = []
    for node in expression.walk():
        if isinstance(node, FunctionCall) and is_aggregate_name(node.name):
            found.append(node)
    return found


def _rewrite_over_groups(
    expression: Expression,
    group_expressions: tuple[Expression, ...],
    aggregate_calls: list[FunctionCall],
    group_count: int,
) -> Expression:
    """Rewrite a bound expression to address the Aggregate output row."""
    for index, group_expression in enumerate(group_expressions):
        if expressions_match(expression, group_expression):
            name = (
                group_expression.name
                if isinstance(group_expression, ColumnRef)
                else f"group{index}"
            )
            return ColumnRef(name, index=index)
    if isinstance(expression, FunctionCall) and is_aggregate_name(
        expression.name
    ):
        for index, call in enumerate(aggregate_calls):
            if expressions_match(expression, call):
                return ColumnRef(
                    f"{call.name}{index}", index=group_count + index
                )
        raise BindError("unregistered aggregate call")  # pragma: no cover
    if isinstance(expression, ColumnRef) and expression.outer_level == 0:
        raise BindError(
            f"column {expression.display()!r} must appear in GROUP BY "
            "or inside an aggregate"
        )
    if isinstance(expression, SubqueryExpression):
        # A subquery's own plan is bound against outer scopes, not the
        # aggregate output; correlated references into a grouped block
        # are not supported (matches mainstream engines' restrictions).
        return expression
    children = expression.children()
    if not children:
        return expression
    rewritten = [
        _rewrite_over_groups(
            child, group_expressions, aggregate_calls, group_count
        )
        for child in children
    ]
    return expression.replace_children(rewritten)


def _requalify(plan: LogicalPlan, alias: str) -> LogicalPlan:
    """Re-label a derived table's columns under ``alias``."""
    expressions = tuple(
        ColumnRef(column.name, index=index)
        for index, column in enumerate(plan.columns)
    )
    columns = tuple(
        PlanColumn(column.name, alias, column.origin)
        for column in plan.columns
    )
    return Project(plan, expressions, columns)
