"""Expression evaluation over bound trees.

``evaluate(expression, row, context)`` computes a scalar value with SQL
NULL semantics. ``context`` is an :class:`repro.exec.context.ExecutionContext`
providing query parameters, the outer-row stack for correlated references,
the subquery runner, and session functions.

Subquery expressions are evaluated through ``context.run_subquery`` which
executes the bound logical plan (compiled and memoized by the executor).
"""

from __future__ import annotations

import datetime
from typing import TYPE_CHECKING

from repro.datatypes import (
    Interval,
    add_interval,
    sql_and,
    sql_compare,
    sql_like,
    sql_not,
    sql_or,
)
from repro.errors import ExecutionError
from repro.expr.functions import lookup_function
from repro.expr.nodes import (
    AggregateRef,
    Between,
    Binary,
    Case,
    ColumnRef,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IntervalLiteral,
    IsNull,
    Like,
    Literal,
    Parameter,
    ScalarSubquery,
    Star,
    Unary,
)

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext

_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def evaluate(
    expression: Expression, row: tuple, context: "ExecutionContext"
) -> object:
    """Evaluate a bound expression against ``row``."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return _column_value(expression, row, context)
    if isinstance(expression, AggregateRef):
        return row[expression.index]
    if isinstance(expression, Parameter):
        return context.parameter(expression.name)
    if isinstance(expression, IntervalLiteral):
        return expression.interval
    if isinstance(expression, Binary):
        return _binary(expression, row, context)
    if isinstance(expression, Unary):
        return _unary(expression, row, context)
    if isinstance(expression, IsNull):
        value = evaluate(expression.operand, row, context)
        answer = value is None
        return not answer if expression.negated else answer
    if isinstance(expression, Between):
        result = between_value(
            evaluate(expression.operand, row, context),
            evaluate(expression.low, row, context),
            evaluate(expression.high, row, context),
        )
        return sql_not(result) if expression.negated else result
    if isinstance(expression, Like):
        result = sql_like(
            evaluate(expression.operand, row, context),
            evaluate(expression.pattern, row, context),
        )
        return sql_not(result) if expression.negated else result
    if isinstance(expression, InList):
        value = evaluate(expression.operand, row, context)
        return in_values(value, (
            evaluate(item, row, context) for item in expression.items
        ), expression.negated, value is None)
    if isinstance(expression, InSubquery):
        value = evaluate(expression.operand, row, context)
        rows = context.run_subquery(expression.plan, row)
        return in_values(value, (subrow[0] for subrow in rows),
                         expression.negated, value is None and bool(rows))
    if isinstance(expression, Exists):
        rows = context.run_subquery(expression.plan, row)
        answer = bool(rows)
        return not answer if expression.negated else answer
    if isinstance(expression, ScalarSubquery):
        return _scalar_subquery(expression, row, context)
    if isinstance(expression, Case):
        return _case(expression, row, context)
    if isinstance(expression, FunctionCall):
        function = lookup_function(expression.name)
        args = tuple(
            evaluate(argument, row, context) for argument in expression.args
        )
        return function(context, args)
    if isinstance(expression, Star):
        raise ExecutionError("bare * cannot be evaluated as a scalar")
    raise ExecutionError(
        f"cannot evaluate expression node {type(expression).__name__}"
    )


def _column_value(
    ref: ColumnRef, row: tuple, context: "ExecutionContext"
) -> object:
    if ref.index is None:
        raise ExecutionError(f"unbound column reference {ref.display()!r}")
    if ref.outer_level == 0:
        return row[ref.index]
    return context.outer_row(ref.outer_level)[ref.index]


def _binary(
    node: Binary, row: tuple, context: "ExecutionContext"
) -> object:
    op = node.op
    if op == "AND":
        left = evaluate(node.left, row, context)
        if left is False:
            return False
        return sql_and(left, evaluate(node.right, row, context))
    if op == "OR":
        left = evaluate(node.left, row, context)
        if left is True:
            return True
        return sql_or(left, evaluate(node.right, row, context))
    left = evaluate(node.left, row, context)
    right = evaluate(node.right, row, context)
    if op in _COMPARISONS:
        comparison = sql_compare(left, right)
        if comparison is None:
            return None
        return _COMPARISONS[op](comparison)
    return apply_binary_operator(op, left, right)


def apply_binary_operator(op: str, left: object, right: object) -> object:
    """Apply a non-logical, non-comparison binary operator to two values.

    Shared by the tree-walking evaluator and the closure compiler
    (:mod:`repro.expr.compiler`) so both paths have identical semantics.
    """
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if isinstance(right, Interval):
        if op == "+":
            return add_interval(left, right)
        if op == "-":
            return add_interval(left, right.negated())
        raise ExecutionError(f"invalid interval operator {op!r}")
    if isinstance(left, Interval):
        if op == "+":
            return add_interval(right, left)
        raise ExecutionError(f"invalid interval operator {op!r}")
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        if op == "-":
            return (left - right).days
        raise ExecutionError(f"invalid date operator {op!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return left / right  # SQL: integer division yields exact value
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero")
        return left % right
    raise ExecutionError(f"unknown binary operator {op!r}")


def _unary(node: Unary, row: tuple, context: "ExecutionContext") -> object:
    value = evaluate(node.operand, row, context)
    if node.op == "NOT":
        return sql_not(value)
    if node.op == "-":
        if value is None:
            return None
        return -value
    raise ExecutionError(f"unknown unary operator {node.op!r}")


def between_value(value: object, low: object, high: object) -> object:
    """SQL ``value BETWEEN low AND high`` over evaluated operands."""
    lower = sql_compare(value, low)
    upper = sql_compare(value, high)
    return sql_and(
        None if lower is None else lower >= 0,
        None if upper is None else upper <= 0,
    )


def in_values(value: object, members, negated: bool, saw_null: bool
              ) -> object:
    """SQL ``value [NOT] IN (members)``, reading ``members`` lazily up to
    the first match (``saw_null``: an UNKNOWN was already seen)."""
    for member in members:
        if member is None or value is None:
            saw_null = True
            continue
        if member == value:
            return not negated
    if saw_null:
        return None
    return negated


def _scalar_subquery(
    node: ScalarSubquery, row: tuple, context: "ExecutionContext"
) -> object:
    rows = context.run_subquery(node.plan, row)
    if not rows:
        return None
    if len(rows) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if len(rows[0]) != 1:
        raise ExecutionError("scalar subquery must return one column")
    return rows[0][0]


def _case(node: Case, row: tuple, context: "ExecutionContext") -> object:
    if node.operand is not None:
        subject = evaluate(node.operand, row, context)
        for condition, result in node.whens:
            candidate = evaluate(condition, row, context)
            comparison = sql_compare(subject, candidate)
            if comparison == 0:
                return evaluate(result, row, context)
    else:
        for condition, result in node.whens:
            if evaluate(condition, row, context) is True:
                return evaluate(result, row, context)
    if node.default is not None:
        return evaluate(node.default, row, context)
    return None
