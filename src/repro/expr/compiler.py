"""Expression compilation: bound trees to Python closures.

``evaluate`` walks the expression tree once per row — an isinstance
dispatch per node per row, the dominant CPU cost of predicate evaluation
in a Python engine. ``compile_expression`` walks the tree *once per plan*
and returns a closure ``f(row, context) -> value`` built bottom-up from
per-node closures, so the per-row work is plain attribute-free Python
calls over captured sub-closures.

Semantics are identical to the evaluator by construction: SQL NULL
handling is replicated branch for branch, arithmetic delegates to the
evaluator's shared ``apply_binary_operator``, and any node the compiler
does not specialize (subqueries, unbound references) falls back to a
closure over ``evaluate`` itself. The batched executor compiles filter
predicates, projections, join residuals, sort keys, and aggregate
arguments once at operator-construction time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.datatypes import sql_and, sql_compare, sql_like, sql_not, sql_or
from repro.expr.evaluator import _COMPARISONS, apply_binary_operator, evaluate
from repro.expr.functions import is_scalar_function, lookup_function
from repro.expr.nodes import (
    AggregateRef,
    Between,
    Binary,
    Case,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IntervalLiteral,
    IsNull,
    Like,
    Literal,
    Parameter,
    Unary,
    conjuncts,
    contains_subquery,
    referenced_slots,
)

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext

#: a compiled expression: row, context -> scalar value
CompiledExpression = Callable[[tuple, "ExecutionContext"], object]


def compile_expression(expression: Expression) -> CompiledExpression:
    """Compile a bound expression tree into a ``(row, context)`` closure."""
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row, context: value
    if isinstance(expression, ColumnRef):
        return _compile_column(expression)
    if isinstance(expression, AggregateRef):
        index = expression.index
        return lambda row, context: row[index]
    if isinstance(expression, Parameter):
        name = expression.name
        return lambda row, context: context.parameter(name)
    if isinstance(expression, IntervalLiteral):
        interval = expression.interval
        return lambda row, context: interval
    if isinstance(expression, Binary):
        return _compile_binary(expression)
    if isinstance(expression, Unary):
        return _compile_unary(expression)
    if isinstance(expression, IsNull):
        return _compile_is_null(expression)
    if isinstance(expression, Between):
        return _compile_between(expression)
    if isinstance(expression, Like):
        return _compile_like(expression)
    if isinstance(expression, InList):
        return _compile_in_list(expression)
    if isinstance(expression, Case):
        return _compile_case(expression)
    if isinstance(expression, FunctionCall):
        return _compile_function(expression)
    # Subqueries, Star, and anything future: the evaluator is the
    # reference semantics — delegate wholesale.
    return lambda row, context: evaluate(expression, row, context)


def compile_predicate(expression: Expression) -> CompiledExpression:
    """Compile a filter predicate (callers test ``is True`` themselves)."""
    return compile_expression(expression)


def compile_projector(
    expressions: tuple[Expression, ...],
) -> Callable[[tuple, "ExecutionContext"], tuple]:
    """Compile a projection list into a single row-to-row closure."""
    if all(
        isinstance(expression, ColumnRef)
        and expression.outer_level == 0
        and expression.index is not None
        for expression in expressions
    ):
        slots = tuple(expression.index for expression in expressions)
        return lambda row, context: tuple(row[slot] for slot in slots)
    compiled = tuple(
        compile_expression(expression) for expression in expressions
    )
    return lambda row, context: tuple(
        part(row, context) for part in compiled
    )


# ---------------------------------------------------------------------------
# per-node compilers


def _compile_column(ref: ColumnRef) -> CompiledExpression:
    if ref.index is None:
        # unbound: the evaluator raises the canonical error
        return lambda row, context: evaluate(ref, row, context)
    index = ref.index
    if ref.outer_level == 0:
        return lambda row, context: row[index]
    level = ref.outer_level
    return lambda row, context: context.outer_row(level)[index]


def _compile_binary(node: Binary) -> CompiledExpression:
    op = node.op
    left = compile_expression(node.left)
    right = compile_expression(node.right)
    if op == "AND":

        def _and(row, context):
            value = left(row, context)
            if value is False:
                return False
            return sql_and(value, right(row, context))

        return _and
    if op == "OR":

        def _or(row, context):
            value = left(row, context)
            if value is True:
                return True
            return sql_or(value, right(row, context))

        return _or
    if op in _COMPARISONS:
        verdict = _COMPARISONS[op]

        def _compare(row, context):
            comparison = sql_compare(left(row, context), right(row, context))
            if comparison is None:
                return None
            return verdict(comparison)

        return _compare
    return lambda row, context: apply_binary_operator(
        op, left(row, context), right(row, context)
    )


def _compile_unary(node: Unary) -> CompiledExpression:
    operand = compile_expression(node.operand)
    if node.op == "NOT":
        return lambda row, context: sql_not(operand(row, context))
    if node.op == "-":

        def _negate(row, context):
            value = operand(row, context)
            if value is None:
                return None
            return -value

        return _negate
    return lambda row, context: evaluate(node, row, context)


def _compile_is_null(node: IsNull) -> CompiledExpression:
    operand = compile_expression(node.operand)
    if node.negated:
        return lambda row, context: operand(row, context) is not None
    return lambda row, context: operand(row, context) is None


def _compile_between(node: Between) -> CompiledExpression:
    operand = compile_expression(node.operand)
    low = compile_expression(node.low)
    high = compile_expression(node.high)
    negated = node.negated

    def _between(row, context):
        value = operand(row, context)
        lower = sql_compare(value, low(row, context))
        upper = sql_compare(value, high(row, context))
        result = sql_and(
            None if lower is None else lower >= 0,
            None if upper is None else upper <= 0,
        )
        return sql_not(result) if negated else result

    return _between


def _compile_like(node: Like) -> CompiledExpression:
    operand = compile_expression(node.operand)
    pattern = compile_expression(node.pattern)
    negated = node.negated

    def _like(row, context):
        result = sql_like(operand(row, context), pattern(row, context))
        return sql_not(result) if negated else result

    return _like


def _compile_in_list(node: InList) -> CompiledExpression:
    operand = compile_expression(node.operand)
    items = tuple(compile_expression(item) for item in node.items)
    negated = node.negated

    def _in_list(row, context):
        value = operand(row, context)
        saw_null = value is None
        for item in items:
            member = item(row, context)
            if member is None or value is None:
                saw_null = True
                continue
            if member == value:
                return False if negated else True
        if saw_null:
            return None
        return True if negated else False

    return _in_list


def _compile_case(node: Case) -> CompiledExpression:
    whens = tuple(
        (compile_expression(condition), compile_expression(result))
        for condition, result in node.whens
    )
    default = (
        compile_expression(node.default) if node.default is not None else None
    )
    if node.operand is not None:
        operand = compile_expression(node.operand)

        def _case_operand(row, context):
            subject = operand(row, context)
            for condition, result in whens:
                if sql_compare(subject, condition(row, context)) == 0:
                    return result(row, context)
            if default is not None:
                return default(row, context)
            return None

        return _case_operand

    def _case_searched(row, context):
        for condition, result in whens:
            if condition(row, context) is True:
                return result(row, context)
        if default is not None:
            return default(row, context)
        return None

    return _case_searched


def _compile_function(node: FunctionCall) -> CompiledExpression:
    if not is_scalar_function(node.name):
        # unknown name: raise at evaluation time, like the evaluator
        return lambda row, context: evaluate(node, row, context)
    function = lookup_function(node.name)
    args = tuple(compile_expression(argument) for argument in node.args)

    def _call(row, context):
        return function(
            context, tuple(argument(row, context) for argument in args)
        )

    return _call


# ---------------------------------------------------------------------------
# columnar compilation (the ``rows_columnar`` execution mode)
#
# A *column sweep* is ``f(columns, indices, context) -> surviving indices``:
# it narrows a selection vector over column-major data without building
# row-tuples. ``compile_column_predicate`` decomposes a predicate into its
# top-level conjuncts and chains one sweep per conjunct — the selection
# shrinks between conjuncts, which is both the vectorized short-circuit
# (later conjuncts never see rows an earlier one dropped, exactly like the
# row closure's AND short-circuit) and the early exit (an empty selection
# stops the chain).
#
# Each specialized sweep replicates the row closure's SQL semantics branch
# for branch: a row survives iff the conjunct is exactly TRUE, NULLs on
# either side exclude it, and comparisons use the same raw ``<``/``>``
# calls as ``sql_compare``; a batch whose raw comparison raises
# ``TypeError`` re-runs through the row closure, whose ``sql_compare``
# raises the ExecutionError naming both types.
# Conjuncts the specializer does not recognize fall back to the compiled
# row closure over a pivoted row — never wrong, just not vectorized.

#: a compiled column sweep: columns, selection, context -> new selection
ColumnSweep = Callable[
    [tuple, "Sequence[int]", "ExecutionContext"], "Sequence[int]"
]


def compile_column_predicate(expression: Expression) -> ColumnSweep:
    """Compile a predicate into a selection-narrowing column sweep."""
    sweeps = tuple(
        _compile_conjunct_sweep(conjunct)
        for conjunct in conjuncts(expression)
    )

    def _chain(columns, indices, context):
        selected = indices
        try:
            for sweep in sweeps:
                if not selected:
                    return selected
                selected = sweep(columns, selected, context)
        except TypeError:  # incomparable values: see the module comment
            sweep = _fallback_sweep(compile_expression(expression))
            return sweep(columns, indices, context)
        return selected

    return _chain


def _row_independent(expression: Expression) -> bool:
    """True when the expression is hoistable to once-per-batch evaluation.

    Requires no level-0 column slots, no subqueries, and no function
    calls — session functions (``now()``) are live per call, so hoisting
    them out of the per-row loop would change what each row sees.
    """
    if referenced_slots(expression) or contains_subquery(expression):
        return False
    return not any(
        isinstance(node, FunctionCall) for node in expression.walk()
    )


def _simple_column(expression: Expression) -> int | None:
    """Slot ordinal when the expression is a bound level-0 column ref."""
    if (
        isinstance(expression, ColumnRef)
        and expression.outer_level == 0
        and expression.index is not None
    ):
        return expression.index
    return None


_COLUMN_FLIP = {
    "<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"
}


def _compile_conjunct_sweep(conjunct: Expression) -> ColumnSweep:
    if isinstance(conjunct, Binary) and conjunct.op in _COLUMN_FLIP:
        for column, bound, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _COLUMN_FLIP[conjunct.op]),
        ):
            slot = _simple_column(column)
            if slot is not None and _row_independent(bound):
                return _comparison_sweep(
                    op, slot, compile_expression(bound)
                )
    elif isinstance(conjunct, IsNull):
        slot = _simple_column(conjunct.operand)
        if slot is not None:
            return _is_null_sweep(slot, conjunct.negated)
    elif isinstance(conjunct, Between) and not conjunct.negated:
        slot = _simple_column(conjunct.operand)
        if (
            slot is not None
            and _row_independent(conjunct.low)
            and _row_independent(conjunct.high)
        ):
            return _between_sweep(
                slot,
                compile_expression(conjunct.low),
                compile_expression(conjunct.high),
            )
    elif isinstance(conjunct, Like):
        slot = _simple_column(conjunct.operand)
        if slot is not None and _row_independent(conjunct.pattern):
            return _like_sweep(
                slot, compile_expression(conjunct.pattern), conjunct.negated
            )
    elif isinstance(conjunct, InList):
        sweep = _in_list_sweep(conjunct)
        if sweep is not None:
            return sweep
    return _fallback_sweep(compile_expression(conjunct))


def _fallback_sweep(closure: CompiledExpression) -> ColumnSweep:
    """Pivot each selected row and delegate to the row closure."""

    def _sweep(columns, indices, context):
        rows = getattr(columns, "rows", None)  # LazyColumns backing
        if rows is not None:
            return [
                i for i in indices if closure(rows[i], context) is True
            ]
        return [
            i
            for i in indices
            if closure(
                tuple(column[i] for column in columns), context
            ) is True
        ]

    return _sweep


def _comparison_sweep(
    op: str, slot: int, bound_closure: CompiledExpression
) -> ColumnSweep:
    # Each branch mirrors ``sql_compare`` + the op's verdict: NULL on
    # either side is never TRUE, and ``<=``/``>=`` are the negations of
    # the strict comparisons under the same comparison protocol. Lazy
    # (row-backed) batches are swept straight off the backing rows —
    # one fused pass instead of pivot-the-column-then-compare.
    if op == "=":

        def _sweep(columns, indices, context):
            bound = bound_closure((), context)
            if bound is None:
                return []
            rows = getattr(columns, "rows", None)
            if rows is not None:
                return [
                    i for i in indices
                    if (value := rows[i][slot]) is not None
                    and not (value < bound or value > bound)
                ]
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None
                and not (value < bound or value > bound)
            ]

    elif op == "<>":

        def _sweep(columns, indices, context):
            bound = bound_closure((), context)
            if bound is None:
                return []
            rows = getattr(columns, "rows", None)
            if rows is not None:
                return [
                    i for i in indices
                    if (value := rows[i][slot]) is not None
                    and (value < bound or value > bound)
                ]
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None
                and (value < bound or value > bound)
            ]

    elif op == "<":

        def _sweep(columns, indices, context):
            bound = bound_closure((), context)
            if bound is None:
                return []
            rows = getattr(columns, "rows", None)
            if rows is not None:
                return [
                    i for i in indices
                    if (value := rows[i][slot]) is not None
                    and value < bound
                ]
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None and value < bound
            ]

    elif op == "<=":

        def _sweep(columns, indices, context):
            bound = bound_closure((), context)
            if bound is None:
                return []
            rows = getattr(columns, "rows", None)
            if rows is not None:
                return [
                    i for i in indices
                    if (value := rows[i][slot]) is not None
                    and not value > bound
                ]
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None and not value > bound
            ]

    elif op == ">":

        def _sweep(columns, indices, context):
            bound = bound_closure((), context)
            if bound is None:
                return []
            rows = getattr(columns, "rows", None)
            if rows is not None:
                return [
                    i for i in indices
                    if (value := rows[i][slot]) is not None
                    and value > bound
                ]
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None and value > bound
            ]

    else:  # ">="

        def _sweep(columns, indices, context):
            bound = bound_closure((), context)
            if bound is None:
                return []
            rows = getattr(columns, "rows", None)
            if rows is not None:
                return [
                    i for i in indices
                    if (value := rows[i][slot]) is not None
                    and not value < bound
                ]
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None and not value < bound
            ]

    return _sweep


def _is_null_sweep(slot: int, negated: bool) -> ColumnSweep:
    if negated:

        def _sweep(columns, indices, context):
            column = columns[slot]
            return [i for i in indices if column[i] is not None]

    else:

        def _sweep(columns, indices, context):
            column = columns[slot]
            return [i for i in indices if column[i] is None]

    return _sweep


def _between_sweep(
    slot: int,
    low_closure: CompiledExpression,
    high_closure: CompiledExpression,
) -> ColumnSweep:
    def _sweep(columns, indices, context):
        low = low_closure((), context)
        high = high_closure((), context)
        if low is None or high is None:
            return []
        rows = getattr(columns, "rows", None)
        if rows is not None:
            return [
                i for i in indices
                if (value := rows[i][slot]) is not None
                and not value < low
                and not value > high
            ]
        column = columns[slot]
        return [
            i for i in indices
            if (value := column[i]) is not None
            and not value < low
            and not value > high
        ]

    return _sweep


def _like_sweep(
    slot: int, pattern_closure: CompiledExpression, negated: bool
) -> ColumnSweep:
    verdict = False if negated else True

    def _sweep(columns, indices, context):
        pattern = pattern_closure((), context)
        column = columns[slot]
        return [
            i for i in indices
            if sql_like(column[i], pattern) is verdict
        ]

    return _sweep


def _in_list_sweep(node: InList) -> ColumnSweep | None:
    """Set-membership sweep; None when the list is not a constant set."""
    slot = _simple_column(node.operand)
    if slot is None:
        return None
    members = []
    for item in node.items:
        # only non-NULL literals: a NULL member changes FALSE verdicts to
        # NULL, which the set-membership shortcut cannot express
        if not isinstance(item, Literal) or item.value is None:
            return None
        members.append(item.value)
    try:
        member_set = frozenset(members)
    except TypeError:  # unhashable literal: keep the row closure
        return None
    if node.negated:

        def _sweep(columns, indices, context):
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None
                and value not in member_set
            ]

    else:

        def _sweep(columns, indices, context):
            column = columns[slot]
            return [
                i for i in indices
                if (value := column[i]) is not None and value in member_set
            ]

    return _sweep
