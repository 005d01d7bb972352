"""Expression compilation, once per plan, into two forms.

* The **row form**, ``compile_expression``: ``f(row, context) -> value``,
  for consumers that really have one row (row triggers, DML assignments)
  and as the canonical error path.
* The **batch form**, ``compile_kernel``/``compile_filter``: bound once
  per execution (``bind(context)``), then called once per batch as
  ``kernel(columns, selection) -> values of the selected rows`` or
  ``sweep(columns, selection) -> the selected rows it keeps``. Every
  operator's scalar work runs here.

Folding: a subtree whose value is the same for every row of an execution
(literals, parameters, ``DATE ± INTERVAL``, outer-row references, an
uncorrelated subquery, a scalar function of those) is computed at most
once per execution, on first use: never for an empty input, nor for rows
an AND, OR or CASE narrowed away before running its right side or
branch. An IN list of such items is one ``frozenset``; a NULL member
keeps SQL's UNKNOWN rule. Session functions (``now()``, ``user_id()``,
``sql_text()``) are live, so they are still called once per row.

Errors: when a batch raises anything but a cancellation — an incomparable
raw ``<``, a folded IN item the row form would never have reached — it
is re-run through the row form, which raises the evaluator's error class
and message for the first offending row in input order (or, if no row
raises, gives the values). SQL semantics are the evaluator's: NULL
handling is replicated branch for branch and both share
``apply_binary_operator``, ``between_value`` and ``in_values``.
"""

from __future__ import annotations

import operator
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.datatypes import sql_and, sql_compare, sql_like, sql_not, sql_or
from repro.errors import OperationCancelledError
from repro.expr.evaluator import (
    _COMPARISONS,
    apply_binary_operator,
    between_value,
    evaluate,
    in_values,
)
from repro.expr.functions import (
    is_scalar_function,
    is_session_function,
    lookup_function,
)
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
    Star,
    SubqueryExpression,
    Unary,
    conjuncts,
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
    if isinstance(expression, IntervalLiteral):
        interval = expression.interval
        return lambda row, context: interval
    if isinstance(expression, Parameter):
        name = expression.name
        return lambda row, context: context.parameter(name)
    slot = slot_of(expression)
    if slot is not None:
        return lambda row, context: row[slot]
    if isinstance(expression, ColumnRef) and expression.index is not None:
        index, level = expression.index, expression.outer_level
        return lambda row, context: context.outer_row(level)[index]
    compiler = _ROW_COMPILERS.get(type(expression))
    if compiler is not None:
        return compiler(expression)
    # subqueries, unbound references, and anything future: the evaluator
    # is the reference semantics — delegate wholesale
    return lambda row, context: evaluate(expression, row, context)


def _compile_binary(node: Binary) -> CompiledExpression:
    op = node.op
    left = compile_expression(node.left)
    right = compile_expression(node.right)
    if op == "AND":
        return lambda row, context: False if (
            value := left(row, context)
        ) is False else sql_and(value, right(row, context))
    if op == "OR":
        return lambda row, context: True if (
            value := left(row, context)
        ) is True else sql_or(value, right(row, context))
    if op in _COMPARISONS:
        verdict = _COMPARISONS[op]
        return lambda row, context: None if (
            comparison := sql_compare(left(row, context), right(row, context))
        ) is None else verdict(comparison)
    return lambda row, context: apply_binary_operator(
        op, left(row, context), right(row, context)
    )


def _compile_unary(node: Unary) -> CompiledExpression:
    operand = compile_expression(node.operand)
    if node.op == "NOT":
        return lambda row, context: sql_not(operand(row, context))
    if node.op == "-":
        return lambda row, context: None if (
            value := operand(row, context)
        ) is None else -value
    return lambda row, context: evaluate(node, row, context)


def _compile_is_null(node: IsNull) -> CompiledExpression:
    operand, negated = compile_expression(node.operand), node.negated
    return lambda row, context: (
        operand(row, context) is None
    ) is not negated


def _negatable(node, function, *operands) -> CompiledExpression:
    """``function`` of the operands' values, negated for ``NOT …``."""
    parts, negated = tuple(map(compile_expression, operands)), node.negated

    def _apply(row, context):
        result = function(*[part(row, context) for part in parts])
        return sql_not(result) if negated else result

    return _apply


def _compile_in_list(node: InList) -> CompiledExpression:
    operand = compile_expression(node.operand)
    items = tuple(map(compile_expression, node.items))
    negated = node.negated

    def _in_list(row, context):
        value = operand(row, context)
        return in_values(
            value, (item(row, context) for item in items), negated,
            value is None,
        )

    return _in_list


def _compile_case(node: Case) -> CompiledExpression:
    subject = None if node.operand is None \
        else compile_expression(node.operand)
    whens = tuple(
        (compile_expression(test), compile_expression(result))
        for test, result in node.whens
    )
    default = None if node.default is None \
        else compile_expression(node.default)

    def _case(row, context):
        value = None if subject is None else subject(row, context)
        for test, result in whens:
            outcome = test(row, context)
            if (outcome is True if subject is None
                    else sql_compare(value, outcome) == 0):
                return result(row, context)
        return None if default is None else default(row, context)

    return _case


def _compile_function(node: FunctionCall) -> CompiledExpression:
    if not is_scalar_function(node.name):
        # unknown name: raise at evaluation time, like the evaluator
        return lambda row, context: evaluate(node, row, context)
    function = lookup_function(node.name)
    args = tuple(map(compile_expression, node.args))
    return lambda row, context: function(
        context, tuple(argument(row, context) for argument in args)
    )


_ROW_COMPILERS = {
    Binary: _compile_binary,
    Unary: _compile_unary,
    IsNull: _compile_is_null,
    Between: lambda node: _negatable(
        node, between_value, node.operand, node.low, node.high
    ),
    Like: lambda node: _negatable(node, sql_like, node.operand, node.pattern),
    InList: _compile_in_list,
    Case: _compile_case,
    FunctionCall: _compile_function,
}


# ---------------------------------------------------------------------------
# batch form
#
# A node compiles to ``(True, fold)`` when it is row-independent, else to
# ``(False, part)``: ``fold(env) -> value`` and ``part(columns, selection,
# env) -> values of the selected rows``. ``env`` is one execution's memo
# of folded values. A selection is a non-empty list of row indices in row
# order, or a ``range`` prefix of the batch (``ColumnBatch.indices``).

_ABSENT = object()


class _Folded(dict):
    """One execution's folded values, keyed by ``id`` of their node."""

    __slots__ = ("context",)


def compile_kernel(expression: Expression):
    """``bind(context, folded=None) -> kernel(columns, selection)``.

    Bind once per execution. ``folded`` maps ``id(node)`` of
    row-independent nodes to values the caller already computed for this
    execution (a scan's zone-map bounds), so they are not computed twice.
    """
    const, part = _batch(expression)
    if const:
        return _binder(expression, lambda columns, selection, env: (
            [part(env)] * len(selection)
        ), False)
    return _binder(expression, part, False)


def compile_filter(expression: Expression):
    """``bind(context, folded=None) -> sweep`` keeping the rows on which
    ``expression`` is exactly TRUE.

    The top-level conjuncts run in turn, each over the rows the previous
    ones kept. ``column <cmp> row-independent`` is one fused pass over
    the column, straight off the backing rows of a row-backed batch, and
    so is ``column BETWEEN row-independent AND row-independent``; any
    other conjunct is a kernel plus an ``is True`` selection.
    """
    steps = tuple(map(_filter_step, conjuncts(expression)))

    def run(columns, selection, env):
        for step in steps:
            selection = step(columns, selection, env)
            if not selection:
                break
        return selection

    return _binder(expression, run, True)


def _binder(expression: Expression, run, keep: bool):
    """``bind`` for ``run(columns, selection, env)``: a batch that raises
    is re-run through the row form (its TRUE rows when ``keep``)."""
    row_form = compile_expression(expression)

    def bind(context, folded=None):
        env = _Folded(folded or ())
        env.context = context

        def bound(columns, selection):
            if not selection:
                return []
            try:
                return run(columns, selection, env)
            except OperationCancelledError:
                raise
            except Exception:  # the row form raises the canonical error
                values = [
                    row_form(row, context)
                    for row in _rows(columns, selection)
                ]
            if keep:
                return [i for i, v in zip(selection, values) if v is True]
            return values

        return bound

    return bind


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
# Each verdict mirrors ``sql_compare`` + the operator: NULL on either side
# is UNKNOWN, and the raw ``<``/``>`` calls raise where it raises.
_VERDICTS = {
    "=": lambda xs, b: [
        None if v is None else not (v < b or v > b) for v in xs],
    "<>": lambda xs, b: [None if v is None else (v < b or v > b) for v in xs],
    "<": lambda xs, b: [None if v is None else v < b for v in xs],
    "<=": lambda xs, b: [None if v is None else not v > b for v in xs],
    ">": lambda xs, b: [None if v is None else v > b for v in xs],
    ">=": lambda xs, b: [None if v is None else not v < b for v in xs],
}
#: the same over slot ``s`` of a row-backed batch, keeping the selected
#: indices of the TRUE rows in one pass over ``rows[i][s]``
_SWEEPS = {
    "=": lambda rows, s, sel, b: [i for i in sel if (
        v := rows[i][s]) is not None and not (v < b or v > b)],
    "<>": lambda rows, s, sel, b: [i for i in sel if (
        v := rows[i][s]) is not None and (v < b or v > b)],
    "<": lambda rows, s, sel, b: [i for i in sel if (
        v := rows[i][s]) is not None and v < b],
    "<=": lambda rows, s, sel, b: [i for i in sel if (
        v := rows[i][s]) is not None and not v > b],
    ">": lambda rows, s, sel, b: [i for i in sel if (
        v := rows[i][s]) is not None and v > b],
    ">=": lambda rows, s, sel, b: [i for i in sel if (
        v := rows[i][s]) is not None and not v < b],
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_NUMBERS = frozenset((int, float))


def _filter_step(conjunct: Expression):
    const, part = _batch(conjunct)
    if const:
        return lambda columns, selection, env: (
            selection if part(env) is True else []
        )

    def kernel_step(columns, selection, env):
        return [index for index, value in zip(
            selection, part(columns, selection, env)
        ) if value is True]

    fused = _fused_sweep(conjunct)
    if fused is None:
        return kernel_step

    def step(columns, selection, env):
        rows = getattr(columns, "rows", None)
        if rows is None:  # a column-major batch
            return kernel_step(columns, selection, env)
        return fused(rows, selection, env)

    return step


def _fused_sweep(conjunct: Expression):
    """``sweep(rows, selection, env)``: one pass over ``rows[i][slot]`` for
    ``slot <cmp> folded`` or ``slot BETWEEN folded AND folded``; or None."""
    if isinstance(conjunct, Binary) and conjunct.op in _FLIP:
        for column, bound, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _FLIP[conjunct.op]),
        ):
            slot = slot_of(column)
            if slot is not None and _row_independent(bound):
                fold, keep = _fold(bound), _SWEEPS[op]
                return lambda rows, selection, env: [] if (
                    value := fold(env)
                ) is None else keep(rows, slot, selection, value)
    if isinstance(conjunct, Between) and not conjunct.negated:
        slot = slot_of(conjunct.operand)
        if slot is not None and _row_independent(conjunct.low) \
                and _row_independent(conjunct.high):
            low, high = _fold(conjunct.low), _fold(conjunct.high)

            def between(rows, selection, env):
                lo, hi = low(env), high(env)
                if lo is None or hi is None:
                    return []
                return [i for i in selection if (v := rows[i][slot])
                        is not None and not v < lo and not v > hi]

            return between
    return None


def slot_of(expression: Expression) -> int | None:
    """Slot ordinal when the expression reads one slot of the row."""
    if isinstance(expression, AggregateRef) or (
        isinstance(expression, ColumnRef) and expression.outer_level == 0
    ):
        return expression.index
    return None


def _gather(columns, selection, slot: int) -> Sequence:
    """One slot's selected values, off the backing rows of a row-backed
    (``LazyColumns``) batch without pivoting the column; the column
    itself when a column-major batch is wholly selected (callers never
    mutate it)."""
    rows = getattr(columns, "rows", None)
    if rows is not None:
        if type(selection) is range and len(selection) == len(rows):
            return list(map(itemgetter(slot), rows))
        return list(map(itemgetter(slot), map(rows.__getitem__, selection)))
    column = columns[slot]
    if type(selection) is range:
        if len(column) == len(selection):
            return column
        return column[selection.start:selection.stop]
    return list(map(column.__getitem__, selection))


def _rows(columns, selection) -> list[tuple]:
    """The selected rows as tuples (for the row form)."""
    rows = getattr(columns, "rows", None)
    if rows is not None:
        return list(map(rows.__getitem__, selection))
    if not columns:
        return [()] * len(selection)
    return list(zip(*[
        _gather(columns, selection, slot) for slot in range(len(columns))
    ]))


def _row_independent(expression: Expression) -> bool:
    """True when the value is the same for every row of an execution: no
    slot of the current row, no session function (live per call), no
    subquery correlated with the current row."""
    from repro.exec.context import _free_outer_refs  # cycle guard

    for node in expression.walk():
        if isinstance(node, ColumnRef):
            if node.outer_level == 0:
                return False
        elif isinstance(node, (AggregateRef, Star)):
            return False
        elif isinstance(node, FunctionCall):
            if is_session_function(node.name):
                return False
        elif isinstance(node, SubqueryExpression):
            if node.plan is None or any(
                level == 1 for level, __ in _free_outer_refs(node.plan)
            ):
                return False
    return True


def _fold(node: Expression):
    """``fold(env)``: the node's value, computed once per execution."""
    closure, key = compile_expression(node), id(node)

    def fold(env):
        value = env.get(key, _ABSENT)
        if value is _ABSENT:
            value = env[key] = closure((), env.context)
        return value

    return fold


def _values(part, columns, selection, env) -> Sequence:
    const, function = part
    if const:
        return [function(env)] * len(selection)
    return function(columns, selection, env)


def _batch(node: Expression):
    if _row_independent(node):
        return True, _fold(node)
    slot = slot_of(node)
    if slot is not None:
        return False, lambda columns, selection, env: _gather(
            columns, selection, slot
        )
    compiler = _BATCH_COMPILERS.get(type(node))
    part = compiler(node) if compiler is not None else None
    return False, part or _per_row(compile_expression(node))


def _per_row(closure: CompiledExpression):
    """The row form over each selected row: correlated subqueries, LIKE,
    BETWEEN, an IN list with a row-dependent item."""
    return lambda columns, selection, env: [
        closure(row, env.context) for row in _rows(columns, selection)
    ]


def _batch_binary(node: Binary):
    op = node.op
    left, right = _batch(node.left), _batch(node.right)
    if op == "AND" or op == "OR":
        return _batch_logical(op == "AND", left, right)
    if op in _COMPARISONS:
        if left[0] or right[0]:  # one side folded: one pass, no calls
            if left[0]:
                left, right, op = right, left, _FLIP[op]
            verdicts, values_of, bound_of = _VERDICTS[op], left[1], right[1]

            def compare_folded(columns, selection, env):
                values = values_of(columns, selection, env)
                bound = bound_of(env)
                if bound is None:
                    return [None] * len(values)
                return verdicts(values, bound)

            return compare_folded
        verdict = _COMPARISONS[op]
        return lambda columns, selection, env: [
            None if (c := sql_compare(a, b)) is None else verdict(c)
            for a, b in zip(left[1](columns, selection, env),
                            right[1](columns, selection, env))
        ]
    arithmetic = _ARITHMETIC.get(op)

    def apply(columns, selection, env):
        lefts = _values(left, columns, selection, env)
        rights = _values(right, columns, selection, env)
        if arithmetic is not None and _NUMBERS.issuperset(map(type, lefts)) \
                and _NUMBERS.issuperset(map(type, rights)):
            return list(map(arithmetic, lefts, rights))
        return [apply_binary_operator(op, a, b) for a, b in zip(lefts, rights)]

    return apply


def _batch_logical(conjunction: bool, left, right):
    """AND/OR: the right side runs only on the rows the left side did not
    decide (not FALSE for AND, not TRUE for OR), as in the row form."""
    decided = not conjunction

    def logical(columns, selection, env):
        lefts = _values(left, columns, selection, env)
        pending = [i for i, value in zip(selection, lefts)
                   if value is not decided]
        if not pending:
            return lefts
        rights = iter(_values(right, columns, pending, env))
        return [
            decided if a is decided
            else decided if (b := next(rights)) is decided
            else None if a is None or b is None
            else conjunction
            for a in lefts
        ]

    return logical


def _batch_unary(node: Unary):
    apply = {"NOT": operator.not_, "-": operator.neg}.get(node.op)
    if apply is None:
        return None
    values_of = _batch(node.operand)[1]
    return lambda columns, selection, env: [
        None if v is None else apply(v)
        for v in values_of(columns, selection, env)
    ]


def _batch_is_null(node: IsNull):
    values_of, negated = _batch(node.operand)[1], node.negated
    return lambda columns, selection, env: [
        (v is None) is not negated for v in values_of(columns, selection, env)
    ]


def _batch_in_list(node: InList):
    items = [_batch(item) for item in node.items]
    if not all(const for const, __ in items):
        return None
    values_of = _batch(node.operand)[1]
    key, hit = id(node.items), not node.negated

    def in_list(columns, selection, env):
        members = env.get(key, _ABSENT)
        if members is _ABSENT:
            listed = [fold(env) for __, fold in items]
            members = env[key] = (
                frozenset(v for v in listed if v is not None),
                None if None in listed else node.negated,
            )
        found, missed = members
        return [
            None if v is None else hit if v in found else missed
            for v in values_of(columns, selection, env)
        ]

    return in_list


def _batch_case(node: Case):
    subject = None if node.operand is None else _batch(node.operand)
    whens = [(_batch(test), _batch(result)) for test, result in node.whens]
    default = None if node.default is None else _batch(node.default)

    def case(columns, selection, env):
        if subject is not None:
            subjects = dict(
                zip(selection, _values(subject, columns, selection, env))
            )
        out: dict = {}
        remaining = selection
        for test, result in whens:
            tests = _values(test, columns, remaining, env)
            hits = [
                i for i, t in zip(remaining, tests)
                if (t is True if subject is None
                    else sql_compare(subjects[i], t) == 0)
            ]
            if hits:
                out.update(zip(hits, _values(result, columns, hits, env)))
                remaining = [i for i in remaining if i not in out]
                if not remaining:
                    break
        if remaining and default is not None:
            out.update(
                zip(remaining, _values(default, columns, remaining, env))
            )
        return [out.get(i) for i in selection]

    return case


def _batch_function(node: FunctionCall):
    if not is_scalar_function(node.name):
        return None
    function = lookup_function(node.name)
    if not node.args:  # a session function: live, so called per row
        return lambda columns, selection, env: [
            function(env.context, ()) for __ in selection
        ]
    args = [_batch(argument) for argument in node.args]
    return lambda columns, selection, env: [
        function(env.context, values) for values in zip(*[
            _values(argument, columns, selection, env) for argument in args
        ])
    ]


_BATCH_COMPILERS = {
    Binary: _batch_binary,
    Unary: _batch_unary,
    IsNull: _batch_is_null,
    InList: _batch_in_list,
    Case: _batch_case,
    FunctionCall: _batch_function,
}
