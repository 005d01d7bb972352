"""Statement templates: inlined ``column = literal`` values as parameters.

The plan cache used to key on SQL *text*, so a point lookup that inlines
its key — ``SELECT name FROM patients WHERE pid = 4711`` — missed for
every new key and paid parse, bind, rewrite, audit placement and physical
compilation again. :func:`statement_template` lifts such literals out of
the text before the cache lookup: every statement that differs from
another only in those values shares one template, one cache entry and one
compiled plan, and the lifted values ride along as parameters.

What is lifted. Only in a SELECT, only a NUMBER or STRING literal that
is the whole right operand of ``<column> = <literal>``, where
``<column>`` is ``name`` or ``qualifier.name``, the comparison is not an
operand of arithmetic, concatenation or another comparison, and it is
not the operand of IS / BETWEEN / LIKE / IN. ``DATE '…'``, negative
numbers, ranges, IN lists, LIMIT/TOP counts, ORDER BY ordinals and every
literal of a non-SELECT statement stay inline.

Why this is sound for the audit. The compiled plan of a template never
sees the lifted values, so nothing it decides can depend on them; what
has to hold is that no stage would have decided *differently* had it
seen the literal. For an equality against a column none does:

* folding only folds subtrees whose operands are all constants, and a
  comparison with a column is never one;
* audit placement is structural, and costed placement reads equality
  selectivity from the column's distinct count, never from the value;
* index seeks take any row-independent key expression, and zone-map
  skipping evaluates its bounds once per execution — a parameter there
  is the same value at the same point;
* the static-analysis baseline and the offline auditor plan the SQL text
  themselves and never see a template.

Equal literals stay equal expressions (``GROUP BY a = 1`` still matches
the select item ``a = 1``): equal values share one parameter, and a value
that also occurs where it cannot be lifted (``a = 1 IS NULL``) stays
inline everywhere. The SQL text itself is unchanged: ``sql_text()`` in a
trigger body and the journaled intent still carry the statement as
written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.sql import ast
from repro.sql.lexer import (
    IDENT,
    KEYWORD,
    NUMBER,
    OPERATOR,
    PARAMETER,
    STRING,
    Token,
    tokenize,
)
from repro.sql.parser import literal_value, parse_tokens

#: a literal right after ``=``, or a ``$``. A text with neither lifts
#: nothing and cannot equal a lifted key (every one holds a ``$``), so it
#: is its own key and a cache hit on it — a parameterized lookup — skips
#: the lexer
_MAY_LIFT = re.compile(r"=\s*[\d.']|\$")

_LITERALS = (NUMBER, STRING)

#: operators that would make a comparison part of a larger expression
_BINDING = frozenset(
    ("+", "-", "*", "/", "%", "||", "=", "<>", "!=", "<", "<=", ">", ">=",
     ".")
)

#: keywords that would make ``column = literal`` their operand
_OPERAND_OF = frozenset(("IS", "BETWEEN", "LIKE", "IN", "NOT"))


@dataclass(frozen=True)
class StatementTemplate:
    """One statement as the plan cache sees it.

    ``key`` is the (stripped) text with each lifted literal replaced by
    its parameter name (``$0``, ``$1``, …). Every key comes from a text
    the lexer accepted, and the lexer accepts no ``$``, so no written
    statement can collide with a template. ``text`` is the statement as
    given; ``tokens`` is the template's token stream (``None`` when
    :data:`_MAY_LIFT` showed there was nothing to lift).
    """

    key: str
    values: dict[str, object]
    text: str
    tokens: list[Token] | None = None

    def bind(
        self, parameters: dict[str, object] | None
    ) -> dict[str, object] | None:
        """The caller's parameters plus the lifted values."""
        if not self.values:
            return parameters
        if not parameters:
            return self.values
        return {**parameters, **self.values}

    def parse(self) -> ast.Statement:
        """The template's statement, lifted literals as parameters;
        syntax-error offsets count from the text as given."""
        if self.tokens is None:
            return parse_tokens(tokenize(self.text))
        return parse_tokens(self.tokens)


def statement_template(sql: str) -> StatementTemplate:
    """The template of one statement; its key ignores surrounding
    whitespace."""
    if _MAY_LIFT.search(sql) is None:
        return StatementTemplate(sql.strip(), {}, sql)
    tokens = tokenize(sql)
    if not tokens[0].matches(KEYWORD, "SELECT"):
        return StatementTemplate(sql.strip(), {}, sql, tokens)
    liftable = []
    inline = set()
    for index, token in enumerate(tokens):
        if token.kind in _LITERALS:
            if 2 <= index and _lifts(tokens, index):
                liftable.append(index)
            else:
                inline.add(literal_value(token))
    values: dict[str, object] = {}
    names: dict[object, str] = {}
    parts: list[str] = []
    copied = 0
    for index in liftable:
        token = tokens[index]
        value = literal_value(token)
        if value in inline:
            continue
        # equal values share a name: equal literals were equal expressions
        name = names.get(value)
        if name is None:
            name = names[value] = f"${len(names)}"
            values[name] = value
        start = token.position
        parts.append(sql[copied:start])
        parts.append(name)
        copied = start + _source_length(token)
        tokens[index] = Token(PARAMETER, name, start)
    if not values:
        return StatementTemplate(sql.strip(), {}, sql, tokens)
    parts.append(sql[copied:])
    return StatementTemplate("".join(parts).strip(), values, sql, tokens)


def _lifts(tokens: list[Token], index: int) -> bool:
    """Is the literal at ``index`` the value of ``<column> = <literal>``?"""
    equals = tokens[index - 1]
    if equals.kind != OPERATOR or equals.value != "=":
        return False
    column = index - 2
    if tokens[column].kind != IDENT:
        return False
    if tokens[column - 1].matches(OPERATOR, ".") \
            and tokens[column - 2].kind == IDENT:
        column -= 2
    # tokens[0] is SELECT, so a column never starts the statement
    before, after = tokens[column - 1], tokens[index + 1]
    if before.kind == OPERATOR and before.value in _BINDING:
        return False
    if after.kind == OPERATOR and after.value in _BINDING:
        return False
    return not (after.kind == KEYWORD and after.value in _OPERAND_OF)


def _source_length(token: Token) -> int:
    """Characters the literal occupies in the SQL text."""
    if token.kind == STRING:
        # quoted, with every quote inside doubled
        return len(token.value) + token.value.count("'") + 2
    return len(token.value)


__all__ = ["StatementTemplate", "statement_template"]
