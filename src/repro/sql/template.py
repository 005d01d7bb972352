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

How a template is found without the lexer. A cold point lookup hits the
plan cache under its template, so finding the template is most of what
the lookup costs before execution; the Python tokenizer used to be most
of that (≈15 µs of a ≈20 µs template pass for a ``point_cold`` primary-key
lookup, ≈42 of ≈50 µs for its join lookup). The lexer now runs only on
two misses, and a hit takes three steps:

1. **Scan.** One compiled pattern, ``findall`` in C, walks the text the
   way the lexer does — words, ``:params``, quoted identifiers and both
   comment forms are consumed whole, so no number starts inside one of
   them — and stops at each NUMBER or STRING literal.
2. **Skeleton.** The text with each literal replaced by ``$`` keys a
   bounded *shape memo*, which maps it to the ordinals of the liftable
   literals (``()`` for a non-SELECT). A text that holds a ``$`` itself
   — a lexer error, or one inside a comment or string — never takes
   this path, so a ``$`` in a skeleton always marks a literal.
3. **Template.** Key and values are built from the literal texts with
   the rules above: equal values share a name, and a value that also
   occurs inline keeps every occurrence inline.

On a *shape miss* the text is tokenized and the lift decision is taken
from the tokens; the shape is memoized only when the lexer's literal
tokens lie exactly on the scanned spans (otherwise this text keeps the
token result and the memo learns nothing); either way the template
keeps the tokens, lifted literals swapped for parameters. On a
*plan-cache miss* :meth:`StatementTemplate.parse` parses those tokens,
or — after a memo hit, which has none — tokenizes the text and swaps the
lifted literals itself, so a text is lexed at most once per lookup and
syntax errors and their offsets are the lexer's own.

Why a skeleton determines the lift decision. The scanner splits a text
into the same units the lexer does and treats everything between them
exactly as the lexer's operators and blanks, so two texts with one
skeleton differ only inside literal tokens: their token streams match
kind for kind outside the literals, and :func:`_lifts` reads only token
kinds and operator / keyword values around a literal, never the literal
itself. What does depend on the literal values — sharing and the inline
rule — is step 3, recomputed per text. ``tests/test_statement_template``
holds this against the token derivation on generated adversarial texts.

Measured on an Intel Xeon, 2 cores, CPython 3.11: the template pass
of a ``point_cold`` primary-key lookup fell from ≈20 µs to ≈7 µs, of its
join lookup from ≈50 µs to ≈9 µs.
"""

from __future__ import annotations

import re
import threading
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
from repro.sql.parser import number_value, parse_tokens

#: a literal right after ``=``. A text without one lifts nothing, so it
#: is its own key and is never scanned; it cannot equal a lifted key,
#: since every one holds a ``$`` and a text holding one is tokenized
_MAY_LIFT = re.compile(r"=\s*[\d.']")

#: One unit boundary to the next literal (or the end). Group 1 is what
#: precedes the literal, consumed as the lexer would: a digit right
#: after a word character continues a word, and ``:params``, quoted
#: identifiers and comments are taken whole, so no literal starts inside
#: one of them. Group 2 is the literal (group 3 a string's body); group
#: 4 an opener the lexer would report as unterminated. The loop stops
#: only at a digit outside a word, ``.digit``, a quote, an unterminated
#: ``/*`` or the end, and it and a string's body each sit in a lookahead
#: matched back by reference — ``re`` never backtracks into a lookahead,
#: so they act as atomic groups (possessive quantifiers need 3.11),
#: ``findall`` never retries a position and the walk is linear.
_SCAN = re.compile(
    r"""
    (?=((?:
        [^'".:/\-\d]+                  # words, blanks and operators
      | (?<=\w)\w+                     # a word, from a digit on
      | \.(?!\d)                       # a dot that starts no number
      | :\w*                           # parameter
      | "[^"]*"                        # quoted identifier
      | --[^\n]*                       # line comment
      | -                              # minus
      | /\*(?s:.*?)\*/                 # block comment
      | /(?!\*)                        # divide
    )*))\1
    (?:
        ( '(?=((?:[^']|'')*))\3'       # string
        | (?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?    # number
        )
      | (['"]|/\*)                     # unterminated
      | \Z
    )
    """,
    re.VERBOSE,
)

#: distinct skeletons the shape memo keeps (oldest evicted first)
_SHAPE_CAPACITY = 1024

_LITERALS = (NUMBER, STRING)

#: operators that would make a comparison part of a larger expression
_BINDING = frozenset(
    ("+", "-", "*", "/", "%", "||", "=", "<>", "!=", "<", "<=", ">", ">=",
     ".")
)

#: keywords that would make ``column = literal`` their operand
_OPERAND_OF = frozenset(("IS", "BETWEEN", "LIKE", "IN", "NOT"))


@dataclass(slots=True)
class StatementTemplate:
    """One statement as the plan cache sees it.

    ``key`` is the (stripped) text with each lifted literal replaced by
    its parameter name (``$0``, ``$1``, …). Every lifted key comes from a
    text the lexer accepts, and the lexer accepts no ``$``, so no written
    statement can collide with a template. ``text`` is the statement as
    given; ``lifted`` pairs the source offset of each lifted literal
    with its parameter name (``()`` when nothing was lifted).
    ``tokens`` is the template's token stream, lifted literals already
    parameters, when finding the template took the lexer (``None`` on a
    shape-memo hit: :meth:`parse` then tokenizes the text itself).
    """

    key: str
    values: dict[str, object]
    text: str
    lifted: tuple[tuple[int, str], ...] = ()
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
        tokens = self.tokens
        if tokens is None:
            tokens = tokenize(self.text)
            if _swap(tokens, self.lifted) != len(self.lifted):
                raise RuntimeError(
                    f"statement template {self.key!r} does not match the "
                    "tokens of its text"
                )
        return parse_tokens(tokens)


def _swap(tokens: list[Token], lifted: tuple[tuple[int, str], ...]) -> int:
    """Replace the literal tokens at the offsets of ``lifted`` by their
    parameters, in place; returns how many were replaced."""
    if not lifted:
        return 0
    names = dict(lifted)
    swapped = 0
    for index, token in enumerate(tokens):
        name = names.get(token.position)
        if name is not None and token.kind in _LITERALS:
            tokens[index] = Token(PARAMETER, name, token.position)
            swapped += 1
    return swapped


#: skeleton -> ordinals of its liftable literals; a memo of a pure
#: function of the skeleton, shared like ``re``'s pattern cache
_shapes: dict[str, tuple[int, ...]] = {}
_shapes_lock = threading.Lock()


def statement_template(sql: str) -> StatementTemplate:
    """The template of one statement; its key ignores surrounding
    whitespace. Raises :class:`SqlSyntaxError` when the text reaches the
    lexer and the lexer rejects it; other texts' errors surface in
    :meth:`StatementTemplate.parse`."""
    if "$" in sql:  # the skeleton's mask; outside a comment, a lex error
        return _from_tokens(sql)[0]
    if _MAY_LIFT.search(sql) is None:
        return StatementTemplate(sql.strip(), {}, sql)
    spans: list[tuple[int, int]] = []
    parts: list[str] = []
    position = 0
    for before, literal, _, unterminated in _SCAN.findall(sql):
        if unterminated:
            return _from_tokens(sql)[0]
        parts.append(before)
        position += len(before)
        if literal:
            parts.append("$")
            end = position + len(literal)
            spans.append((position, end))
            position = end
    skeleton = "".join(parts)
    lifts = _shapes.get(skeleton)
    if lifts is not None:
        return _build(sql, spans, lifts)
    template, token_spans, lifts = _from_tokens(sql)
    if token_spans == spans:
        with _shapes_lock:
            if len(_shapes) >= _SHAPE_CAPACITY:
                del _shapes[next(iter(_shapes))]
            _shapes[skeleton] = lifts
    return template


def _from_tokens(
    sql: str,
) -> tuple[StatementTemplate, list[tuple[int, int]], tuple[int, ...]]:
    """The template derived from the lexer's tokens, with the literal
    spans and lift ordinals it was built from."""
    tokens = tokenize(sql)
    select = tokens[0].matches(KEYWORD, "SELECT")
    spans = []
    lifts = []
    for index, token in enumerate(tokens):
        if token.kind in _LITERALS:
            if select and 2 <= index and _lifts(tokens, index):
                lifts.append(len(spans))
            start = token.position
            spans.append((start, start + _source_length(token)))
    lifts = tuple(lifts)
    template = _build(sql, spans, lifts)
    # kept for parse(), so a shape miss that is also a plan miss lexes once
    _swap(tokens, template.lifted)
    template.tokens = tokens
    return template, spans, lifts


def _build(
    sql: str, spans: list[tuple[int, int]], lifts: tuple[int, ...]
) -> StatementTemplate:
    """Key and values of ``sql`` whose literals lie at ``spans``, lifting
    the ordinals ``lifts`` whose value occurs nowhere inline."""
    if not lifts:
        return StatementTemplate(sql.strip(), {}, sql)
    inline = {
        _span_value(sql, *span) for ordinal, span in enumerate(spans)
        if ordinal not in lifts
    } if len(lifts) < len(spans) else ()
    values: dict[str, object] = {}
    names: dict[object, str] = {}
    lifted: list[tuple[int, str]] = []
    parts: list[str] = []
    copied = 0
    for ordinal in lifts:
        start, end = spans[ordinal]
        value = _span_value(sql, start, end)
        if value in inline:
            continue
        # equal values share a name: equal literals were equal expressions
        name = names.get(value)
        if name is None:
            name = names[value] = f"${len(names)}"
            values[name] = value
        parts.append(sql[copied:start])
        parts.append(name)
        copied = end
        lifted.append((start, name))
    if not values:
        return StatementTemplate(sql.strip(), {}, sql)
    parts.append(sql[copied:])
    return StatementTemplate(
        "".join(parts).strip(), values, sql, tuple(lifted)
    )


def _span_value(sql: str, start: int, end: int) -> object:
    """The value of the NUMBER or STRING literal at ``sql[start:end]``."""
    if sql[start] == "'":
        return sql[start + 1:end - 1].replace("''", "'")
    return number_value(sql[start:end])


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
