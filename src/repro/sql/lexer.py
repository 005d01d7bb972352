"""SQL tokenizer.

Produces a flat list of :class:`Token` objects. Identifiers and keywords are
case-insensitive; identifiers are normalized to lower case and keywords to
upper case. String literals use single quotes with ``''`` escaping. Line
comments (``--``) and block comments (``/* */``) are skipped. Every token
carries the offset of its first character.

One compiled pattern recognizes the next token at each offset; only
quoted strings, quoted identifiers and block comments are finished by
hand, so their unterminated forms report the offset where they start.
A plan-cache hit does not tokenize: :mod:`repro.sql.template` finds a
statement's template with a token-free scan and a memo of statement
shapes. This loop runs when a statement is parsed (a plan-cache miss,
and every non-SELECT) and when the memo meets a new shape; on a
``point_cold`` lookup it was ≈15 of the ≈20 µs the template pass took
while every hit still tokenized.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SqlSyntaxError

# token kinds
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OPERATOR = "OPERATOR"
PARAMETER = "PARAMETER"
EOF = "EOF"

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT TOP OFFSET
    DISTINCT ALL AS ON USING JOIN INNER LEFT RIGHT FULL OUTER CROSS
    AND OR NOT IN EXISTS BETWEEN LIKE IS NULL TRUE FALSE
    CASE WHEN THEN ELSE END CAST
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE INDEX UNIQUE PRIMARY KEY FOREIGN REFERENCES DROP
    TRIGGER AFTER BEFORE ACCESS TO FOR SENSITIVE PARTITION AUDIT EXPRESSION
    IF SEND EMAIL NOTIFY DENY BEGIN COMMIT ROLLBACK TRANSACTION
    DATE INTERVAL YEAR MONTH DAY EXTRACT SUBSTRING
    UNION EXCEPT INTERSECT
    ANALYZE
    """.split()
)

#: keywords the parser may also accept as plain identifiers (column names
#: such as ``date`` or ``key`` appear in realistic schemas)
SOFT_KEYWORDS = frozenset(
    "DATE YEAR MONTH DAY ACCESS EMAIL KEY AUDIT EXPRESSION TO "
    "PARTITION SENSITIVE TOP NOTIFY SEND DENY".split()
)

#: whitespace and line comments
_SKIP = r"(?:\s+|--[^\n]*)*"

#: skippable text, then the next token (or the end of the input). The
#: skip runs inside a lookahead, which never backtracks, so no token can
#: start inside a comment. Alternatives are tried in order: the ``/*``
#: opener before the ``/`` operator, two-character operators before their
#: one-character prefixes.
_NEXT = re.compile(
    rf"(?=(?P<skip>{_SKIP}))(?P=skip)" + r"""
    (?:
     (?P<word>[^\W\d]\w*)
    |(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<parameter>:\w*)
    |(?P<comment>/\*)
    |(?P<operator><>|<=|>=|!=|\|\||[=<>+\-*/%(),.;])
    |(?P<string>')
    |(?P<quoted>")
    |(?P<end>\Z)
    )""",
    re.VERBOSE,
)
_SKIP_ONLY = re.compile(_SKIP)


class Token(NamedTuple):
    """One lexical token: kind, normalized value, source offset."""

    kind: str
    value: str
    position: int

    def matches(self, kind: str, value: str | None = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _NEXT.match
    position = 0
    while True:
        found = match(text, position)
        if found is None:
            position = _SKIP_ONLY.match(text, position).end()
            raise SqlSyntaxError(
                f"unexpected character {text[position]!r}", position
            )
        kind = found.lastgroup
        start, end = found.span(kind)
        if kind == "word":
            word = found[kind]
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(KEYWORD, upper, start))
            else:
                append(Token(IDENT, word.lower(), start))
        elif kind == "operator":
            append(Token(OPERATOR, found[kind], start))
        elif kind == "number":
            append(Token(NUMBER, found[kind], start))
        elif kind == "parameter":
            if end == start + 1:
                raise SqlSyntaxError("empty parameter name", start)
            append(Token(PARAMETER, text[start + 1:end], start))
        elif kind == "string":
            value, end = _read_string(text, start)
            append(Token(STRING, value, start))
        elif kind == "quoted":
            close = text.find('"', end)
            if close < 0:
                raise SqlSyntaxError("unterminated quoted identifier", start)
            append(Token(IDENT, text[end:close].lower(), start))
            end = close + 1
        elif kind == "comment":
            close = text.find("*/", end)
            if close < 0:
                raise SqlSyntaxError("unterminated block comment", start)
            end = close + 2
        else:  # end of input
            append(Token(EOF, "", len(text)))
            return tokens
        position = end


def _read_string(text: str, position: int) -> tuple[str, int]:
    """Read a single-quoted string literal starting at ``position``;
    returns its value (``''`` unescaped) and the offset past it."""
    parts: list[str] = []
    cursor = position + 1
    while True:
        close = text.find("'", cursor)
        if close < 0:
            raise SqlSyntaxError("unterminated string literal", position)
        parts.append(text[cursor:close])
        if not text.startswith("'", close + 1):
            return "".join(parts), close + 1
        parts.append("'")
        cursor = close + 2
