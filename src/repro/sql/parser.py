"""Recursive-descent SQL parser.

Covers the dialect the paper's workload needs: full single-block SELECT
(joins, subqueries — IN/EXISTS/scalar, correlated —, CASE, aggregates,
GROUP BY/HAVING, ORDER BY, LIMIT/TOP), DML, table/index DDL, and the
paper's auditing DDL: ``CREATE AUDIT EXPRESSION`` (§II-A) and ``CREATE
TRIGGER ... ON ACCESS TO`` SELECT triggers plus classical AFTER triggers
(§II-C), including trigger-body ``IF (...)`` and ``SEND EMAIL``/``NOTIFY``.

Operator precedence, lowest to highest::

    OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < + - || < * / % < unary
"""

from __future__ import annotations

import datetime

from repro.datatypes import Interval
from repro.errors import SqlSyntaxError, UnsupportedSqlError
from repro.expr.nodes import (
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
from repro.sql import ast
from repro.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OPERATOR,
    PARAMETER,
    SOFT_KEYWORDS,
    STRING,
    Token,
    tokenize,
)

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max"}


class _Parser:
    """Token-stream cursor with the grammar methods."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._cursor = 0

    # ------------------------------------------------------------------
    # cursor helpers

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._cursor + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._cursor]
        if token.kind != EOF:
            self._cursor += 1
        return token

    def _check(self, kind: str, value: str | None = None) -> bool:
        return self._peek().matches(kind, value)

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            wanted = value or kind
            raise SqlSyntaxError(
                f"expected {wanted}, found {token.value or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _accept_keyword(self, *words: str) -> bool:
        """Accept a sequence of keywords atomically."""
        for offset, word in enumerate(words):
            if not self._peek(offset).matches(KEYWORD, word):
                return False
        for __ in words:
            self._advance()
        return True

    def _identifier(self) -> str:
        """Accept an identifier; soft keywords double as identifiers."""
        token = self._peek()
        if token.kind == IDENT:
            self._advance()
            return token.value
        if token.kind == KEYWORD and token.value in SOFT_KEYWORDS:
            self._advance()
            return token.value.lower()
        raise SqlSyntaxError(
            f"expected identifier, found {token.value or 'end of input'!r}",
            token.position,
        )

    def at_end(self) -> bool:
        return self._check(EOF)

    # ------------------------------------------------------------------
    # statements

    def statement(self) -> ast.Statement:
        token = self._peek()
        if token.matches(KEYWORD, "SELECT"):
            return self.select_statement()
        if token.matches(KEYWORD, "INSERT"):
            return self._insert_statement()
        if token.matches(KEYWORD, "UPDATE"):
            return self._update_statement()
        if token.matches(KEYWORD, "DELETE"):
            return self._delete_statement()
        if token.matches(KEYWORD, "CREATE"):
            return self._create_statement()
        if token.matches(KEYWORD, "DROP"):
            return self._drop_statement()
        if token.matches(KEYWORD, "ANALYZE"):
            return self._analyze_statement()
        if token.matches(KEYWORD, "IF"):
            return self._if_statement()
        if token.matches(KEYWORD, "SEND") or token.matches(KEYWORD, "NOTIFY"):
            return self._notify_statement()
        if token.matches(KEYWORD, "DENY"):
            return self._deny_statement()
        if token.matches(KEYWORD, "BEGIN"):
            self._advance()
            self._accept(KEYWORD, "TRANSACTION")
            return ast.TransactionStatement("begin")
        if token.matches(KEYWORD, "COMMIT"):
            self._advance()
            self._accept(KEYWORD, "TRANSACTION")
            return ast.TransactionStatement("commit")
        if token.matches(KEYWORD, "ROLLBACK"):
            self._advance()
            self._accept(KEYWORD, "TRANSACTION")
            return ast.TransactionStatement("rollback")
        raise SqlSyntaxError(
            f"unexpected start of statement: {token.value!r}", token.position
        )

    # ------------------------------------------------------------------
    # SELECT

    def select_statement(self) -> ast.SelectStatement:
        self._expect(KEYWORD, "SELECT")
        distinct = bool(self._accept(KEYWORD, "DISTINCT"))
        if not distinct:
            self._accept(KEYWORD, "ALL")
        limit: int | None = None
        if self._accept(KEYWORD, "TOP"):
            limit = self._integer_literal()
        items = self._select_items()
        from_items: tuple[ast.FromItem, ...] = ()
        if self._accept(KEYWORD, "FROM"):
            from_items = self._from_list()
        where = self.expression() if self._accept(KEYWORD, "WHERE") else None
        group_by: tuple[Expression, ...] = ()
        if self._accept_keyword("GROUP", "BY"):
            group_by = tuple(self._expression_list())
        having = self.expression() if self._accept(KEYWORD, "HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER", "BY"):
            order_by = tuple(self._order_items())
        if self._accept(KEYWORD, "LIMIT"):
            limit = self._integer_literal()
        if self._check(KEYWORD, "UNION") or self._check(KEYWORD, "EXCEPT") \
                or self._check(KEYWORD, "INTERSECT"):
            raise UnsupportedSqlError(
                "set operations (UNION/EXCEPT/INTERSECT) are not supported"
            )
        return ast.SelectStatement(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _select_items(self) -> list[ast.SelectItem]:
        items = [self._select_item()]
        while self._accept(OPERATOR, ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self._check(OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(Star())
        # qualified star: ident . *
        if (self._peek().kind == IDENT
                and self._peek(1).matches(OPERATOR, ".")
                and self._peek(2).matches(OPERATOR, "*")):
            qualifier = self._advance().value
            self._advance()
            self._advance()
            return ast.SelectItem(Star(qualifier=qualifier))
        expression = self.expression()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._identifier()
        elif self._peek().kind == IDENT:
            alias = self._advance().value
        return ast.SelectItem(expression, alias)

    def _order_items(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expression = self.expression()
            ascending = True
            if self._accept(KEYWORD, "DESC"):
                ascending = False
            else:
                self._accept(KEYWORD, "ASC")
            items.append(ast.OrderItem(expression, ascending))
            if not self._accept(OPERATOR, ","):
                return items

    def _expression_list(self) -> list[Expression]:
        expressions = [self.expression()]
        while self._accept(OPERATOR, ","):
            expressions.append(self.expression())
        return expressions

    def _integer_literal(self) -> int:
        token = self._expect(NUMBER)
        try:
            return int(token.value)
        except ValueError:
            raise SqlSyntaxError(
                f"expected integer, found {token.value!r}", token.position
            ) from None

    # ------------------------------------------------------------------
    # FROM clause

    def _from_list(self) -> tuple[ast.FromItem, ...]:
        items = [self._join_chain()]
        while self._accept(OPERATOR, ","):
            items.append(self._join_chain())
        return tuple(items)

    def _join_chain(self) -> ast.FromItem:
        left = self._from_factor()
        while True:
            kind = None
            if self._accept(KEYWORD, "JOIN") or self._accept_keyword(
                "INNER", "JOIN"
            ):
                kind = "INNER"
            elif self._accept_keyword("LEFT", "OUTER", "JOIN") \
                    or self._accept_keyword("LEFT", "JOIN"):
                kind = "LEFT"
            elif self._check(KEYWORD, "RIGHT") or self._check(KEYWORD, "FULL"):
                raise UnsupportedSqlError(
                    "RIGHT/FULL OUTER JOIN is not supported; rewrite as LEFT"
                )
            elif self._accept_keyword("CROSS", "JOIN"):
                right = self._from_factor()
                left = ast.JoinRef(left, right, "INNER", None)
                continue
            if kind is None:
                return left
            right = self._from_factor()
            self._expect(KEYWORD, "ON")
            condition = self.expression()
            left = ast.JoinRef(left, right, kind, condition)

    def _from_factor(self) -> ast.FromItem:
        if self._accept(OPERATOR, "("):
            if self._check(KEYWORD, "SELECT"):
                select = self.select_statement()
                self._expect(OPERATOR, ")")
                self._accept(KEYWORD, "AS")
                alias = self._identifier()
                return ast.SubqueryRef(select, alias)
            item = self._join_chain()
            self._expect(OPERATOR, ")")
            return item
        name = self._identifier()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._identifier()
        elif self._peek().kind == IDENT:
            alias = self._advance().value
        return ast.TableRef(name, alias)

    # ------------------------------------------------------------------
    # expressions

    def expression(self) -> Expression:
        return self._or_expression()

    def _or_expression(self) -> Expression:
        left = self._and_expression()
        while self._accept(KEYWORD, "OR"):
            right = self._and_expression()
            left = Binary("OR", left, right)
        return left

    def _and_expression(self) -> Expression:
        left = self._not_expression()
        while self._accept(KEYWORD, "AND"):
            right = self._not_expression()
            left = Binary("AND", left, right)
        return left

    def _not_expression(self) -> Expression:
        if self._accept(KEYWORD, "NOT"):
            return Unary("NOT", self._not_expression())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        while True:
            token = self._peek()
            if token.kind == OPERATOR and token.value in _COMPARISON_OPS:
                self._advance()
                op = "<>" if token.value == "!=" else token.value
                right = self._additive()
                left = Binary(op, left, right)
                continue
            if token.matches(KEYWORD, "IS"):
                self._advance()
                negated = bool(self._accept(KEYWORD, "NOT"))
                self._expect(KEYWORD, "NULL")
                left = IsNull(left, negated=negated)
                continue
            negated = False
            if token.matches(KEYWORD, "NOT"):
                follower = self._peek(1)
                if follower.value in ("BETWEEN", "IN", "LIKE"):
                    self._advance()
                    negated = True
                    token = self._peek()
                else:
                    break
            if token.matches(KEYWORD, "BETWEEN"):
                self._advance()
                low = self._additive()
                self._expect(KEYWORD, "AND")
                high = self._additive()
                left = Between(left, low, high, negated=negated)
                continue
            if token.matches(KEYWORD, "LIKE"):
                self._advance()
                pattern = self._additive()
                left = Like(left, pattern, negated=negated)
                continue
            if token.matches(KEYWORD, "IN"):
                self._advance()
                left = self._in_tail(left, negated)
                continue
            break
        return left

    def _in_tail(self, operand: Expression, negated: bool) -> Expression:
        self._expect(OPERATOR, "(")
        if self._check(KEYWORD, "SELECT"):
            select = self.select_statement()
            self._expect(OPERATOR, ")")
            return InSubquery(select=select, operand=operand, negated=negated)
        items = tuple(self._expression_list())
        self._expect(OPERATOR, ")")
        return InList(operand, items, negated=negated)

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == OPERATOR and token.value in ("+", "-", "||"):
                self._advance()
                right = self._multiplicative()
                left = Binary(token.value, left, right)
            else:
                return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == OPERATOR and token.value in ("*", "/", "%"):
                self._advance()
                right = self._unary()
                left = Binary(token.value, left, right)
            else:
                return left

    def _unary(self) -> Expression:
        if self._accept(OPERATOR, "-"):
            return Unary("-", self._unary())
        if self._accept(OPERATOR, "+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> Expression:
        token = self._peek()
        if token.kind == NUMBER or token.kind == STRING:
            self._advance()
            return Literal(literal_value(token))
        if token.kind == PARAMETER:
            self._advance()
            return Parameter(token.value)
        if token.matches(KEYWORD, "NULL"):
            self._advance()
            return Literal(None)
        if token.matches(KEYWORD, "TRUE"):
            self._advance()
            return Literal(True)
        if token.matches(KEYWORD, "FALSE"):
            self._advance()
            return Literal(False)
        if token.matches(KEYWORD, "DATE") and self._peek(1).kind == STRING:
            self._advance()
            literal = self._advance()
            try:
                return Literal(datetime.date.fromisoformat(literal.value))
            except ValueError:
                raise SqlSyntaxError(
                    f"invalid DATE literal {literal.value!r}", literal.position
                ) from None
        if token.matches(KEYWORD, "INTERVAL"):
            return self._interval_literal()
        if token.matches(KEYWORD, "CASE"):
            return self._case_expression()
        if token.matches(KEYWORD, "CAST"):
            return self._cast_expression()
        if token.matches(KEYWORD, "EXISTS"):
            self._advance()
            self._expect(OPERATOR, "(")
            select = self.select_statement()
            self._expect(OPERATOR, ")")
            return Exists(select=select)
        if token.matches(KEYWORD, "EXTRACT"):
            return self._extract_expression()
        if token.matches(KEYWORD, "SUBSTRING"):
            return self._substring_expression()
        if token.matches(OPERATOR, "("):
            self._advance()
            if self._check(KEYWORD, "SELECT"):
                select = self.select_statement()
                self._expect(OPERATOR, ")")
                return ScalarSubquery(select=select)
            expression = self.expression()
            self._expect(OPERATOR, ")")
            return expression
        if token.kind == IDENT or (
            token.kind == KEYWORD and token.value in SOFT_KEYWORDS
        ):
            return self._identifier_expression()
        raise SqlSyntaxError(
            f"unexpected token {token.value or 'end of input'!r} in expression",
            token.position,
        )

    def _identifier_expression(self) -> Expression:
        name = self._identifier()
        if self._check(OPERATOR, "("):
            return self._function_call(name)
        if self._accept(OPERATOR, "."):
            column = self._identifier()
            return ColumnRef(column, qualifier=name)
        return ColumnRef(name)

    def _function_call(self, name: str) -> Expression:
        self._expect(OPERATOR, "(")
        distinct = False
        args: tuple[Expression, ...] = ()
        if self._check(OPERATOR, "*"):
            self._advance()
            args = (Star(),)
        elif not self._check(OPERATOR, ")"):
            if self._accept(KEYWORD, "DISTINCT"):
                distinct = True
            args = tuple(self._expression_list())
        self._expect(OPERATOR, ")")
        if distinct and name not in _AGGREGATE_NAMES:
            raise SqlSyntaxError(f"DISTINCT is not valid in {name}()")
        return FunctionCall(name, args, distinct=distinct)

    def _interval_literal(self) -> Expression:
        self._expect(KEYWORD, "INTERVAL")
        literal = self._expect(STRING)
        try:
            count = int(literal.value)
        except ValueError:
            raise SqlSyntaxError(
                f"invalid INTERVAL count {literal.value!r}", literal.position
            ) from None
        unit_token = self._peek()
        if unit_token.value in ("YEAR", "MONTH", "DAY"):
            self._advance()
            return IntervalLiteral(Interval(count, unit_token.value))
        raise SqlSyntaxError(
            f"expected YEAR/MONTH/DAY, found {unit_token.value!r}",
            unit_token.position,
        )

    def _case_expression(self) -> Expression:
        self._expect(KEYWORD, "CASE")
        operand = None
        if not self._check(KEYWORD, "WHEN"):
            operand = self.expression()
        whens = []
        while self._accept(KEYWORD, "WHEN"):
            condition = self.expression()
            self._expect(KEYWORD, "THEN")
            result = self.expression()
            whens.append((condition, result))
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN")
        default = None
        if self._accept(KEYWORD, "ELSE"):
            default = self.expression()
        self._expect(KEYWORD, "END")
        return Case(tuple(whens), operand=operand, default=default)

    def _cast_expression(self) -> Expression:
        self._expect(KEYWORD, "CAST")
        self._expect(OPERATOR, "(")
        operand = self.expression()
        self._expect(KEYWORD, "AS")
        type_name = self._type_name()
        self._expect(OPERATOR, ")")
        return FunctionCall("cast_" + type_name.lower(), (operand,))

    def _extract_expression(self) -> Expression:
        self._expect(KEYWORD, "EXTRACT")
        self._expect(OPERATOR, "(")
        field_token = self._peek()
        if field_token.value not in ("YEAR", "MONTH", "DAY"):
            raise SqlSyntaxError(
                f"EXTRACT supports YEAR/MONTH/DAY, found {field_token.value!r}",
                field_token.position,
            )
        self._advance()
        self._expect(KEYWORD, "FROM")
        operand = self.expression()
        self._expect(OPERATOR, ")")
        return FunctionCall("extract_" + field_token.value.lower(), (operand,))

    def _substring_expression(self) -> Expression:
        self._expect(KEYWORD, "SUBSTRING")
        self._expect(OPERATOR, "(")
        operand = self.expression()
        if self._accept(KEYWORD, "FROM"):
            start = self.expression()
            length = None
            if self._accept(KEYWORD, "FOR"):
                length = self.expression()
        else:
            self._expect(OPERATOR, ",")
            start = self.expression()
            length = None
            if self._accept(OPERATOR, ","):
                length = self.expression()
        self._expect(OPERATOR, ")")
        args = [operand, start]
        if length is not None:
            args.append(length)
        return FunctionCall("substring", tuple(args))

    def _type_name(self) -> str:
        token = self._peek()
        if token.kind == IDENT or (
            token.kind == KEYWORD and token.value in SOFT_KEYWORDS
        ):
            name = self._identifier()
        else:
            raise SqlSyntaxError(
                f"expected type name, found {token.value!r}", token.position
            )
        # swallow optional length/precision: VARCHAR(25), DECIMAL(15, 2)
        if self._accept(OPERATOR, "("):
            self._expect(NUMBER)
            if self._accept(OPERATOR, ","):
                self._expect(NUMBER)
            self._expect(OPERATOR, ")")
        return name

    # ------------------------------------------------------------------
    # DML

    def _insert_statement(self) -> ast.InsertStatement:
        self._expect(KEYWORD, "INSERT")
        self._expect(KEYWORD, "INTO")
        table = self._identifier()
        columns: tuple[str, ...] = ()
        if self._check(OPERATOR, "(") and not self._peek(1).matches(
            KEYWORD, "SELECT"
        ):
            self._advance()
            names = [self._identifier()]
            while self._accept(OPERATOR, ","):
                names.append(self._identifier())
            self._expect(OPERATOR, ")")
            columns = tuple(names)
        if self._accept(KEYWORD, "VALUES"):
            rows = [self._value_row()]
            while self._accept(OPERATOR, ","):
                rows.append(self._value_row())
            return ast.InsertStatement(table, columns, rows=tuple(rows))
        if self._check(KEYWORD, "SELECT"):
            select = self.select_statement()
            return ast.InsertStatement(table, columns, select=select)
        if self._accept(OPERATOR, "("):
            select = self.select_statement()
            self._expect(OPERATOR, ")")
            return ast.InsertStatement(table, columns, select=select)
        raise SqlSyntaxError("INSERT requires VALUES or SELECT")

    def _value_row(self) -> tuple[Expression, ...]:
        self._expect(OPERATOR, "(")
        values = tuple(self._expression_list())
        self._expect(OPERATOR, ")")
        return values

    def _update_statement(self) -> ast.UpdateStatement:
        self._expect(KEYWORD, "UPDATE")
        table = self._identifier()
        self._expect(KEYWORD, "SET")
        assignments = [self._assignment()]
        while self._accept(OPERATOR, ","):
            assignments.append(self._assignment())
        where = self.expression() if self._accept(KEYWORD, "WHERE") else None
        return ast.UpdateStatement(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, Expression]:
        column = self._identifier()
        self._expect(OPERATOR, "=")
        return column, self.expression()

    def _delete_statement(self) -> ast.DeleteStatement:
        self._expect(KEYWORD, "DELETE")
        self._expect(KEYWORD, "FROM")
        table = self._identifier()
        where = self.expression() if self._accept(KEYWORD, "WHERE") else None
        return ast.DeleteStatement(table, where)

    # ------------------------------------------------------------------
    # DDL

    def _create_statement(self) -> ast.Statement:
        self._expect(KEYWORD, "CREATE")
        if self._accept(KEYWORD, "TABLE"):
            return self._create_table()
        unique = bool(self._accept(KEYWORD, "UNIQUE"))
        if self._accept(KEYWORD, "INDEX"):
            return self._create_index(unique)
        if unique:
            raise SqlSyntaxError("expected INDEX after UNIQUE")
        if self._accept_keyword("AUDIT", "EXPRESSION"):
            return self._create_audit_expression()
        if self._accept(KEYWORD, "TRIGGER"):
            return self._create_trigger()
        token = self._peek()
        raise SqlSyntaxError(
            f"unsupported CREATE {token.value!r}", token.position
        )

    def _create_table(self) -> ast.CreateTableStatement:
        name = self._identifier()
        self._expect(OPERATOR, "(")
        columns: list[ast.ColumnDefinition] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[tuple[tuple[str, ...], str, tuple[str, ...]]] = []
        while True:
            if self._accept_keyword("PRIMARY", "KEY"):
                self._expect(OPERATOR, "(")
                names = [self._identifier()]
                while self._accept(OPERATOR, ","):
                    names.append(self._identifier())
                self._expect(OPERATOR, ")")
                primary_key = tuple(names)
            elif self._accept_keyword("FOREIGN", "KEY"):
                self._expect(OPERATOR, "(")
                local = [self._identifier()]
                while self._accept(OPERATOR, ","):
                    local.append(self._identifier())
                self._expect(OPERATOR, ")")
                self._expect(KEYWORD, "REFERENCES")
                ref_table = self._identifier()
                ref_columns: tuple[str, ...] = ()
                if self._accept(OPERATOR, "("):
                    refs = [self._identifier()]
                    while self._accept(OPERATOR, ","):
                        refs.append(self._identifier())
                    self._expect(OPERATOR, ")")
                    ref_columns = tuple(refs)
                foreign_keys.append((tuple(local), ref_table, ref_columns))
            else:
                columns.append(self._column_definition())
            if not self._accept(OPERATOR, ","):
                break
        self._expect(OPERATOR, ")")
        declared_pk = tuple(
            column.name for column in columns if column.primary_key
        )
        if declared_pk and primary_key:
            raise SqlSyntaxError("duplicate PRIMARY KEY specification")
        return ast.CreateTableStatement(
            name=name,
            columns=tuple(columns),
            primary_key=primary_key or declared_pk,
            foreign_keys=tuple(foreign_keys),
        )

    def _column_definition(self) -> ast.ColumnDefinition:
        name = self._identifier()
        type_name = self._type_name()
        not_null = False
        primary_key = False
        while True:
            if self._accept_keyword("NOT", "NULL"):
                not_null = True
            elif self._accept_keyword("PRIMARY", "KEY"):
                primary_key = True
                not_null = True
            else:
                break
        return ast.ColumnDefinition(name, type_name, not_null, primary_key)

    def _create_index(self, unique: bool) -> ast.CreateIndexStatement:
        name = self._identifier()
        self._expect(KEYWORD, "ON")
        table = self._identifier()
        self._expect(OPERATOR, "(")
        columns = [self._identifier()]
        while self._accept(OPERATOR, ","):
            columns.append(self._identifier())
        self._expect(OPERATOR, ")")
        return ast.CreateIndexStatement(name, table, tuple(columns), unique)

    def _create_audit_expression(self) -> ast.CreateAuditExpressionStatement:
        name = self._identifier()
        self._expect(KEYWORD, "AS")
        select = self.select_statement()
        self._expect(KEYWORD, "FOR")
        self._expect(KEYWORD, "SENSITIVE")
        self._expect(KEYWORD, "TABLE")
        sensitive_table = self._identifier()
        self._accept(OPERATOR, ",")
        self._expect(KEYWORD, "PARTITION")
        self._expect(KEYWORD, "BY")
        partition_by = self._identifier()
        return ast.CreateAuditExpressionStatement(
            name, select, sensitive_table, partition_by
        )

    def _create_trigger(self) -> ast.Statement:
        name = self._identifier()
        self._expect(KEYWORD, "ON")
        if self._accept_keyword("ACCESS", "TO"):
            audit_expression = self._identifier()
            timing = "after"
            if self._accept(KEYWORD, "BEFORE"):
                timing = "before"
            else:
                self._accept(KEYWORD, "AFTER")
            self._expect(KEYWORD, "AS")
            body = self._trigger_body()
            return ast.CreateSelectTriggerStatement(
                name, audit_expression, body, timing
            )
        table = self._identifier()
        self._expect(KEYWORD, "AFTER")
        event_token = self._peek()
        if event_token.value not in ("INSERT", "UPDATE", "DELETE"):
            raise SqlSyntaxError(
                f"expected INSERT/UPDATE/DELETE, found {event_token.value!r}",
                event_token.position,
            )
        self._advance()
        self._expect(KEYWORD, "AS")
        body = self._trigger_body()
        return ast.CreateDmlTriggerStatement(
            name, table, event_token.value, body
        )

    def _trigger_body(self) -> tuple[ast.Statement, ...]:
        if self._accept(KEYWORD, "BEGIN"):
            statements = []
            while not self._accept(KEYWORD, "END"):
                statements.append(self.statement())
                self._accept(OPERATOR, ";")
            return tuple(statements)
        return (self.statement(),)

    def _drop_statement(self) -> ast.Statement:
        self._expect(KEYWORD, "DROP")
        if self._accept(KEYWORD, "TABLE"):
            return ast.DropTableStatement(self._identifier())
        if self._accept(KEYWORD, "TRIGGER"):
            return ast.DropTriggerStatement(self._identifier())
        if self._accept_keyword("AUDIT", "EXPRESSION"):
            return ast.DropAuditExpressionStatement(self._identifier())
        token = self._peek()
        raise SqlSyntaxError(f"unsupported DROP {token.value!r}", token.position)

    def _analyze_statement(self) -> ast.AnalyzeStatement:
        self._expect(KEYWORD, "ANALYZE")
        if self._check(EOF) or self._check(OPERATOR, ";"):
            return ast.AnalyzeStatement(None)
        return ast.AnalyzeStatement(self._identifier())

    # ------------------------------------------------------------------
    # trigger-body statements

    def _if_statement(self) -> ast.IfStatement:
        self._expect(KEYWORD, "IF")
        self._expect(OPERATOR, "(")
        condition = self.expression()
        self._expect(OPERATOR, ")")
        then = self.statement()
        return ast.IfStatement(condition, then)

    def _notify_statement(self) -> ast.NotifyStatement:
        if self._accept(KEYWORD, "SEND"):
            self._expect(KEYWORD, "EMAIL")
        else:
            self._expect(KEYWORD, "NOTIFY")
        message = None
        if self._peek().kind == STRING:
            message = Literal(self._advance().value)
        return ast.NotifyStatement(message)

    def _deny_statement(self) -> ast.DenyStatement:
        self._expect(KEYWORD, "DENY")
        message = None
        if self._peek().kind == STRING:
            message = Literal(self._advance().value)
        return ast.DenyStatement(message)


def literal_value(token: Token) -> object:
    """The value of a NUMBER or STRING token, as a literal carries it."""
    if token.kind == STRING:
        return token.value
    return number_value(token.value)


def number_value(text: str) -> object:
    """The value of a NUMBER lexeme: a float with a point or exponent,
    else an int."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement (trailing semicolon allowed)."""
    return parse_tokens(tokenize(text))


def parse_tokens(tokens: list[Token]) -> ast.Statement:
    """:func:`parse_statement` over an already tokenized statement."""
    parser = _Parser(tokens)
    statement = parser.statement()
    parser._accept(OPERATOR, ";")
    if not parser.at_end():
        token = parser._peek()
        raise SqlSyntaxError(
            f"unexpected trailing input {token.value!r}", token.position
        )
    return statement


def parse_statements(text: str) -> list[ast.Statement]:
    """Parse a script of semicolon-separated statements."""
    return [statement for statement, _ in parse_statements_with_text(text)]


def parse_statements_with_text(
    text: str,
) -> list[tuple[ast.Statement, str]]:
    """Parse a script, pairing each statement with its own source text.

    Token positions delimit the spans, so comments and whitespace between
    statements never leak into a neighbor's text. The per-statement text
    is what statement-level replication journals: a replica must replay
    *exactly* the SQL the primary ran, not a pretty-printed stand-in.
    """
    parser = _Parser(tokenize(text))
    pairs: list[tuple[ast.Statement, str]] = []
    while not parser.at_end():
        start = parser._peek().position
        statement = parser.statement()
        end_token = parser._peek()
        end = (
            len(text)
            if end_token.kind == EOF
            else end_token.position
        )
        pairs.append((statement, text[start:end].strip()))
        if not parser._accept(OPERATOR, ";"):
            break
    if not parser.at_end():
        token = parser._peek()
        raise SqlSyntaxError(
            f"unexpected trailing input {token.value!r}", token.position
        )
    return pairs


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar expression (used in tests and tools)."""
    parser = _Parser(tokenize(text))
    expression = parser.expression()
    if not parser.at_end():
        token = parser._peek()
        raise SqlSyntaxError(
            f"unexpected trailing input {token.value!r}", token.position
        )
    return expression
