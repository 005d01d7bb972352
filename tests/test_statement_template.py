"""Statement templates: which literals are lifted, and how."""

from __future__ import annotations

import pytest

from repro.errors import SqlSyntaxError
from repro.expr.nodes import Binary, ColumnRef, Literal, Parameter
from repro.sql.lexer import tokenize
from repro.sql.template import statement_template

POINT = "SELECT name, age FROM patients WHERE pid = {}"


def lifted(sql: str) -> dict[str, object]:
    return statement_template(sql).values


class TestWhatIsLifted:
    def test_point_lookup_key_becomes_a_parameter(self):
        template = statement_template(POINT.format(4711))
        assert template.key == POINT.format("$0")
        assert template.values == {"$0": 4711}

    def test_lookups_differing_only_in_the_key_share_a_template(self):
        keys = {statement_template(POINT.format(k)).key for k in (1, 2, 99)}
        assert keys == {POINT.format("$0")}

    def test_qualified_column_and_join(self):
        sql = ("SELECT p.name FROM visits v, patients p "
               "WHERE v.pid = p.pid AND v.vid = 17")
        template = statement_template(sql)
        assert template.key.endswith("v.vid = $0")
        assert template.values == {"$0": 17}

    @pytest.mark.parametrize("literal, value", [
        ("'BUILDING'", "BUILDING"),
        ("'O''Brien'", "O'Brien"),
        ("''", ""),
        ("1.5", 1.5),
        ("2e3", 2000.0),
        (".5", 0.5),
    ])
    def test_literal_values_match_the_parser(self, literal, value):
        template = statement_template(f"SELECT * FROM t WHERE c = {literal}")
        assert template.key == "SELECT * FROM t WHERE c = $0"
        assert template.values == {"$0": value}
        assert type(template.values["$0"]) is type(value)

    def test_equal_values_share_one_parameter(self):
        same = statement_template(
            "SELECT * FROM t WHERE a = 1 AND b = 1 AND c = 'x'"
        )
        assert same.key == "SELECT * FROM t WHERE a = $0 AND b = $0 AND c = $1"
        other = statement_template("SELECT * FROM t WHERE a = 1 AND b = 2")
        assert other.key == "SELECT * FROM t WHERE a = $0 AND b = $1"

    def test_a_value_inline_anywhere_stays_inline_everywhere(self):
        sql = "SELECT a = 1 IS NULL, COUNT(*) FROM t GROUP BY a = 1"
        assert statement_template(sql).key == sql
        assert lifted("SELECT * FROM t WHERE a = 2 AND b = 2 + c") == {}
        assert lifted("SELECT * FROM t WHERE a = 1.0 LIMIT 1") == {}
        assert lifted("SELECT * FROM t WHERE a = 2 AND b = 3 LIMIT 3") == {
            "$0": 2
        }

    def test_surrounding_whitespace_is_not_part_of_the_key(self):
        template = statement_template("  SELECT * FROM t WHERE a = 5 ;\n")
        assert template.key == "SELECT * FROM t WHERE a = $0 ;"
        assert statement_template(" SELECT 1 ").key == "SELECT 1"

    def test_whitespace_and_comments_stay_in_the_key(self):
        sql = "SELECT *  FROM t /* = 5 */ WHERE a =  '-- x'  -- = 6"
        template = statement_template(sql)
        assert template.key == "SELECT *  FROM t /* = 5 */ WHERE a =  $0  -- = 6"
        assert template.values == {"$0": "-- x"}

    def test_subquery_and_select_list(self):
        sql = ("SELECT a = 3 FROM t WHERE b IN "
               "(SELECT b FROM u WHERE c = 'k')")
        assert lifted(sql) == {"$0": 3, "$1": "k"}

    @pytest.mark.parametrize("sql", [
        "UPDATE t SET a = 1 WHERE b = 2",
        "DELETE FROM t WHERE b = 2",
        "INSERT INTO t SELECT * FROM u WHERE b = 2",
        "SELECT * FROM t WHERE d = DATE '1995-01-01'",
        "SELECT * FROM t WHERE a = -1",
        "SELECT * FROM t WHERE a < 5 AND a >= 1 AND a <> 3",
        "SELECT * FROM t WHERE a IN (1, 2)",
        "SELECT * FROM t WHERE a BETWEEN 1 AND 2",
        "SELECT * FROM t ORDER BY 1 LIMIT 5",
        "SELECT * FROM t WHERE 1 = a",
        "SELECT * FROM t WHERE a = 1 + b",
        "SELECT * FROM t WHERE b + a = 1",
        "SELECT * FROM t WHERE a = 'x' || b",
        "SELECT * FROM t WHERE f(a) = 1",
        "SELECT * FROM t WHERE x.y.z = 1",
        "SELECT * FROM t WHERE a = 1 IS NULL",
        "SELECT * FROM t WHERE a = 1 = b",
        "SELECT * FROM t WHERE a = :p",
        "SELECT * FROM t WHERE a = TRUE OR b = NULL",
        "SELECT * FROM t WHERE a = b",
    ])
    def test_literals_outside_column_equals_stay_inline(self, sql):
        template = statement_template(sql)
        assert template.key == sql
        assert template.values == {}


class TestTemplateStatement:
    def test_parse_puts_parameters_where_the_literals_were(self):
        template = statement_template("SELECT a FROM t WHERE a = 5 AND b = 'q'")
        where = template.parse().where
        assert where == Binary(
            "AND",
            Binary("=", ColumnRef("a"), Parameter("$0")),
            Binary("=", ColumnRef("b"), Parameter("$1")),
        )

    def test_texts_without_liftable_literals_are_their_own_key(self):
        for sql in ("SELECT a FROM t WHERE a = :p", " UPDATE t SET a = :p "):
            template = statement_template(sql)
            assert (template.key, template.tokens) == (sql.strip(), None)
        # parsed from the text as given: offsets count the leading blanks
        with pytest.raises(SqlSyntaxError, match="offset 9"):
            statement_template("  SELECT ,").parse()

    def test_unlifted_select_parses_the_text(self):
        template = statement_template("SELECT a FROM t WHERE a < 5")
        assert template.parse().where == Binary(
            "<", ColumnRef("a"), Literal(5)
        )

    def test_bind_adds_lifted_values_to_the_callers_parameters(self):
        template = statement_template("SELECT * FROM t WHERE a = 5 AND b < :b")
        assert template.bind({"b": 3}) == {"b": 3, "$0": 5}
        assert template.bind(None) == {"$0": 5}
        plain = statement_template("SELECT * FROM t WHERE b < :b")
        parameters = {"b": 3}
        assert plain.bind(parameters) is parameters

    def test_generated_names_cannot_be_written(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT * FROM t WHERE a = :$0")

    def test_syntax_errors_surface_unchanged(self):
        with pytest.raises(SqlSyntaxError, match="unterminated string"):
            statement_template("SELECT * FROM t WHERE a = 'oops")
        # offsets count from the text as written, leading blanks included
        with pytest.raises(SqlSyntaxError, match="offset 4"):
            statement_template("  ; $")

    def test_written_dollar_names_do_not_tokenize(self):
        with pytest.raises(SqlSyntaxError):
            statement_template("SELECT * FROM t WHERE a = $0")
