"""Statement templates: which literals are lifted, and how."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.errors import ReproError, SqlSyntaxError
from repro.expr.nodes import Binary, ColumnRef, Literal, Parameter
from repro.sql import template
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
            assert (template.key, template.lifted) == (sql.strip(), ())
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


# ----------------------------------------------------------------------
# the shape memo: scanned templates against the token derivation

#: text around the literal slots, adversarial lexemes included: literal
#: look-alikes inside comments, strings and identifiers, parameters,
#: digits inside words, lexer errors and unterminated openers
FIXED = (
    "SELECT", "SELECT *", "FROM t", "WHERE", "a", "t.c", "a1", '"col1"',
    "+", "-", "<", "<>", "||", ".", ",", "(", ")", "*", "AND", "OR",
    "NOT", "IS NULL", "IS", "IN", "BETWEEN", "LIKE", "LIMIT", "TOP",
    "ORDER BY", "DATE", ":p1", ":", "$", "$0", "/* = 5 */", "-- = 6\n",
    "'= 5'", "e5", "..", "/*", '"', "'", "@", "UPDATE t SET",
    "DELETE FROM t WHERE", ";",
)
#: what ``<column> =`` stands after, liftable or not
COLUMNS = ("a", "t.c", "a1", '"col1"', "x_2", "f(a)", "b.", "5", ":p1",
           "a = 1 +", "NOT a")
LITERALS = (
    "5", "0", "42", "1e5", "1E+2", ".5", "1.", "1..2", "2.5e-3",
    "'O''Brien'", "''", "'x'", "'= 5'", "'-- x'", "'a''", "'5'",
)

gaps = st.sampled_from(("", " ", "\n", "  "))
#: (text, whether a literal follows it)
predicate = st.builds(
    lambda column, gap: (f"{column}{gap}={gap}", True),
    st.sampled_from(COLUMNS), gaps,
)
items = st.one_of(
    predicate, predicate,
    st.sampled_from(FIXED).map(lambda text: (text, False)),
    st.just(("", True)),
)
shapes = st.tuples(
    st.sampled_from(("SELECT * FROM t WHERE", "SELECT", "", "UPDATE t SET")),
    st.lists(st.tuples(items, gaps), max_size=10),
)


def _fill(shape, literals) -> str:
    prefix, chosen = shape
    parts = [prefix, " "]
    slots = iter(literals)
    for (text, slot), gap in chosen:
        parts.append(text)
        if slot:
            parts.append(next(slots))
        parts.append(gap)
    return "".join(parts)


@st.composite
def sibling_texts(draw) -> tuple[str, str]:
    """Two texts of one shape that differ only in their literals."""
    shape = draw(shapes)
    slots = sum(slot for (_, slot), _ in shape[1])
    fill = st.lists(st.sampled_from(LITERALS), min_size=slots,
                    max_size=slots)
    return _fill(shape, draw(fill)), _fill(shape, draw(fill))


def outcome(sql: str):
    """Key, values (typed) and parsed statement of ``sql``'s template,
    or the error and offset it raised."""
    try:
        found = statement_template(sql)
    except SqlSyntaxError as error:
        return "template error", str(error)
    try:
        statement = found.parse()
    except ReproError as error:
        statement = type(error).__name__, str(error)
    values = {name: (type(v), v) for name, v in found.values.items()}
    return found.key, values, statement


class TestShapeMemo:
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sibling_texts())
    def test_scanned_template_matches_the_token_derivation(self, texts):
        first, second = texts
        template._shapes.clear()
        expected = outcome(second)  # an empty memo: the lexer decides
        template._shapes.clear()
        outcome(first)  # memoizes the shape when the lexer agrees
        assert outcome(second) == expected
        assert outcome(second) == expected  # its own shape, memoized

    @pytest.mark.parametrize("first, second", [
        ("SELECT * FROM t WHERE a = 5",
         "SELECT * FROM t WHERE a = 'O''Brien'"),
        ("SELECT a = 1 IS NULL FROM t WHERE b = 2",
         "SELECT a = 1 IS NULL FROM t WHERE b = 1"),
        ("SELECT * FROM t WHERE a = 1 AND b = 2",
         "SELECT * FROM t WHERE a = 7 AND b = 7"),
        ("SELECT * FROM t /* = 5 */ WHERE a1 = 1 LIMIT 3",
         "SELECT * FROM t /* = 5 */ WHERE a1 = 3 LIMIT 3"),
        ("SELECT * FROM t WHERE a = 1. AND b = .5",
         "SELECT * FROM t WHERE a = 2. AND b = .7"),
        ("UPDATE t SET a = 1 WHERE b = 2", "UPDATE t SET a = 3 WHERE b = 4"),
        ("SELECT * FROM t WHERE \"col1\" = 5 AND c = :p1",
         "SELECT * FROM t WHERE \"col1\" = 6 AND c = :p1"),
    ])
    def test_siblings_share_a_shape(self, first, second):
        template._shapes.clear()
        expected = outcome(second)
        template._shapes.clear()
        outcome(first)
        assert len(template._shapes) == 1
        assert outcome(second) == expected
        assert len(template._shapes) == 1  # a hit: nothing new learned

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t WHERE a = 'oops",
        "SELECT * FROM t WHERE a = 5 /* open",
        "SELECT * FROM t WHERE a = 5 AND \"b = 1",
        "SELECT * FROM t WHERE a = 5 AND $",
        "SELECT * FROM t WHERE a = 5 AND b = 6 @",
    ])
    def test_texts_the_lexer_rejects_are_never_memoized(self, sql):
        template._shapes.clear()
        for _ in range(2):
            with pytest.raises(SqlSyntaxError):
                statement_template(sql).parse()
        assert not template._shapes

    def test_the_memo_is_bounded(self):
        template._shapes.clear()
        for width in range(template._SHAPE_CAPACITY + 10):
            statement_template(f"SELECT * FROM t{width} WHERE a = 1")
        assert len(template._shapes) == template._SHAPE_CAPACITY


class TestLexerWork:
    def test_point_lookups_lex_once_per_shape_and_plan_miss(
        self, monkeypatch
    ):
        """1 000 cold point lookups (the e2e ``point_cold`` shapes): the
        tokenizer runs once per plan-cache miss, not per statement — the
        tokens that learn a new shape serve that lookup's plan miss."""
        db = Database(user_id="u")
        db.execute_script("""
            CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR,
                ward INT, age INT);
            CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, day INT,
                cost FLOAT);
            CREATE TABLE log (uid VARCHAR, pid INT)
        """)
        db.catalog.table("patients").bulk_load(
            [(pid, f"n{pid}", pid % 8, 20 + pid % 50) for pid in range(1, 501)]
        )
        db.catalog.table("visits").bulk_load(
            [(vid, 1 + vid % 500, vid % 365, vid / 4)
             for vid in range(1, 1001)]
        )
        db.execute_script("""
            CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients
                WHERE ward < 2 FOR SENSITIVE TABLE patients,
                PARTITION BY pid;
            CREATE TRIGGER t ON ACCESS TO aud AS
                INSERT INTO log SELECT user_id(), pid FROM accessed
        """)
        calls: list[str] = []
        lex = template.tokenize

        def counting(text):
            calls.append(text)
            return lex(text)

        monkeypatch.setattr(template, "tokenize", counting)
        template._shapes.clear()
        misses = db.plan_cache.stats()["misses"]
        rng = random.Random(29)
        for _ in range(1000):
            if rng.random() < 0.3:
                db.execute(
                    "SELECT p.name, v.day, v.cost FROM visits v, patients p "
                    f"WHERE v.pid = p.pid AND v.vid = {rng.randint(1, 1000)}"
                )
            else:
                db.execute("SELECT name, age FROM patients WHERE pid = "
                           f"{rng.randint(1, 500)}")
        misses = db.plan_cache.stats()["misses"] - misses
        assert len(calls) == misses
        assert misses < 20
        assert db.execute("SELECT COUNT(*) FROM log").rows[0][0] > 0
        db.close()

    def test_a_text_that_takes_the_lexer_is_lexed_once(self, monkeypatch):
        # a shape miss, and a text holding ``$``, keep their tokens for
        # parse(); only a shape-memo hit leaves parse() to lex
        calls: list[str] = []
        lex = template.tokenize
        monkeypatch.setattr(
            template, "tokenize", lambda text: calls.append(text) or lex(text)
        )
        template._shapes.clear()
        parsed = [
            statement_template(sql).parse()
            for sql in ("SELECT * FROM t WHERE a = '$5' AND b = 2",
                        "SELECT * FROM t WHERE a = 3 AND b = 2",
                        "SELECT * FROM t WHERE a = 4 AND b = 5")
        ]
        assert parsed[0] == parsed[1] == parsed[2]
        assert calls == [
            "SELECT * FROM t WHERE a = '$5' AND b = 2",
            "SELECT * FROM t WHERE a = 3 AND b = 2",
            "SELECT * FROM t WHERE a = 4 AND b = 5",
        ]
