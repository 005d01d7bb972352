"""Audit-aware plan cache: hit behavior and invalidation triggers.

The cache must serve warm hits without touching the parser or planner, and
must never serve a plan compiled under a different world: DDL, audit
expression changes, trigger changes, knob flips, and fresh statistics all
invalidate; plain DML does not (plans stay valid, the ID views are
maintained in place).
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import SqlSyntaxError
from repro.plancache import PlanCache


QUERY = "SELECT * FROM patients WHERE age > 30"


def make_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE patients (patientid INT PRIMARY KEY, "
        "name VARCHAR, age INT, zip VARCHAR)"
    )
    db.execute("INSERT INTO patients VALUES (1, 'Alice', 40, '11111')")
    db.execute("INSERT INTO patients VALUES (2, 'Bob', 20, '22222')")
    return db


class TestWarmHits:
    def test_repeated_query_hits(self):
        db = make_db()
        first = db.execute(QUERY)
        assert db.plan_cache.hits == 0
        second = db.execute(QUERY)
        assert db.plan_cache.hits == 1
        assert first.rows == second.rows
        assert first.columns == second.columns

    def test_warm_hit_skips_the_parser(self, monkeypatch):
        import repro.database as database_module

        db = make_db()
        db.execute(QUERY)

        def refuse(sql):
            raise AssertionError("parser invoked on a warm cache hit")

        monkeypatch.setattr(database_module, "parse_statement", refuse)
        result = db.execute(QUERY)
        assert result.rows == [(1, "Alice", 40, "11111")]
        assert db.plan_cache.hits == 1

    def test_parameters_vary_across_hits(self):
        db = make_db()
        sql = "SELECT name FROM patients WHERE age > :cutoff"
        assert db.execute(sql, {"cutoff": 30}).rows == [("Alice",)]
        assert db.execute(sql, {"cutoff": 10}).rows == [
            ("Alice",), ("Bob",)
        ]
        assert db.plan_cache.hits == 1

    def test_dml_does_not_invalidate(self):
        db = make_db()
        db.execute(QUERY)
        db.execute("INSERT INTO patients VALUES (3, 'Carol', 50, '33333')")
        result = db.execute(QUERY)
        assert db.plan_cache.hits == 1  # cached plan served
        assert ("Carol" in {row[1] for row in result.rows})


class TestInvalidation:
    def _prime(self, db: Database) -> None:
        db.execute(QUERY)
        assert len(db.plan_cache) >= 1

    def test_create_table_invalidates(self):
        db = make_db()
        self._prime(db)
        db.execute("CREATE TABLE other (k INT PRIMARY KEY)")
        db.execute(QUERY)
        assert db.plan_cache.invalidations >= 1
        assert db.plan_cache.hits == 0

    def test_create_index_invalidates(self):
        db = make_db()
        self._prime(db)
        db.execute("CREATE INDEX patients_age ON patients (age)")
        db.execute(QUERY)
        assert db.plan_cache.invalidations >= 1

    def test_create_audit_expression_reinstruments(self):
        db = make_db()
        before = db.execute(QUERY)
        assert before.accessed == {}
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        after = db.execute(QUERY)
        # a stale uninstrumented plan would record no accesses at all
        assert after.accessed.get("audit_all") == frozenset({1})
        assert db.plan_cache.invalidations >= 1

    def test_drop_audit_expression_deinstruments(self):
        db = make_db()
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        assert db.execute(QUERY).accessed != {}
        db.execute("DROP AUDIT EXPRESSION audit_all")
        assert db.execute(QUERY).accessed == {}

    def test_trigger_change_invalidates(self):
        db = make_db()
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        self._prime(db)
        invalidations = db.plan_cache.invalidations
        db.execute(
            "CREATE TRIGGER note ON ACCESS TO audit_all AS NOTIFY 'seen'"
        )
        db.execute(QUERY)
        assert db.plan_cache.invalidations > invalidations
        assert db.notifications  # the new trigger fired

    def test_analyze_clears(self):
        db = make_db()
        self._prime(db)
        db.execute("ANALYZE")
        assert len(db.plan_cache) == 0
        db.execute(QUERY)
        assert db.plan_cache.hits == 0

    def test_audit_enabled_flip_invalidates(self):
        db = make_db()
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        assert db.execute(QUERY).accessed != {}
        db.audit_enabled = False
        assert db.execute(QUERY).accessed == {}
        db.audit_enabled = True
        assert db.execute(QUERY).accessed != {}


class TestScopeRules:
    def test_trigger_body_selects_are_not_cached(self):
        db = make_db()
        db.execute("CREATE TABLE log (message VARCHAR)")
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        db.execute(
            "CREATE TRIGGER log_access ON ACCESS TO audit_all AS "
            "INSERT INTO log SELECT sql_text() FROM accessed"
        )
        entries_before = len(db.plan_cache)
        db.execute(QUERY)
        # only the top-level SELECT was cached, not the trigger-body one
        assert len(db.plan_cache) == entries_before + 1
        assert db.execute("SELECT COUNT(*) FROM log").scalar() >= 1


POINT = "SELECT name, age FROM patients WHERE patientid = {}"


class TestStatementTemplates:
    """Inlined ``column = literal`` values are plan-cache parameters."""

    def test_point_lookups_compile_once(self, monkeypatch):
        """Work-count guard: a stream of lookups with distinct inlined keys
        builds, rewrites, places and compiles one plan, then only hits."""
        from repro.plan.builder import PlanBuilder

        db = make_db()
        builds = []
        build_select = PlanBuilder.build_select

        def counting_build_select(self, *args, **kwargs):
            builds.append(args)
            return build_select(self, *args, **kwargs)

        monkeypatch.setattr(PlanBuilder, "build_select", counting_build_select)
        before = db.plan_cache.stats()
        for key in range(1, 41):
            expected = {1: [("Alice", 40)], 2: [("Bob", 20)]}.get(key, [])
            assert db.execute(POINT.format(key)).rows == expected
        after = db.plan_cache.stats()
        assert len(builds) == 1
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 39

    def test_hit_skips_the_parser(self, monkeypatch):
        from repro.sql import template as template_module

        db = make_db()
        db.execute(POINT.format(1))

        def refuse(*args):
            raise AssertionError("parser invoked on a templated hit")

        monkeypatch.setattr(template_module, "parse_tokens", refuse)
        assert db.execute(POINT.format(2)).rows == [("Bob", 20)]

    def test_parameterized_hit_skips_the_lexer(self, monkeypatch):
        from repro.sql import template as template_module

        db = make_db()
        sql = "SELECT name FROM patients WHERE patientid = :pid"
        db.execute(sql, {"pid": 1})

        def refuse(*args):
            raise AssertionError("lexer invoked on a parameterized hit")

        monkeypatch.setattr(template_module, "tokenize", refuse)
        assert db.execute(sql, {"pid": 2}).rows == [("Bob",)]

    def test_lifted_values_and_written_parameters_mix(self):
        db = make_db()
        sql = "SELECT name FROM patients WHERE zip = '{}' AND age > :cutoff"
        assert db.execute(sql.format("11111"), {"cutoff": 30}).rows == [
            ("Alice",)
        ]
        assert db.execute(sql.format("22222"), {"cutoff": 30}).rows == []
        assert db.execute(sql.format("22222"), {"cutoff": 10}).rows == [
            ("Bob",)
        ]
        assert db.plan_cache.hits == 2

    def test_equal_literals_still_match_across_clauses(self):
        db = make_db()
        sql = (
            "SELECT zip = '11111', COUNT(*) FROM patients "
            "GROUP BY zip = '11111' ORDER BY 1"
        )
        assert db.execute(sql).rows == [(False, 1), (True, 1)]
        # the select-list 40 cannot be lifted (IS follows it), so the
        # GROUP BY 40 stays a literal too and the two still match
        sql = (
            "SELECT age = 40 IS NULL, COUNT(*) FROM patients "
            "GROUP BY age = 40"
        )
        assert db.execute(sql).rows == [(False, 1), (False, 1)]

    def test_written_dollar_names_never_reach_a_template_entry(self):
        db = make_db()
        db.execute(POINT.format(7))
        for parameters in (None, {"$0": 1}):
            with pytest.raises(SqlSyntaxError):
                db.execute(POINT.format("$0"), parameters)

    def test_accessed_and_trigger_text_follow_the_written_statement(self):
        db = make_db()
        db.execute("CREATE TABLE log (query VARCHAR, pid INT)")
        # pre-aged, so two more rows keep the statistics epoch (and the
        # cached plan) where they are
        db.catalog.table("log").bulk_load(("old", 0) for _ in range(100))
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        db.execute(
            "CREATE TRIGGER log_access ON ACCESS TO audit_all AS "
            "INSERT INTO log SELECT sql_text(), patientid FROM accessed"
        )
        for key in (1, 2, 3):
            result = db.execute(POINT.format(key))
            assert result.accessed == (
                {"audit_all": frozenset({key})} if key < 3 else {}
            )
        assert db.plan_cache.hits == 2
        logged = db.execute("SELECT query, pid FROM log WHERE pid > 0").rows
        assert sorted(logged) == [(POINT.format(1), 1), (POINT.format(2), 2)]


class TestLruBehavior:
    def test_capacity_evicts_oldest(self):
        cache = PlanCache(capacity=2)
        from repro.plancache import CachedPlan

        for index in range(3):
            cache.store(
                CachedPlan(
                    sql=f"q{index}", column_names=(), logical=None,
                    physical=None, tags=(0,),
                )
            )
        assert len(cache) == 2
        assert cache.match("q0", (0,))[1] is None  # evicted
        assert cache.match("q2", (0,))[1] is not None

    def test_stale_tags_drop_the_entry(self):
        cache = PlanCache()
        from repro.plancache import CachedPlan

        cache.store(
            CachedPlan(
                sql="q", column_names=(), logical=None, physical=None,
                tags=(1,),
            )
        )
        assert cache.match("q", (2,))[1] is None
        assert cache.invalidations == 1
        assert len(cache) == 0


class TestOfflineAuditorReuse:
    def test_repeat_audits_reuse_the_compiled_plan(self):
        from repro import OfflineAuditor

        db = make_db()
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        auditor = OfflineAuditor(db)
        first = auditor.audit(QUERY, "audit_all")
        assert auditor.plan_cache_misses == 1
        second = auditor.audit(QUERY, "audit_all")
        assert auditor.plan_cache_hits == 1
        assert first == second == {1}

    def test_reuse_sees_fresh_data(self):
        from repro import OfflineAuditor

        db = make_db()
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        auditor = OfflineAuditor(db)
        assert auditor.audit(QUERY, "audit_all") == {1}
        db.execute("INSERT INTO patients VALUES (3, 'Carol', 70, '33333')")
        assert auditor.audit(QUERY, "audit_all") == {1, 3}
        assert auditor.plan_cache_hits == 1

    def test_ddl_recompiles(self):
        from repro import OfflineAuditor

        db = make_db()
        db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        auditor = OfflineAuditor(db)
        auditor.audit(QUERY, "audit_all")
        db.execute("CREATE INDEX patients_age ON patients (age)")
        assert auditor.audit(QUERY, "audit_all") == {1}
        assert auditor.plan_cache_misses == 2
