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
        assert cache.lookup("q0", (0,)) is None  # evicted
        assert cache.lookup("q2", (0,)) is not None

    def test_stale_tags_drop_the_entry(self):
        cache = PlanCache()
        from repro.plancache import CachedPlan

        cache.store(
            CachedPlan(
                sql="q", column_names=(), logical=None, physical=None,
                tags=(1,),
            )
        )
        assert cache.lookup("q", (2,)) is None
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
