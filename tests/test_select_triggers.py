"""Tests for SELECT triggers: ACCESSED state, actions, cascading (§II-C)."""

import datetime
import itertools

import pytest

from repro import Database
from repro.audit.placement import HEURISTIC_LEAF
from repro.errors import AccessDeniedError, ExecutionError, TriggerError
from repro.exec.operators.base import format_physical
from repro.optimizer.optimizer import Optimizer
from repro.plan.builder import PlanBuilder
from repro.plan.logical import format_plan
from repro.testing import CrashError, FaultInjector

from tests.test_durability import _audited_db


@pytest.fixture
def logged_db(patients_db):
    patients_db.execute(
        "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM patients "
        "WHERE name = 'Alice' FOR SENSITIVE TABLE patients, "
        "PARTITION BY patientid"
    )
    patients_db.execute(
        "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
        "INSERT INTO log SELECT cast_varchar(now()), user_id(), "
        "sql_text(), patientid FROM accessed"
    )
    return patients_db


class TestBasicFiring:
    def test_access_fires_trigger_and_logs(self, logged_db):
        query = "SELECT patientid, name FROM patients WHERE name = 'Alice'"
        logged_db.execute(query)
        log = logged_db.execute("SELECT uid, query, patientid FROM log")
        assert log.rows == [("admin", query, 1)]

    def test_non_access_does_not_fire(self, logged_db):
        logged_db.execute(
            "SELECT patientid FROM patients WHERE name = 'Bob'"
        )
        assert len(logged_db.execute("SELECT * FROM log")) == 0

    def test_subquery_access_fires(self, logged_db):
        """Example 1.2's second query still triggers the audit."""
        logged_db.execute(
            "SELECT 1 FROM disease WHERE EXISTS "
            "(SELECT * FROM patients p, disease d "
            "WHERE p.patientid = d.patientid AND name = 'Alice' "
            "AND disease = 'cancer')"
        )
        log = logged_db.execute("SELECT patientid FROM log")
        assert (1,) in log.rows

    def test_accessed_exposed_on_result(self, logged_db):
        result = logged_db.execute(
            "SELECT * FROM patients WHERE name = 'Alice'"
        )
        assert result.accessed == {"audit_alice": frozenset({1})}

    def test_trigger_requires_existing_expression(self, patients_db):
        from repro.errors import AuditError

        with pytest.raises(AuditError):
            patients_db.execute(
                "CREATE TRIGGER t ON ACCESS TO ghost AS "
                "INSERT INTO log SELECT patientid FROM accessed"
            )

    def test_drop_trigger_stops_firing(self, logged_db):
        logged_db.execute("DROP TRIGGER log_alice")
        logged_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        assert len(logged_db.execute("SELECT * FROM log")) == 0

    def test_audit_disabled_suppresses_accessed(self, logged_db):
        logged_db.audit_enabled = False
        result = logged_db.execute(
            "SELECT * FROM patients WHERE name = 'Alice'"
        )
        assert result.accessed == {}
        assert len(logged_db.execute("SELECT * FROM log")) == 0


class TestActionSemantics:
    def test_action_runs_even_when_query_aborts(self, logged_db):
        """§II: the action executes even if the query is aborted."""
        with pytest.raises(ExecutionError):
            # the division fires after rows have flowed past the audit op
            logged_db.execute(
                "SELECT 1 / (age - age) FROM patients WHERE name = 'Alice'"
            )
        log = logged_db.execute("SELECT patientid FROM log")
        assert log.rows == [(1,)]

    def test_action_sql_text_is_the_reading_query(self, logged_db):
        query = "SELECT zip FROM patients WHERE name = 'Alice'"
        logged_db.execute(query)
        assert logged_db.execute("SELECT query FROM log").rows == [(query,)]

    def test_action_join_with_other_tables(self, patients_db):
        """The paper's Log_Cancer_Dept_Accesses pattern (§II-C)."""
        patients_db.execute(
            "CREATE TABLE departments (patientid INT, deptid INT)"
        )
        patients_db.execute(
            "INSERT INTO departments VALUES (1, 100), (5, 200), (5, 100)"
        )
        patients_db.execute(
            "CREATE TABLE deptlog (uid VARCHAR, deptid INT)"
        )
        patients_db.execute(
            "CREATE AUDIT EXPRESSION audit_cancer AS "
            "SELECT p.* FROM patients p, disease d "
            "WHERE p.patientid = d.patientid AND disease = 'cancer' "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        patients_db.execute(
            "CREATE TRIGGER log_depts ON ACCESS TO audit_cancer AS "
            "INSERT INTO deptlog SELECT DISTINCT user_id(), d.deptid "
            "FROM accessed a, departments d WHERE a.patientid = d.patientid"
        )
        patients_db.execute("SELECT patientid FROM patients")
        rows = patients_db.execute(
            "SELECT deptid FROM deptlog ORDER BY deptid"
        ).rows
        assert rows == [(100,), (200,)]

    def test_multiple_triggers_on_same_expression(self, logged_db):
        logged_db.execute("CREATE TABLE log2 (patientid INT)")
        logged_db.execute(
            "CREATE TRIGGER log_alice2 ON ACCESS TO audit_alice AS "
            "INSERT INTO log2 SELECT patientid FROM accessed"
        )
        logged_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        assert len(logged_db.execute("SELECT * FROM log")) == 1
        assert len(logged_db.execute("SELECT * FROM log2")) == 1

    def test_notify_action(self, logged_db):
        logged_db.execute(
            "CREATE TRIGGER shout ON ACCESS TO audit_alice AS "
            "SEND EMAIL 'alice record accessed'"
        )
        logged_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        assert logged_db.notifications == ["alice record accessed"]

    def test_trigger_body_with_begin_end(self, logged_db):
        logged_db.execute("CREATE TABLE log3 (patientid INT)")
        logged_db.execute(
            "CREATE TRIGGER multi ON ACCESS TO audit_alice AS BEGIN "
            "INSERT INTO log3 SELECT patientid FROM accessed; "
            "NOTIFY 'two actions'; END"
        )
        logged_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        assert len(logged_db.execute("SELECT * FROM log3")) == 1
        assert "two actions" in logged_db.notifications


class TestCascading:
    def test_select_trigger_cascades_to_insert_trigger(self, logged_db):
        """The paper's Notify example: SELECT trigger -> AFTER INSERT."""
        logged_db.execute(
            "CREATE TRIGGER notify_many ON log AFTER INSERT AS "
            "IF (1 <= (SELECT COUNT(DISTINCT patientid) FROM log "
            "WHERE uid = new.uid)) SEND EMAIL 'threshold reached'"
        )
        logged_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        assert logged_db.notifications == ["threshold reached"]

    def test_cascade_depth_limit(self, db):
        db.execute("CREATE TABLE ping (n INT)")
        db.execute("CREATE TABLE pong (n INT)")
        db.execute(
            "CREATE TRIGGER t_ping ON ping AFTER INSERT AS "
            "INSERT INTO pong VALUES (1)"
        )
        db.execute(
            "CREATE TRIGGER t_pong ON pong AFTER INSERT AS "
            "INSERT INTO ping VALUES (1)"
        )
        with pytest.raises(TriggerError):
            db.execute("INSERT INTO ping VALUES (0)")

    def test_reserved_accessed_name(self, logged_db):
        logged_db.execute("CREATE TABLE accessed (x INT)")
        with pytest.raises(TriggerError):
            logged_db.execute(
                "SELECT * FROM patients WHERE name = 'Alice'"
            )


class TestRealtimeScenarios:
    def test_user_access_counting(self, patients_db):
        """Intro scenario 1: users reading many sensitive records."""
        patients_db.execute(
            "CREATE AUDIT EXPRESSION audit_flu AS "
            "SELECT p.* FROM patients p, disease d "
            "WHERE p.patientid = d.patientid AND disease = 'flu' "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        patients_db.execute(
            "CREATE TRIGGER count_flu ON ACCESS TO audit_flu AS "
            "INSERT INTO log SELECT cast_varchar(now()), user_id(), "
            "sql_text(), patientid FROM accessed"
        )
        patients_db.execute("SELECT * FROM patients")
        counts = patients_db.execute(
            "SELECT uid, COUNT(DISTINCT patientid) FROM log GROUP BY uid"
        )
        assert counts.rows == [("admin", 3)]

    def test_per_user_identity(self, patients_db):
        doctor = Database(user_id="dr_house")
        doctor.execute("CREATE TABLE t (a INT)")
        doctor.execute("INSERT INTO t VALUES (1)")
        doctor.execute("SELECT user_id() FROM t")
        assert doctor.execute("SELECT user_id()").rows == [("dr_house",)]


class TestNestedFiring:
    def test_body_that_reads_the_sensitive_table_is_refused(
        self, logged_db
    ):
        """A body whose SELECT discloses patients would fire its own
        trigger inside the firing; ``accessed`` is taken, so the nested
        firing raises instead of recursing or reading the outer IDs."""
        logged_db.execute("DROP TRIGGER log_alice")
        logged_db.execute(
            "CREATE TRIGGER log_names ON ACCESS TO audit_alice AS "
            "INSERT INTO log SELECT 'x', user_id(), p.name, a.patientid "
            "FROM accessed a, patients p WHERE a.patientid = p.patientid"
        )
        for _ in range(2):
            with pytest.raises(TriggerError, match="already exists"):
                logged_db.execute(
                    "SELECT name FROM patients WHERE name = 'Alice'"
                )
        assert logged_db.execute("SELECT * FROM log").rows == []
        assert not logged_db.catalog.has_table("accessed")


ALICE = "SELECT * FROM patients WHERE name = 'Alice'"


def _ticking_clock():
    """A clock that advances one second per reading."""
    start = datetime.datetime(2013, 4, 8, 12, 0, 0)
    ticks = itertools.count()
    return lambda: start + datetime.timedelta(seconds=next(ticks))


def _age_log(db: Database, rows: int = 200) -> None:
    """Pre-fill ``log`` so a few dozen firings stay in one statistics
    bucket (the epoch, and every cached plan, then holds)."""
    db.catalog.table("log").bulk_load(
        ("old", "old", "old", 0) for _ in range(rows)
    )


def _uncached(db: Database) -> None:
    """Make ``db`` compile every trigger-body SELECT afresh."""
    db.trigger_manager.firing.plan = lambda select, compile: compile()


@pytest.fixture
def built(monkeypatch):
    """Every statement ``PlanBuilder.build_select`` binds, in order."""
    statements = []
    build_select = PlanBuilder.build_select

    def counting(self, statement, *args, **kwargs):
        statements.append(statement)
        return build_select(self, statement, *args, **kwargs)

    monkeypatch.setattr(PlanBuilder, "build_select", counting)
    return statements


def _body_builds(db, built, trigger="log_alice", index=0) -> int:
    select = db.catalog.trigger(trigger).body[index].select
    return sum(statement is select for statement in built)


class TestCompiledBodies:
    """Each SELECT-trigger body statement compiles once per world."""

    def test_forty_firings_compile_the_body_once(
        self, logged_db, built, monkeypatch
    ):
        compiled = []
        compile_plan = Optimizer.compile

        def counting(self, plan):
            compiled.append(plan)
            return compile_plan(self, plan)

        monkeypatch.setattr(Optimizer, "compile", counting)
        _age_log(logged_db)
        for _ in range(40):
            logged_db.execute(ALICE)
        assert _body_builds(logged_db, built) == 1
        # the user statement and the body, once each
        assert len(built) == 2 and len(compiled) == 2
        logged = logged_db.execute(
            "SELECT patientid FROM log WHERE ts <> 'old'"
        )
        assert logged.rows == [(1,)] * 40

    def test_interleaved_users_log_what_fresh_compiles_log(self):
        statements = (
            "SELECT name FROM patients WHERE patientid = 1",
            "SELECT name FROM patients WHERE age > 30",
            "SELECT name FROM patients WHERE zip = '98102'",
        )
        logs = []
        for cached in (True, False):
            db = Database(clock=_ticking_clock())
            db.execute_script(
                "CREATE TABLE patients (patientid INT PRIMARY KEY, "
                "name VARCHAR, age INT, zip VARCHAR);"
                "CREATE TABLE log (ts VARCHAR, uid VARCHAR, query VARCHAR, "
                "patientid INT);"
                "CREATE TABLE log2 (patientid INT, uid VARCHAR);"
                "INSERT INTO patients VALUES (1, 'Alice', 40, '98101'), "
                "(2, 'Bob', 25, '98102'), (3, 'Carol', 33, '98101'), "
                "(4, 'Dave', 58, '98103'), (5, 'Erin', 47, '98102');"
                "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
                "FOR SENSITIVE TABLE patients, PARTITION BY patientid;"
                "CREATE TRIGGER log_all ON ACCESS TO audit_all AS BEGIN "
                "INSERT INTO log SELECT cast_varchar(now()), user_id(), "
                "sql_text(), patientid FROM accessed; "
                "INSERT INTO log2 SELECT patientid, user_id() FROM accessed; "
                "END"
            )
            if not cached:
                _uncached(db)
            for step in range(12):
                db.session.user_id = ("alice", "bob")[step % 2]
                db.execute(statements[step % 3])
            logs.append((
                db.execute("SELECT * FROM log").rows_list(),
                db.execute("SELECT * FROM log2").rows_list(),
            ))
        assert logs[0] == logs[1]
        log, log2 = logs[0]
        assert len(log) == len(log2) == 4 * (1 + 4 + 2)
        assert len({row[0] for row in log}) == len(log)  # now() ticked
        assert {(row[1], row[2]) for row in log} == {
            (("alice", "bob")[step % 2], statements[step % 3])
            for step in range(12)
        }

    RECOMPILE_AFTER = {
        "create_index": lambda db: db.execute(
            "CREATE INDEX patients_age ON patients (age)"
        ),
        "log_bucket": lambda db: _age_log(db, 300),
        "heuristic": lambda db: setattr(
            db.audit_manager, "heuristic", HEURISTIC_LEAF
        ),
        "audit_off": lambda db: setattr(db, "audit_enabled", False),
        "new_body": lambda db: db.execute_script(
            "DROP TRIGGER log_alice;"
            "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
            "INSERT INTO log SELECT 'v2', user_id(), sql_text(), "
            "patientid FROM accessed"
        ),
    }

    @pytest.mark.parametrize("event", sorted(RECOMPILE_AFTER))
    def test_body_recompiles_after(self, event, logged_db, built):
        _age_log(logged_db)

        def fire():
            # the replica-forwarded path fires with audit_enabled off too
            logged_db.apply_forwarded_intent(
                {"audit_alice": frozenset({1})}, ALICE, "admin"
            )

        fire()
        fire()
        assert _body_builds(logged_db, built) == 1
        self.RECOMPILE_AFTER[event](logged_db)
        fire()
        fire()
        assert _body_builds(logged_db, built) == (
            1 if event == "new_body" else 2
        )
        stamps = logged_db.execute(
            "SELECT ts FROM log WHERE patientid = 1"
        ).column()
        assert len(stamps) == 4
        assert (stamps.count("v2") == 2) == (event == "new_body")

    def test_accessed_size_bucket_picks_the_plan(self, logged_db, built):
        """A plan costed for one ID never serves a firing of many."""
        _age_log(logged_db)
        for ids in ({1}, {1, 2, 3, 4, 5}, {2}, {2, 3, 4, 5}, {1, 2, 3}):
            logged_db.apply_forwarded_intent(
                {"audit_alice": frozenset(ids)}, ALICE, "admin"
            )
        # buckets 1, 3 and 2 (len(ids).bit_length()), compiled once each
        assert _body_builds(logged_db, built) == 3
        assert logged_db.execute(
            "SELECT COUNT(*) FROM log WHERE ts <> 'old'"
        ).scalar() == 1 + 5 + 1 + 4 + 3

    def test_before_deny_still_denies(self, logged_db, built):
        logged_db.execute(
            "CREATE TRIGGER gate ON ACCESS TO audit_alice BEFORE AS BEGIN "
            "INSERT INTO log SELECT 'gate', user_id(), sql_text(), "
            "patientid FROM accessed; DENY 'restricted'; END"
        )
        _age_log(logged_db)
        for _ in range(5):
            with pytest.raises(AccessDeniedError, match="restricted"):
                logged_db.execute(ALICE)
        assert _body_builds(logged_db, built, "gate") == 1
        assert logged_db.execute(
            "SELECT COUNT(*) FROM log WHERE ts = 'gate'"
        ).scalar() == 5

    def test_cached_instrumented_plan_equals_a_fresh_compile(
        self, patients_db
    ):
        db = patients_db
        # the body reads disease, itself audited (with no trigger of its
        # own), so the body plan carries an audit operator
        db.execute_script(
            "CREATE AUDIT EXPRESSION audit_alice AS SELECT * FROM "
            "patients WHERE name = 'Alice' FOR SENSITIVE TABLE "
            "patients, PARTITION BY patientid;"
            "CREATE AUDIT EXPRESSION audit_cancer AS SELECT * FROM "
            "disease WHERE disease = 'cancer' FOR SENSITIVE TABLE "
            "disease, PARTITION BY patientid;"
            "CREATE TRIGGER log_alice ON ACCESS TO audit_alice AS "
            "INSERT INTO log SELECT d.disease, user_id(), sql_text(), "
            "a.patientid FROM accessed a, disease d "
            "WHERE a.patientid = d.patientid"
        )
        _age_log(db)
        body = db.catalog.trigger("log_alice").body[0].select
        served = []

        def record_bodies():
            plan = db.trigger_manager.firing.plan

            def recording(select, compile):
                entry = plan(select, compile)
                if select is body:
                    served.append(entry)
                return entry

            db.trigger_manager.firing.plan = recording

        record_bodies()
        for _ in range(3):
            db.execute(ALICE)
        _uncached(db)
        record_bodies()
        db.execute(ALICE)
        assert served[0] is served[1] is served[2]
        cached, fresh = served[2], served[3]
        assert fresh is not cached
        assert "Audit" in format_plan(cached.logical)
        assert format_plan(cached.logical) == format_plan(fresh.logical)
        assert format_physical(cached.physical) == format_physical(
            fresh.physical
        )
        assert cached.column_names == fresh.column_names

    def test_recovery_and_forwarded_intents_log_like_a_live_run(
        self, tmp_path
    ):
        workload = [
            ("alice", "SELECT * FROM patients WHERE patientid = 1"),
            ("bob", "SELECT * FROM patients WHERE patientid <= 2"),
            ("alice", "SELECT name FROM patients WHERE patientid = 3"),
            ("bob", "SELECT * FROM patients WHERE patientid = 1"),
            ("carol", "SELECT * FROM patients WHERE patientid >= 2"),
            ("alice", "SELECT * FROM patients WHERE patientid <= 2"),
        ]
        clock = lambda: datetime.datetime(2013, 4, 8)  # noqa: E731

        live = _audited_db(clock=clock)
        disclosures = []
        for user, sql in workload:
            live.session.user_id = user
            disclosures.append((live.execute(sql).accessed, sql, user))
        expected = live.execute("SELECT * FROM log").rows_list()

        faults = FaultInjector()
        faults.arm("trigger-action", error=CrashError, repeat=True)
        crashed = _audited_db(
            clock=clock, journal_path=tmp_path / "j", fault_injector=faults
        )
        for user, sql in workload:
            crashed.session.user_id = user
            with pytest.raises(CrashError):
                crashed.execute(sql)
        recovered = _audited_db(clock=clock)
        assert recovered.recover(tmp_path / "j").replayed == len(workload)

        primary = _audited_db(clock=clock)
        for accessed, sql, user in disclosures:
            primary.apply_forwarded_intent(accessed, sql, user)
        for db in (recovered, primary):
            assert db.execute("SELECT * FROM log").rows_list() == expected
        assert len(expected) == 1 + 2 + 1 + 1 + 2 + 2
