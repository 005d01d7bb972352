"""Property-based sharded-vs-single-node differential (hypothesis).

Drives a random statement mix — SELECTs (armed and unarmed, SPJ /
aggregate / ORDER BY / DISTINCT) interleaved with INSERT / UPDATE /
DELETE — through a ``ClusterDatabase`` and a plain ``Database`` under
every execution mode, and asserts the observable surfaces coincide:

* query results (exact lists under a total ORDER BY, multisets else);
* per-query ACCESSED sets;
* the trigger-written audit log (firings + per-user attribution);
* final table contents.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterDatabase
from repro.database import Database
from repro.errors import ReproError

# max_examples comes from the hypothesis profile: 100 in tier-1, 1 000
# under scripts/ci_smoke.sh's --hypothesis-profile=ci
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CLOCK = lambda: datetime.datetime(2013, 4, 8, 12, 0, 0)  # noqa: E731

SCHEMA = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, disease VARCHAR,
                       age INT);
CREATE TABLE audit_log (uid VARCHAR, pid INT);
CREATE AUDIT EXPRESSION sick AS SELECT pid FROM patients
    WHERE disease = 'flu' FOR SENSITIVE TABLE patients, PARTITION BY pid;
CREATE TRIGGER log_access ON ACCESS TO sick AS
    INSERT INTO audit_log SELECT user_id(), pid FROM accessed;
"""

diseases = st.sampled_from(["flu", "cold", "cough"])
ages = st.integers(min_value=1, max_value=80)
users = st.sampled_from(["alice", "bob", "carol"])

initial_rows = st.lists(st.tuples(diseases, ages), min_size=0, max_size=10)

selects = st.sampled_from([
    ("SELECT name FROM patients WHERE disease = 'flu'", False),
    ("SELECT pid, age FROM patients WHERE age > 30", False),
    ("SELECT COUNT(*) FROM patients", False),
    ("SELECT disease, COUNT(*), MAX(age) FROM patients GROUP BY disease",
     False),
    ("SELECT AVG(age) FROM patients WHERE disease <> 'cold'", False),
    ("SELECT pid, name FROM patients ORDER BY age DESC, pid", True),
    ("SELECT pid FROM patients WHERE disease = 'flu' ORDER BY pid LIMIT 3",
     True),
    ("SELECT DISTINCT disease FROM patients", False),
])

inserts = st.builds(
    lambda pid, disease, age:
        (f"INSERT INTO patients VALUES ({100 + pid}, 'n{pid}', "
         f"'{disease}', {age})", None),
    st.integers(min_value=0, max_value=30),
    diseases,
    ages,
)
updates = st.builds(
    lambda bound, disease:
        (f"UPDATE patients SET age = age + 1 "
         f"WHERE age < {bound} AND disease = '{disease}'", None),
    st.integers(min_value=5, max_value=60),
    diseases,
)
deletes = st.builds(
    lambda bound: (f"DELETE FROM patients WHERE age > {bound}", None),
    st.integers(min_value=40, max_value=90),
)

statements = st.lists(
    st.tuples(users, st.one_of(selects, inserts, updates, deletes)),
    min_size=1,
    max_size=12,
)


def _build(factory, rows):
    db = factory()
    db.execute_script(SCHEMA)
    for index, (disease, age) in enumerate(rows):
        db.execute(
            f"INSERT INTO patients VALUES ({index}, 'p{index}', "
            f"'{disease}', {age})"
        )
    return db


@given(rows=initial_rows, mix=statements)
@_SETTINGS
def test_random_mix_differential(rows, mix) -> None:
    single = _build(lambda: Database(clock=_CLOCK), rows)
    cluster = _build(
        lambda: ClusterDatabase(shards=3, clock=_CLOCK), rows
    )
    try:
        for user, (sql, ordered) in mix:
            single.session.user_id = user
            cluster.session.user_id = user
            lhs = rhs = None
            lhs_error = rhs_error = None
            try:
                lhs = single.execute(sql)
            except ReproError as error:
                lhs_error = error
            try:
                rhs = cluster.execute(sql)
            except ReproError as error:
                rhs_error = error
            # both engines must fail the same way (e.g. duplicate PK)
            assert type(lhs_error) is type(rhs_error), (
                sql, lhs_error, rhs_error
            )
            if lhs is None:
                continue
            if ordered:
                assert lhs.rows_list() == rhs.rows_list(), sql
            else:
                assert sorted(lhs.rows_list(), key=repr) == sorted(
                    rhs.rows_list(), key=repr
                ), sql
            assert lhs.accessed == rhs.accessed, sql
            assert lhs.rowcount == rhs.rowcount, sql
        # merged audit log: same firings, same attribution
        log = "SELECT uid, pid FROM audit_log"
        assert sorted(single.execute(log).rows_list()) == sorted(
            cluster.execute(log).rows_list()
        )
        # final state converged
        state = "SELECT pid, name, disease, age FROM patients"
        assert sorted(single.execute(state).rows_list()) == sorted(
            cluster.execute(state).rows_list()
        )
    finally:
        single.close()
        cluster.close()
