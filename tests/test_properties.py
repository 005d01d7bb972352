"""Property-based tests (hypothesis) for the paper's formal claims.

* Claim 3.5 / 3.6: leaf-node and hcn placements never produce false
  negatives against the deletion-based ground truth;
* Theorem 3.7: for select-join queries, hcn has zero false positives;
* audit operators are no-ops: instrumented and plain execution agree;
* the optimizer's rewrites preserve results (canonical plan vs optimized);
* ID-view incremental maintenance agrees with full re-materialization.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, HEURISTIC_HCN, HEURISTIC_LEAF, OfflineAuditor

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

names = st.sampled_from(["Alice", "Bob", "Carol", "Dave", "Eve"])
zips = st.sampled_from(["11111", "22222", "33333"])
ages = st.one_of(st.none(), st.integers(min_value=1, max_value=90))
diseases = st.sampled_from(["flu", "cancer", "diabetes"])

patient_rows = st.lists(
    st.tuples(names, ages, zips), min_size=0, max_size=12
)
disease_rows = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), diseases),
    min_size=0,
    max_size=15,
)


def build_db(patients, sick, block_size=None, audit_where="") -> Database:
    db = Database()
    if block_size is not None:
        db.block_size = block_size
    db.execute(
        "CREATE TABLE patients (patientid INT PRIMARY KEY, "
        "name VARCHAR, age INT, zip VARCHAR)"
    )
    db.execute("CREATE TABLE disease (patientid INT, disease VARCHAR)")
    for index, (name, age, zip_code) in enumerate(patients, start=1):
        age_sql = "NULL" if age is None else str(age)
        db.execute(
            f"INSERT INTO patients VALUES ({index}, '{name}', {age_sql}, "
            f"'{zip_code}')"
        )
    for patient_id, disease in sick:
        if patient_id <= len(patients):
            db.execute(
                f"INSERT INTO disease VALUES ({patient_id}, '{disease}')"
            )
    db.execute(
        f"CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
        f"{audit_where} FOR SENSITIVE TABLE patients, PARTITION BY patientid"
    )
    return db


predicates = st.sampled_from([
    "",
    "age > 30",
    "age <= 50",
    "zip = '11111'",
    "name LIKE 'A%'",
    "age IS NOT NULL",
    "age > 20 AND zip <> '33333'",
])

sj_queries = st.builds(
    lambda pred, join: (
        "SELECT * FROM patients p"
        + (", disease d" if join else "")
        + " WHERE 1 = 1"
        + (" AND p.patientid = d.patientid" if join else "")
        + (f" AND {pred}" if pred else "")
    ),
    predicates,
    st.booleans(),
)

complex_queries = st.sampled_from([
    "SELECT zip, COUNT(*) FROM patients GROUP BY zip",
    "SELECT zip, COUNT(*) FROM patients GROUP BY zip "
    "HAVING COUNT(*) >= 2",
    "SELECT name FROM patients ORDER BY age LIMIT 3",
    "SELECT DISTINCT zip FROM patients",
    "SELECT p.name FROM patients p WHERE EXISTS "
    "(SELECT 1 FROM disease d WHERE d.patientid = p.patientid)",
    "SELECT name FROM patients WHERE patientid IN "
    "(SELECT patientid FROM disease WHERE disease = 'flu')",
    "SELECT d.disease, COUNT(*) FROM patients p, disease d "
    "WHERE p.patientid = d.patientid GROUP BY d.disease "
    "HAVING COUNT(*) >= 2",
    "SELECT name FROM patients WHERE age > "
    "(SELECT AVG(age) FROM patients)",
])


class TestNoFalseNegatives:
    """Claims 3.5 and 3.6 against the deletion-based ground truth."""

    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows, query=sj_queries)
    def test_sj_queries_hcn(self, patients, sick, query):
        db = build_db(patients, sick)
        truth = OfflineAuditor(db).audit(query, "audit_all")
        online = db.execute(query).accessed.get("audit_all", frozenset())
        assert truth <= online

    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows, query=complex_queries)
    def test_complex_queries_hcn(self, patients, sick, query):
        db = build_db(patients, sick)
        truth = OfflineAuditor(db).audit(query, "audit_all")
        online = db.execute(query).accessed.get("audit_all", frozenset())
        assert truth <= online

    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows, query=complex_queries)
    def test_complex_queries_leaf(self, patients, sick, query):
        db = build_db(patients, sick)
        db.audit_manager.heuristic = HEURISTIC_LEAF
        truth = OfflineAuditor(db).audit(query, "audit_all")
        online = db.execute(query).accessed.get("audit_all", frozenset())
        assert truth <= online


class TestSjExactness:
    """Theorem 3.7: zero false positives for select-join queries."""

    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows, query=sj_queries)
    def test_hcn_equals_offline_for_sj(self, patients, sick, query):
        db = build_db(patients, sick)
        truth = OfflineAuditor(db).audit(query, "audit_all")
        online = db.execute(query).accessed.get("audit_all", frozenset())
        assert online == truth


class TestAuditOperatorIsNoOp:
    @_SETTINGS
    @given(
        patients=patient_rows,
        sick=disease_rows,
        query=st.one_of(sj_queries, complex_queries),
    )
    def test_instrumented_equals_plain(self, patients, sick, query):
        db = build_db(patients, sick)
        instrumented = db.execute(query)
        db.audit_enabled = False
        plain = db.execute(query)
        assert sorted(map(repr, instrumented.rows)) == \
            sorted(map(repr, plain.rows))

    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows, query=complex_queries)
    def test_hcn_subset_of_leaf(self, patients, sick, query):
        db = build_db(patients, sick)
        hcn = db.execute(query).accessed.get("audit_all", frozenset())
        db.audit_manager.heuristic = HEURISTIC_LEAF
        leaf = db.execute(query).accessed.get("audit_all", frozenset())
        assert hcn <= leaf


class TestRewritePreservesResults:
    @_SETTINGS
    @given(
        patients=patient_rows,
        sick=disease_rows,
        query=st.one_of(sj_queries, complex_queries),
    )
    def test_optimized_equals_canonical(self, patients, sick, query):
        from repro.optimizer.physical import PhysicalPlanner
        from repro.sql.parser import parse_statement

        db = build_db(patients, sick)
        statement = parse_statement(query)
        canonical = db._builder.build_select(statement)
        planner = PhysicalPlanner(
            db.catalog, db.audit_manager.resolve_view
        )
        raw = db.run_physical(planner.compile(canonical)).rows
        optimized = db.run_physical(
            planner.compile(db._optimizer.optimize_logical(canonical))
        ).rows
        assert sorted(map(repr, raw)) == sorted(map(repr, optimized))


class TestPhysicalChoicesPreserveSemantics:
    """Join strategy and join order are pure performance knobs."""

    @_SETTINGS
    @given(
        patients=patient_rows,
        sick=disease_rows,
        query=st.one_of(sj_queries, complex_queries),
        strategy=st.sampled_from(["hash", "index-nl", "auto"]),
    )
    def test_join_strategy_equivalence(self, patients, sick, query, strategy):
        db = build_db(patients, sick)
        db.join_strategy = "hash"
        baseline = db.execute(query)
        db.join_strategy = strategy
        variant = db.execute(query)
        assert sorted(map(repr, baseline.rows)) == \
            sorted(map(repr, variant.rows))
        # audit cardinality is independent of the physical operators (§III)
        assert baseline.accessed == variant.accessed

    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows, query=sj_queries)
    def test_join_reorder_equivalence(self, patients, sick, query):
        db = build_db(patients, sick)
        with_reorder = db.execute(query)
        db._optimizer.join_reorder = False
        without = db.execute(query)
        assert sorted(map(repr, with_reorder.rows)) == \
            sorted(map(repr, without.rows))
        assert with_reorder.accessed == without.accessed


class TestIdViewMaintenance:
    operations = st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(min_value=1, max_value=15),
            names,
        ),
        max_size=12,
    )

    @_SETTINGS
    @given(patients=patient_rows, ops=operations)
    def test_incremental_equals_refresh(self, patients, ops):
        db = build_db(patients, [])
        db.execute(
            "CREATE AUDIT EXPRESSION audit_alice AS "
            "SELECT * FROM patients WHERE name = 'Alice' "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        next_id = len(patients) + 1
        for action, key, name in ops:
            if action == "insert":
                db.execute(
                    f"INSERT INTO patients VALUES ({next_id}, '{name}', "
                    f"30, '11111')"
                )
                next_id += 1
            elif action == "delete":
                db.execute(f"DELETE FROM patients WHERE patientid = {key}")
            else:
                db.execute(
                    f"UPDATE patients SET name = '{name}' "
                    f"WHERE patientid = {key}"
                )
        view = db.audit_manager.view("audit_alice")
        incremental = view.ids()
        view.refresh()
        assert view.ids() == incremental


class TestTransactionRollback:
    operations = st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(min_value=1, max_value=20),
            ages,
        ),
        max_size=15,
    )

    @_SETTINGS
    @given(patients=patient_rows, ops=operations)
    def test_rollback_restores_exact_state(self, patients, ops):
        """BEGIN + arbitrary DML + ROLLBACK is a no-op on table contents,
        indexes, and materialized audit views."""
        db = build_db(patients, [])
        snapshot = sorted(db.execute("SELECT * FROM patients").rows)
        view = db.audit_manager.view("audit_all")
        view_snapshot = view.ids()
        next_id = 100
        db.execute("BEGIN")
        for action, key, age in ops:
            age_sql = "NULL" if age is None else str(age)
            try:
                if action == "insert":
                    db.execute(
                        f"INSERT INTO patients VALUES ({next_id}, 'Zed', "
                        f"{age_sql}, '99999')"
                    )
                    next_id += 1
                elif action == "delete":
                    db.execute(
                        f"DELETE FROM patients WHERE patientid = {key}"
                    )
                else:
                    db.execute(
                        f"UPDATE patients SET age = {age_sql} "
                        f"WHERE patientid = {key}"
                    )
            except Exception:
                pass  # statement-level rollback already ran
        db.execute("ROLLBACK")
        assert sorted(db.execute("SELECT * FROM patients").rows) == snapshot
        assert view.ids() == view_snapshot
        # the PK index survived: point lookups still work
        if snapshot:
            first_id = snapshot[0][0]
            assert db.execute(
                f"SELECT COUNT(*) FROM patients WHERE patientid = {first_id}"
            ).scalar() == 1


class TestTopK:
    @_SETTINGS
    @given(
        values=st.lists(
            st.one_of(st.none(), st.integers(-50, 50)), max_size=30
        ),
        k=st.integers(min_value=0, max_value=10),
        descending=st.booleans(),
    )
    def test_topk_equals_sorted_prefix(self, values, k, descending):
        db = Database()
        db.execute("CREATE TABLE t (v INT)")
        for value in values:
            db.execute(
                f"INSERT INTO t VALUES "
                f"({'NULL' if value is None else value})"
            )
        direction = "DESC" if descending else "ASC"
        top = db.execute(
            f"SELECT v FROM t ORDER BY v {direction} LIMIT {k}"
        ).rows
        everything = db.execute(
            f"SELECT v FROM t ORDER BY v {direction}"
        ).rows
        assert top == everything[:k]
