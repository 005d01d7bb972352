"""Lineage-based offline auditing: exactness against the deletion oracle.

The lineage auditor must be *exact* with respect to Definition 2.3 — it is
the default offline strategy, so every divergence from the literal
``Q(D) ≠ Q(D − t)`` test is a correctness bug, not an approximation. These
tests pin:

* the instance-dependent aggregate corners of Definition 2.3 (a deleted
  tuple contributing 0 to a SUM, a duplicated MIN/MAX, an AVG unchanged
  by deletion), asserted against both auditors;
* a hypothesis differential: random SPJA workloads through the lineage
  auditor and the deletion-test auditor produce identical accessed-ID
  sets, with hash or forced index nested-loop joins;
* plan certification (which shapes fall back, and why);
* the per-aggregate sensitivity rules in isolation;
* strategy dispatch (the mode knob) and the auditor's LRU plan cache.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, OfflineAuditor
from repro.audit.lineage import (
    Certification,
    aggregate_sensitivity,
    certify_plan,
)
from repro.plan.logical import AggregateSpec

def make_db(rows):
    """patients(patientid, name, age, zip) with audit_all on patientid."""
    db = Database()
    db.execute(
        "CREATE TABLE patients (patientid INT PRIMARY KEY, "
        "name VARCHAR, age INT, zip VARCHAR)"
    )
    db.execute("CREATE TABLE disease (patientid INT, disease VARCHAR)")
    for index, (name, age, zip_code) in enumerate(rows, start=1):
        age_sql = "NULL" if age is None else str(age)
        db.execute(
            f"INSERT INTO patients VALUES ({index}, '{name}', {age_sql}, "
            f"'{zip_code}')"
        )
    db.execute(
        "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
        "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
    )
    return db


def both_auditors(db, query):
    """(lineage answer, deletion answer) with lineage-use asserted."""
    lineage = OfflineAuditor(db, mode="auto")
    deletion = OfflineAuditor(db, mode="deletion")
    fast = lineage.audit(query, "audit_all")
    truth = deletion.audit(query, "audit_all")
    assert lineage.last_lineage_certified, lineage.last_fallback_reason
    assert lineage.last_deletion_runs == 0
    assert deletion.last_mode == "deletion"
    return fast, truth


class TestAggregateCorners:
    """Instance-dependent deletions of Definition 2.3: whether a tuple is
    accessed depends on the *values* around it, not the plan shape."""

    def test_sum_zero_contribution_is_unaccessed(self):
        # patient 2 contributes age 0: SUM('11111') is identical with or
        # without that tuple, so Definition 2.3 says it was not accessed
        db = make_db([
            ("Alice", 40, "11111"),
            ("Bob", 0, "11111"),
            ("Carol", 25, "22222"),
        ])
        query = "SELECT zip, SUM(age) FROM patients GROUP BY zip"
        fast, truth = both_auditors(db, query)
        assert fast == truth
        assert 2 not in truth
        assert truth == {1, 3}

    def test_duplicated_minimum_masks_deletion(self):
        # two tuples tie the group minimum: deleting either leaves MIN
        # unchanged; the unique minimum of the other group is accessed
        db = make_db([
            ("Alice", 30, "11111"),
            ("Bob", 30, "11111"),
            ("Carol", 55, "11111"),
            ("Dave", 20, "22222"),
            ("Eve", 60, "22222"),
        ])
        query = "SELECT zip, MIN(age) FROM patients GROUP BY zip"
        fast, truth = both_auditors(db, query)
        assert fast == truth
        assert 1 not in truth and 2 not in truth
        assert 4 in truth
        # Carol never moves MIN('11111'); Eve never moves MIN('22222')…
        # but deleting Eve still *vanishes no group* while deleting Dave
        # changes its value — the rule must separate them
        assert 3 not in truth

    def test_duplicated_maximum_masks_deletion(self):
        db = make_db([
            ("Alice", 70, "11111"),
            ("Bob", 70, "11111"),
            ("Carol", 10, "11111"),
        ])
        query = "SELECT MAX(age) FROM patients"
        fast, truth = both_auditors(db, query)
        assert fast == truth == set()

    def test_avg_unchanged_by_deleting_the_mean(self):
        # ages 10, 20, 30: deleting the 20 leaves AVG at exactly 20.0, so
        # the middle tuple is unaccessed even though COUNT/SUM both change
        db = make_db([
            ("Alice", 10, "11111"),
            ("Bob", 20, "11111"),
            ("Carol", 30, "11111"),
        ])
        query = "SELECT AVG(age) FROM patients"
        fast, truth = both_auditors(db, query)
        assert fast == truth
        assert truth == {1, 3}
        assert 2 not in truth

    def test_count_star_touches_every_candidate(self):
        db = make_db([
            ("Alice", 10, "11111"),
            ("Bob", None, "22222"),
        ])
        fast, truth = both_auditors(db, "SELECT COUNT(*) FROM patients")
        assert fast == truth == {1, 2}

    def test_count_column_ignores_null_contributions(self):
        # COUNT(age) never sees Bob's NULL: deleting him changes nothing
        db = make_db([
            ("Alice", 10, "11111"),
            ("Bob", None, "22222"),
        ])
        fast, truth = both_auditors(db, "SELECT COUNT(age) FROM patients")
        assert fast == truth == {1}

    def test_sum_collapsing_to_null_is_accessed(self):
        # Alice holds the only non-NULL age: deleting her turns SUM into
        # NULL even though her removal changes the sum by... her value;
        # the subtle case is a *zero* sole contribution
        db = make_db([
            ("Alice", 0, "11111"),
            ("Bob", None, "11111"),
        ])
        fast, truth = both_auditors(db, "SELECT SUM(age) FROM patients")
        assert fast == truth == {1}

    def test_group_vanishing_is_accessed(self):
        # Carol's group has one row: deleting her removes an output row
        db = make_db([
            ("Alice", 40, "11111"),
            ("Bob", 0, "11111"),
            ("Carol", 25, "22222"),
        ])
        query = "SELECT zip, COUNT(*) FROM patients GROUP BY zip"
        fast, truth = both_auditors(db, query)
        assert fast == truth == {1, 2, 3}


# -- differential property: lineage ≡ deletion over random SPJA workloads

names = st.sampled_from(["Alice", "Bob", "Carol", "Dave", "Eve"])
zips = st.sampled_from(["11111", "22222", "33333"])
ages = st.one_of(st.none(), st.integers(min_value=0, max_value=90))
patient_rows = st.lists(st.tuples(names, ages, zips), max_size=12)
disease_rows = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["flu", "cancer", "diabetes"]),
    ),
    max_size=15,
)

#: patients on the inner side of the join
PATIENTS_INNER = (
    "SELECT d.disease, p.name FROM disease d, patients p "
    "WHERE d.patientid = p.patientid"
)

#: queries the lineage engine certifies: one run, no deletion re-run
CERTIFIED_QUERIES = [
    # select-project-join (pure lineage, no tail)
    "SELECT name FROM patients WHERE age > 30",
    "SELECT p.name, d.disease FROM patients p, disease d "
    "WHERE p.patientid = d.patientid",
    PATIENTS_INNER,
    "SELECT p1.name, p2.name FROM patients p1, patients p2 "
    "WHERE p1.zip = p2.zip AND p1.patientid < p2.patientid",
    "SELECT p.name, d.disease FROM patients p "
    "LEFT JOIN disease d ON p.patientid = d.patientid",
    # semi join (IN) and anti join (uncorrelated NOT EXISTS)
    "SELECT name FROM patients WHERE patientid IN "
    "(SELECT patientid FROM disease WHERE disease = 'flu')",
    "SELECT name FROM patients WHERE NOT EXISTS "
    "(SELECT * FROM disease WHERE disease = 'cancer')",
    # a derived table on the left: its lineage column shifts the join
    "SELECT t.name, d.disease FROM "
    "(SELECT patientid, name FROM patients WHERE age > 20) t, disease d "
    "WHERE t.patientid = d.patientid",
    "SELECT DISTINCT zip FROM patients WHERE age IS NOT NULL",
    "SELECT DISTINCT zip FROM patients ORDER BY zip",
    "SELECT name FROM patients ORDER BY age, name",
    # aggregate tails (incremental group re-derivation)
    "SELECT zip, COUNT(*) FROM patients GROUP BY zip",
    "SELECT zip, SUM(age), MIN(age) FROM patients GROUP BY zip",
    "SELECT zip, AVG(age) FROM patients GROUP BY zip "
    "HAVING COUNT(*) >= 2",
    "SELECT MAX(age) FROM patients",
    "SELECT COUNT(DISTINCT zip) FROM patients",
    "SELECT COUNT(*) FROM (SELECT DISTINCT zip FROM patients) t",
    "SELECT d.disease, COUNT(*) FROM patients p, disease d "
    "WHERE p.patientid = d.patientid GROUP BY d.disease",
    "SELECT zip, COUNT(*) FROM patients GROUP BY zip "
    "ORDER BY COUNT(*) DESC, zip LIMIT 2",
    # stages above the first aggregate, compiled over a Gather leaf: a
    # second aggregate, a DISTINCT, and HAVING + top-k with ties at the cut
    "SELECT COUNT(*), MAX(n) FROM "
    "(SELECT zip, COUNT(*) AS n FROM patients GROUP BY zip) t",
    "SELECT DISTINCT n FROM "
    "(SELECT zip, COUNT(*) AS n FROM patients GROUP BY zip) t",
    "SELECT zip, COUNT(*) FROM patients GROUP BY zip "
    "HAVING COUNT(*) >= 2 ORDER BY COUNT(*) LIMIT 2",
    # top-k tails (replay over surviving core rows)
    "SELECT name FROM patients ORDER BY age LIMIT 3",
    "SELECT name, age FROM patients WHERE age >= 0 "
    "ORDER BY age DESC LIMIT 4",
]

#: a sensitive DISTINCT below a join: refused, so deletion testing answers
DISTINCT_UNDER_JOIN = (
    "SELECT t.age, d.disease FROM (SELECT DISTINCT age FROM patients) t, "
    "disease d WHERE t.age = d.patientid"
)

spja_queries = st.sampled_from(CERTIFIED_QUERIES + [DISTINCT_UNDER_JOIN])


def add_diseases(db, sick, patient_count):
    for patient_id, disease in sick:
        if patient_id <= patient_count:
            db.execute(
                f"INSERT INTO disease VALUES ({patient_id}, '{disease}')"
            )


def use_index_nl(db):
    """Index both join columns and force index nested-loop joins."""
    db.execute("CREATE INDEX disease_pid ON disease (patientid)")
    db.join_strategy = "index-nl"


class TestLineageDeletionDifferential:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        patients=patient_rows,
        sick=disease_rows,
        query=spja_queries,
        index_nl=st.booleans(),
    )
    def test_identical_accessed_sets(self, patients, sick, query, index_nl):
        db = make_db(patients)
        add_diseases(db, sick, len(patients))
        if index_nl:
            use_index_nl(db)
        lineage = OfflineAuditor(db, mode="auto")
        deletion = OfflineAuditor(db, mode="deletion")
        assert lineage.audit(query, "audit_all") == \
            deletion.audit(query, "audit_all")

    def test_index_nl_variant_seeks_patients_on_the_inner_side(self):
        db = make_db([("Alice", 30, "11111")])
        use_index_nl(db)
        plan = db.explain(PATIENTS_INNER)
        assert "IndexNestedLoopJoin(inner, patients.patients_pk" in plan


class TestCertification:
    """Which plan shapes the lineage engine takes, and why it refuses."""

    def certification(self, db, query):
        return certify_plan(db.plan_query(query), "patients")

    def test_spj_certifies_with_empty_tail(self):
        db = make_db([("Alice", 30, "11111")])
        certification = self.certification(
            db, "SELECT name FROM patients WHERE age > 10"
        )
        assert isinstance(certification, Certification)
        assert certification.tail == ()

    def test_aggregate_certifies_with_tail(self):
        db = make_db([("Alice", 30, "11111")])
        certification = self.certification(
            db, "SELECT zip, COUNT(*) FROM patients GROUP BY zip"
        )
        assert isinstance(certification, Certification)
        assert certification.tail  # aggregate spine above the core

    def test_sensitive_subquery_refused(self):
        db = make_db([("Alice", 30, "11111")])
        refusal = self.certification(
            db,
            "SELECT name FROM patients WHERE age > "
            "(SELECT AVG(age) FROM patients)",
        )
        assert isinstance(refusal, str)
        assert "subquery" in refusal

    def test_insensitive_subquery_certifies(self):
        db = make_db([("Alice", 30, "11111")])
        db.execute("INSERT INTO disease VALUES (1, 'flu')")
        certification = self.certification(
            db,
            "SELECT name FROM patients WHERE patientid IN "
            "(SELECT patientid FROM disease)",
        )
        assert isinstance(certification, Certification)

    def test_sensitive_distinct_under_join_refused(self):
        db = make_db([("Alice", 30, "11111")])
        refusal = self.certification(db, DISTINCT_UNDER_JOIN)
        assert refusal == "DISTINCT over sensitive rows below a join"

    def test_sensitive_distinct_beneath_limit_refused(self):
        db = make_db([("Alice", 30, "11111")])
        refusal = self.certification(
            db, "SELECT DISTINCT zip FROM patients ORDER BY zip LIMIT 2"
        )
        assert refusal == "DISTINCT over sensitive rows beneath a LIMIT"

    def test_distinct_under_join_falls_back_and_still_agrees(self):
        db = make_db([
            ("Alice", 2, "11111"),
            ("Bob", 2, "22222"),
            ("Carol", 1, "11111"),
        ])
        add_diseases(db, [(1, "flu"), (2, "cancer")], 3)
        auditor = OfflineAuditor(db)
        accessed = auditor.audit(DISTINCT_UNDER_JOIN, "audit_all")
        assert auditor.last_mode == "deletion"
        assert auditor.last_fallback_reason == (
            "DISTINCT over sensitive rows below a join"
        )
        truth = OfflineAuditor(db, mode="deletion").audit(
            DISTINCT_UNDER_JOIN, "audit_all"
        )
        # the duplicated age 2 masks Alice and Bob; Carol's 1 joins
        assert accessed == truth == {3}

    @pytest.mark.parametrize("index_nl", [False, True])
    @pytest.mark.parametrize("query", CERTIFIED_QUERIES)
    def test_pool_certifies_without_deletion_runs(self, query, index_nl):
        db = make_db([
            ("Alice", 30, "11111"),
            ("Bob", 45, "22222"),
            ("Carol", 45, "11111"),
            ("Dave", None, "33333"),
        ])
        add_diseases(db, [(1, "flu"), (2, "cancer"), (2, "flu")], 4)
        if index_nl:
            use_index_nl(db)
        auditor = OfflineAuditor(db)
        auditor.audit(query, "audit_all")
        assert auditor.last_lineage_certified, auditor.last_fallback_reason
        assert auditor.last_deletion_runs == 0

    def test_uncertified_plan_falls_back_and_still_agrees(self):
        db = make_db([
            ("Alice", 30, "11111"),
            ("Bob", 45, "22222"),
        ])
        query = (
            "SELECT name FROM patients WHERE age > "
            "(SELECT AVG(age) FROM patients)"
        )
        auditor = OfflineAuditor(db)
        accessed = auditor.audit(query, "audit_all")
        assert auditor.last_mode == "deletion"
        assert not auditor.last_lineage_certified
        assert auditor.last_fallback_reason is not None
        assert auditor.last_deletion_runs > 0
        truth = OfflineAuditor(db, mode="deletion").audit(
            query, "audit_all"
        )
        assert accessed == truth


class TestSensitivityRules:
    """aggregate_sensitivity in isolation: True / False / None verdicts."""

    def spec(self, name, distinct=False):
        return AggregateSpec(name, None, distinct)

    def test_count_changes_iff_nonnull_removed(self):
        assert aggregate_sensitivity(self.spec("count"), [1], [1, 1], 3)
        assert not aggregate_sensitivity(
            self.spec("count"), [None], [1], 1
        )

    def test_sum_zero_delta_is_unchanged(self):
        assert not aggregate_sensitivity(self.spec("sum"), [0], [5], 5)
        assert aggregate_sensitivity(self.spec("sum"), [3], [5], 8)

    def test_sum_cancelling_removals_are_unchanged(self):
        # deleting contributions {-1, +1} together leaves the sum alone
        assert not aggregate_sensitivity(
            self.spec("sum"), [-1, 1], [5], 5
        )

    def test_sum_collapsing_to_null_changes(self):
        assert aggregate_sensitivity(self.spec("sum"), [0], [None], 0)

    def test_min_duplicated_extremum_is_unchanged(self):
        assert not aggregate_sensitivity(
            self.spec("min"), [2], [2, 7], 2
        )
        assert aggregate_sensitivity(self.spec("min"), [2], [7], 2)
        assert not aggregate_sensitivity(self.spec("min"), [7], [2], 2)

    def test_avg_is_undecided_by_rule(self):
        assert aggregate_sensitivity(self.spec("avg"), [2], [4], 3) is None

    def test_distinct_is_undecided_by_rule(self):
        assert aggregate_sensitivity(
            self.spec("count", distinct=True), [1], [1], 1
        ) is None


class TestModeDispatch:
    def test_auto_prefers_lineage(self):
        db = make_db([("Alice", 30, "11111"), ("Bob", 45, "22222")])
        auditor = OfflineAuditor(db)
        auditor.audit("SELECT name FROM patients", "audit_all")
        assert auditor.last_mode == "lineage"
        assert auditor.last_deletion_runs == 0
        assert auditor.last_deletion_runs_avoided == 2

    def test_deletion_mode_never_uses_lineage(self):
        db = make_db([("Alice", 30, "11111")])
        auditor = OfflineAuditor(db, mode="deletion")
        auditor.audit("SELECT name FROM patients", "audit_all")
        assert auditor.last_mode == "deletion"
        assert not auditor.last_lineage_certified
        assert auditor.last_deletion_runs == 1

    def test_database_mode_knob(self):
        db = make_db([("Alice", 30, "11111")])
        db.offline_audit_mode = "deletion"
        auditor = OfflineAuditor(db)
        auditor.audit("SELECT name FROM patients", "audit_all")
        assert auditor.last_mode == "deletion"

    def test_unknown_auditor_mode_raises(self):
        db = make_db([("Alice", 30, "11111")])
        with pytest.raises(ValueError, match="'auto' or 'deletion'"):
            OfflineAuditor(db, mode="lineage")

    def test_unknown_database_mode_raises(self):
        db = make_db([("Alice", 30, "11111")])
        with pytest.raises(ValueError, match="'auto' or 'deletion'"):
            db.offline_audit_mode = "Deletion"
        assert db.offline_audit_mode == "auto"

    def test_database_offline_audit_api(self):
        db = make_db([("Alice", 30, "11111"), ("Bob", 45, "22222")])
        accessed = db.offline_audit(
            "SELECT name FROM patients WHERE age > 40", "audit_all"
        )
        assert accessed == {2}
        assert db.offline_auditor.last_mode == "lineage"


class TestAuditorPlanLru:
    def test_hit_renews_entry(self):
        db = make_db([("Alice", 30, "11111")])
        auditor = OfflineAuditor(db)
        first = "SELECT name FROM patients"
        second = "SELECT zip FROM patients"
        auditor.audit(first, "audit_all")
        auditor.audit(second, "audit_all")
        assert list(auditor._plans)[-1][0] == second
        # a hit must move the entry to the MRU end (true LRU, not FIFO)
        auditor.audit(first, "audit_all")
        assert auditor.plan_cache_hits == 1
        assert list(auditor._plans)[-1][0] == first

    def test_capacity_evicts_least_recently_used(self):
        db = make_db([("Alice", 30, "11111")])
        auditor = OfflineAuditor(db)
        hot = "SELECT name FROM patients"
        auditor.audit(hot, "audit_all")
        for index in range(63):
            auditor.audit(
                f"SELECT name FROM patients WHERE age > {index}",
                "audit_all",
            )
        # the hot entry is the oldest *insertion*; renew it, then insert
        # one more — FIFO would evict the hot plan, LRU evicts age > 0
        auditor.audit(hot, "audit_all")
        auditor.audit(
            "SELECT name FROM patients WHERE age > 999", "audit_all"
        )
        assert len(auditor._plans) == 64
        keys = [key[0] for key in auditor._plans]
        assert hot in keys
        assert "SELECT name FROM patients WHERE age > 0" not in keys

    def count_compiles(self, monkeypatch):
        """A list that grows by one per PhysicalPlanner.compile call."""
        from repro.optimizer.physical import PhysicalPlanner

        calls = []
        compile_plan = PhysicalPlanner.compile

        def counting(planner, plan):
            calls.append(plan)
            return compile_plan(planner, plan)

        monkeypatch.setattr(PhysicalPlanner, "compile", counting)
        return calls

    def test_repeated_audit_compiles_nothing(self, monkeypatch):
        # a core, an aggregate and a compiled tail above it
        db = make_db([("Alice", 30, "11111"), ("Bob", 45, "22222")])
        query = (
            "SELECT zip, COUNT(*) FROM patients GROUP BY zip "
            "ORDER BY COUNT(*) DESC, zip LIMIT 1"
        )
        auditor = OfflineAuditor(db)
        calls = self.count_compiles(monkeypatch)
        first = auditor.audit(query, "audit_all")
        assert auditor.last_mode == "lineage"
        assert calls
        calls.clear()
        assert auditor.audit(query, "audit_all") == first
        assert calls == []
        assert auditor.plan_cache_hits == 1

    def test_create_index_recompiles_once(self, monkeypatch):
        db = make_db([("Alice", 30, "11111"), ("Bob", 45, "22222")])
        query = "SELECT name FROM patients WHERE age > 40 ORDER BY name"
        auditor = OfflineAuditor(db)
        assert auditor.audit(query, "audit_all") == {2}
        db.execute("CREATE INDEX patients_age ON patients (age)")
        calls = self.count_compiles(monkeypatch)
        assert auditor.audit(query, "audit_all") == {2}
        assert calls
        assert auditor.plan_cache_misses == 2
        calls.clear()
        assert auditor.audit(query, "audit_all") == {2}
        assert calls == []
        assert auditor.plan_cache_misses == 2
