"""The one executor against a definitional reference.

There is a single online data path (``rows_columnar``), so instead of
comparing execution modes with each other the hypothesis properties pin
it to things that are *not* the executor:

(a) rows equal :func:`repro.testing.reference.reference_rows`, a naive
    interpreter over the logical plan (bag; exact sequence under a total
    ORDER BY);
(b) the audit operator is a no-op: armed and unarmed plans return the
    identical row sequence;
(c) ACCESSED is a superset of the Definition-2.3 deletion auditor's
    answer under every placement, and equal for select-join statements
    under hcn (Claim 3.6 / Theorem 3.7);
(d) nothing observable depends on ``context.batch_size``;
(e) block skipping changes only who pays for a probe:
    ``probes(on) + probes_skipped(on) == probes(off)``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import HEURISTIC_HCN, HEURISTIC_LEAF, Database
from repro.exec.operators import AuditOperator, IndexNestedLoopJoin
from repro.exec.operators.base import collect_rows
from repro.sql.parser import parse_statement
from repro.testing.reference import reference_rows

from tests.test_properties import (
    _SETTINGS as _FORTY_EXAMPLES,
    build_db,
    disease_rows,
    diseases,
    names,
    patient_rows,
    sj_queries,
    zips,
)

#: (sql, rows come back in one defined order)
QUERIES = [
    ("SELECT * FROM patients", False),
    ("SELECT * FROM patients WHERE age > 30", False),
    ("SELECT name, age FROM patients WHERE zip = '11111' OR age IS NULL",
     False),
    ("SELECT * FROM patients WHERE name LIKE 'A%' AND age BETWEEN 20 AND 60",
     False),
    ("SELECT * FROM patients p, disease d WHERE p.patientid = d.patientid",
     False),
    ("SELECT p.name, d.disease FROM patients p, disease d "
     "WHERE p.patientid = d.patientid AND d.disease IN ('flu', 'cancer')",
     False),
    ("SELECT p.name, d.disease FROM patients p LEFT JOIN disease d "
     "ON p.patientid = d.patientid", False),
    ("SELECT zip, COUNT(*), AVG(age) FROM patients GROUP BY zip", False),
    ("SELECT zip, COUNT(*) FROM patients GROUP BY zip HAVING COUNT(*) >= 2",
     False),
    ("SELECT COUNT(*), SUM(age), MIN(name), COUNT(DISTINCT zip) "
     "FROM patients", False),
    ("SELECT DISTINCT zip FROM patients", False),
    ("SELECT name FROM patients ORDER BY age, name LIMIT 3", True),
    ("SELECT name, CASE WHEN age > 40 THEN 'old' ELSE 'young' END "
     "FROM patients ORDER BY patientid", True),
    ("SELECT name FROM patients WHERE patientid IN "
     "(SELECT patientid FROM disease WHERE disease = 'flu')", False),
    ("SELECT p.name FROM patients p WHERE NOT EXISTS "
     "(SELECT 1 FROM disease d WHERE d.patientid = p.patientid)", False),
    ("SELECT name FROM patients WHERE age > (SELECT AVG(age) FROM patients)",
     False),
    ("SELECT d.disease, COUNT(*) FROM patients p, disease d "
     "WHERE p.patientid = d.patientid GROUP BY d.disease", False),
]
#: the statement is a pytest axis, not a hypothesis draw: forty draws
#: from a list this long settle on a handful of entries
each_query = pytest.mark.parametrize("sql, ordered", QUERIES)
each_sql = pytest.mark.parametrize("sql", [sql for sql, __ in QUERIES])
_SETTINGS = settings(_FORTY_EXAMPLES, max_examples=12)

#: single-row batches, ragged final batches, and one batch for everything
CHUNK_SIZES = (1, 2, 7, 1024)


def compile_select(db, sql: str):
    logical = db._builder.build_select(parse_statement(sql))
    logical = db._optimizer.optimize_logical(
        logical, instrument=db._instrument_hook()
    )
    return db._optimizer.compile(logical)


def observe(db, physical, batch_size: int = 1024, skipping: bool = True,
            parameters=None):
    context = db.make_context(parameters)
    context.batch_size = batch_size
    context.data_skipping = skipping
    rows = collect_rows(physical, context)
    accessed = {name: frozenset(ids) for name, ids in context.accessed.items()}
    return rows, accessed, context


class TestAgainstReference:
    @each_query
    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows)
    def test_rows_equal_reference(self, patients, sick, sql, ordered):
        db = build_db(patients, sick)
        rows = db.execute(sql).rows
        built = db._builder.build_select(parse_statement(sql))
        instrumented = db._optimizer.optimize_logical(
            built, instrument=db._instrument_hook()
        )
        # the raw plan checks the rewrites too; the instrumented one
        # walks the audit node as the identity
        for plan in (built, instrumented):
            expected = reference_rows(plan, db.catalog)
            if ordered:
                assert rows == expected
            else:
                assert Counter(rows) == Counter(expected)

    @each_sql
    @_SETTINGS
    @given(patients=patient_rows, sick=disease_rows)
    def test_audit_operator_is_a_no_op(self, patients, sick, sql):
        db = build_db(patients, sick)
        armed = db.execute(sql).rows
        db.audit_enabled = False
        assert db.execute(sql).rows == armed  # sequence, not bag


class TestAccessedAgainstDeletionAuditor:
    @each_sql
    @_SETTINGS
    @given(
        patients=patient_rows,
        sick=disease_rows,
        heuristic=st.sampled_from([HEURISTIC_HCN, HEURISTIC_LEAF, "cost"]),
    )
    def test_no_false_negatives(self, patients, sick, sql, heuristic):
        db = build_db(patients, sick)
        db.audit_manager.heuristic = heuristic
        db.offline_audit_mode = "deletion"
        truth = db.offline_audit(sql, "audit_all")
        assert truth <= db.execute(sql).accessed.get("audit_all", frozenset())

    @_FORTY_EXAMPLES
    @given(patients=patient_rows, sick=disease_rows, sql=sj_queries)
    def test_exact_for_select_join_under_hcn(self, patients, sick, sql):
        db = build_db(patients, sick)
        db.offline_audit_mode = "deletion"
        truth = db.offline_audit(sql, "audit_all")
        assert db.execute(sql).accessed.get("audit_all", frozenset()) == truth


class TestChunkingAndSkippingInvariance:
    @each_sql
    @_SETTINGS
    @given(
        patients=patient_rows, sick=disease_rows, skipping=st.booleans()
    )
    def test_chunk_size_invariance(self, patients, sick, sql, skipping):
        db = build_db(patients, sick, block_size=4)
        physical = compile_select(db, sql)
        seen = []
        for size in CHUNK_SIZES:
            rows, accessed, context = observe(db, physical, size, skipping)
            seen.append((
                rows, accessed, context.audit_probe_count,
                dict(context.audit_probe_counts),
            ))
        assert all(outcome == seen[0] for outcome in seen[1:])

    @each_sql
    @_SETTINGS
    @given(
        patients=patient_rows,
        sick=disease_rows,
        heuristic=st.sampled_from([HEURISTIC_HCN, HEURISTIC_LEAF]),
    )
    def test_skipping_on_equals_off(self, patients, sick, sql, heuristic):
        # small blocks and a narrow audit expression, so some blocks are
        # provably free of sensitive IDs and the fused probe can skip
        db = build_db(
            patients, sick, block_size=2, audit_where="WHERE age > 60"
        )
        db.audit_manager.heuristic = heuristic
        physical = compile_select(db, sql)
        rows_on, accessed_on, on = observe(db, physical, skipping=True)
        rows_off, accessed_off, off = observe(db, physical, skipping=False)
        assert rows_on == rows_off
        assert accessed_on == accessed_off
        assert off.audit_probes_skipped == 0
        assert (
            on.audit_probe_count + on.audit_probes_skipped
            == off.audit_probe_count
        )


join_keys = st.one_of(st.none(), st.integers(min_value=1, max_value=4))


class TestIndexNestedLoopJoin:
    """The join seeks one outer batch at a time; nothing observable may
    depend on where the outer batches (``o``'s blocks) or its own output
    batches end: rows come in outer order with LEFT padding in place,
    and an audit operator inside the inner chain (leaf) or above the
    join (hcn) records the same ACCESSED for the same number of probes."""

    @_FORTY_EXAMPLES
    @given(
        outer=st.lists(join_keys, max_size=10),
        inner=st.lists(
            st.tuples(join_keys, st.integers(min_value=0, max_value=6)),
            max_size=12,
        ),
        hidden=st.sets(st.integers(min_value=1, max_value=12), max_size=4),
        left_join=st.booleans(),
        residual=st.booleans(),
        heuristic=st.sampled_from([HEURISTIC_LEAF, HEURISTIC_HCN]),
        block_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_rows_accessed_and_probes(
        self, outer, inner, hidden, left_join, residual, heuristic,
        block_size,
    ):
        db = Database()
        db.block_size = block_size
        db.join_strategy = "index-nl"
        db.execute("CREATE TABLE o (oid INT PRIMARY KEY, k INT)")
        db.execute("CREATE TABLE i (iid INT PRIMARY KEY, k INT, v INT)")
        db.execute("CREATE INDEX idx_i_k ON i (k)")
        db.catalog.table("o").bulk_load(enumerate(outer, start=1))
        db.catalog.table("i").bulk_load(
            (iid, k, v) for iid, (k, v) in enumerate(inner, start=1)
        )
        db.execute(
            "CREATE AUDIT EXPRESSION audit_i AS SELECT * FROM i "
            "FOR SENSITIVE TABLE i, PARTITION BY iid"
        )
        db.audit_manager.heuristic = heuristic
        on_key = "o.k = i.k"
        condition = on_key + (" AND o.oid < i.v" if residual else "")
        sql = (
            f"SELECT * FROM o LEFT JOIN i ON {condition}" if left_join
            else f"SELECT * FROM o, i WHERE {condition}"
        )
        tombstones = {"i": {(iid,) for iid in hidden}}

        def reference(statement):
            return reference_rows(
                db._builder.build_select(parse_statement(statement)),
                db.catalog, tombstones,
            )

        physical = compile_select(db, sql)
        (join,) = [
            node for node in physical.walk()
            if isinstance(node, IndexNestedLoopJoin)
        ]
        audit_inside = isinstance(join.children()[1], AuditOperator)
        assert audit_inside or heuristic == HEURISTIC_HCN
        expected = reference(sql)
        if audit_inside:
            # every visible inner row the seek fetched, residual or not
            probed = reference(f"SELECT * FROM o, i WHERE {on_key}")
        else:
            probed = expected
        for size in CHUNK_SIZES:
            context = db.make_context()
            context.batch_size = size
            context.tombstones = tombstones
            rows = collect_rows(physical, context)
            assert Counter(rows) == Counter(expected)
            # outer order; an outer row's matches or padding are adjacent
            assert [row[:2] for row in rows] == [row[:2] for row in expected]
            assert context.accessed.get("audit_i", set()) == {
                row[2] for row in probed if row[2] is not None
            }
            assert context.audit_probe_count == len(probed)


#: uncorrelated IN conjuncts: each sinks to the scan it filters (``p``,
#: ``d`` or ``p2``); ``age`` and the subquery over it carry NULLs
in_conjuncts = st.sampled_from([
    "p.patientid IN (SELECT patientid FROM disease WHERE disease = 'flu')",
    "d.patientid IN (SELECT patientid FROM patients WHERE age > 40)",
    "p.age IN (SELECT age FROM patients WHERE zip = '11111')",
    "p2.zip IN (SELECT zip FROM patients WHERE age IS NULL)",
])
#: cross-table ORs of ANDs: every disjunct has a ``p``-only conjunct, and
#: all but the last a ``d``-only one too
or_conjuncts = st.sampled_from([
    "((p.age > 30 AND d.disease = 'flu') "
    "OR (p.zip = '11111' AND d.disease = 'cancer'))",
    "((p.age IS NULL AND d.disease <> 'flu') "
    "OR (p.age < 50 AND d.patientid > 3 AND p.zip <> d.disease))",
    "((p.name LIKE 'A%' AND d.disease = 'flu') OR p.age > 60)",
])
semi_or_queries = st.builds(
    lambda three, ins, ors: (
        "SELECT p.patientid, p.name, p.age, d.disease"
        + (", p2.name" if three else "")
        + " FROM patients p, disease d" + (", patients p2" if three else "")
        + " WHERE p.patientid = d.patientid"
        + (" AND d.patientid + 1 = p2.patientid" if three else "")
        + "".join(
            f" AND {part}" for part in ins + ors
            if three or "p2." not in part
        )
        + " ORDER BY p.patientid, d.disease"
        + (", p2.name" if three else "")
    ),
    st.booleans(),
    st.lists(in_conjuncts, max_size=2, unique=True),
    st.lists(or_conjuncts, min_size=0, max_size=1),
)


class TestSemiJoinAndOrRewrites:
    """Sinking semi joins into the table they filter and deriving
    per-table filters from cross-table ORs move work, never answers: the
    row sequence matches the reference interpreter; under hcn, ACCESSED
    and the probe counts match the plan built without the two rules, and
    under leaf ACCESSED still covers the deletion auditor's answer."""

    @_FORTY_EXAMPLES
    @given(
        patients=patient_rows,
        sick=disease_rows,
        sql=semi_or_queries,
        heuristic=st.sampled_from([HEURISTIC_HCN, HEURISTIC_LEAF]),
    )
    def test_rows_accessed_and_probes(self, patients, sick, sql, heuristic):
        from unittest import mock

        from repro.optimizer import rewrite

        db = build_db(patients, sick, block_size=4)
        db.audit_manager.heuristic = heuristic
        expected = reference_rows(
            db._builder.build_select(parse_statement(sql)), db.catalog
        )
        rows, accessed, context = observe(db, compile_select(db, sql))
        assert rows == expected
        with mock.patch.object(
            rewrite, "_sink_semi_join", lambda plan: None
        ), mock.patch.object(
            rewrite, "_or_implied", lambda conjunct, on_side: None
        ):
            unrewritten = compile_select(db, sql)
        __, accessed_before, before = observe(db, unrewritten)
        if heuristic == HEURISTIC_HCN:
            assert accessed == accessed_before
            assert context.audit_probe_counts == before.audit_probe_counts
        else:
            # a leaf audit counts what its scan reads: an OR-implied
            # filter there, or a join order that skips a scan behind an
            # empty input, drops false positives, never a true access
            db.offline_audit_mode = "deletion"
            truth = db.offline_audit(sql, "audit_all")
            assert truth <= accessed.get("audit_all", frozenset())


def _quoted(text: str) -> str:
    return f"'{text}'"


#: ``column = literal`` lookups: keys run past both tables so some miss,
#: ``age`` carries NULLs, and every string domain has a value no row holds
equality_literals = {
    "p.patientid": st.integers(min_value=0, max_value=13).map(str),
    "p.age": st.sampled_from(["20", "45", "90"]),
    "p.zip": st.one_of(zips, st.just("99999")).map(_quoted),
    "p.name": st.one_of(names, st.just("O'Hara")).map(
        lambda name: _quoted(name.replace("'", "''"))
    ),
    "d.disease": st.one_of(diseases, st.just("gout")).map(_quoted),
    "d.patientid": st.integers(min_value=0, max_value=13).map(str),
}


@st.composite
def lookup_instances(draw) -> list[str]:
    """Two statements differing only in their ``column = literal``
    values: one template, compiled by the first and hit by the second."""
    join = draw(st.booleans())
    pool = [column for column in equality_literals
            if join or column.startswith("p.")]
    columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    conjuncts = ["p.patientid = d.patientid"] if join else []
    conjuncts += [f"{column} = {{}}" for column in columns]
    shape = (
        "SELECT p.patientid, p.name, p.age"
        + (", d.disease FROM patients p, disease d" if join
           else " FROM patients p")
        + " WHERE " + " AND ".join(conjuncts)
    )
    return [
        shape.format(*(draw(equality_literals[column])
                       for column in columns))
        for __ in range(2)
    ]


class TestStatementTemplates:
    """A plan compiled once from a statement template and run with the
    lifted values answers exactly like the plan compiled from the text:
    the same row sequence, ACCESSED and probe counts under every
    placement — for the statement that compiled it and for the next one
    with other values, which hits it."""

    @_FORTY_EXAMPLES
    @given(
        patients=patient_rows,
        sick=disease_rows,
        statements=lookup_instances(),
        heuristic=st.sampled_from([HEURISTIC_HCN, HEURISTIC_LEAF, "cost"]),
    )
    def test_templated_equals_inlined(
        self, patients, sick, statements, heuristic
    ):
        db = build_db(patients, sick, block_size=4)
        db.audit_manager.heuristic = heuristic
        for sql in statements:
            result = db.execute(sql)
            template, entry = db.plan_cache.match(sql, db._plan_cache_tags())
            assert template.values and entry is not None
            rows, accessed, context = observe(
                db, entry.physical, parameters=template.bind(None)
            )
            inlined_rows, inlined_accessed, inlined = observe(
                db, compile_select(db, sql)
            )
            assert result.rows == rows == inlined_rows
            assert result.accessed == accessed == inlined_accessed
            assert context.audit_probe_counts == inlined.audit_probe_counts
            expected = reference_rows(
                db._builder.build_select(parse_statement(sql)), db.catalog
            )
            assert Counter(rows) == Counter(expected)


class TestProbeFlushOnAbort:
    """§II: a reader may consume only a prefix of the result; the probe
    accounting of what it did see must survive it abandoning the stream."""

    def _stream(self):
        db = build_db(
            [("Alice", 30, "11111"), ("Bob", 40, "22222"),
             ("Carol", 50, "33333"), ("Dave", 60, "11111")],
            [],
            block_size=1,  # one row per batch: prefix counts are exact
        )
        context = db.make_context()
        physical = compile_select(db, "SELECT * FROM patients")
        return context, physical.rows_columnar(context)

    def test_close_mid_stream_flushes_probes(self):
        context, stream = self._stream()
        next(stream)
        next(stream)
        stream.close()  # GeneratorExit
        assert context.audit_probe_count == 2
        assert context.audit_probe_counts == {"audit_all": 2}

    def test_throw_mid_stream_flushes_probes(self):
        context, stream = self._stream()
        next(stream)
        with pytest.raises(RuntimeError):
            stream.throw(RuntimeError("consumer died"))
        assert context.audit_probe_count == 1
        assert context.audit_probe_counts == {"audit_all": 1}


#: aggregate shapes over ``g``: composite keys with NULL parts, float SUM
#: and AVG whose value depends on fold order, string MIN / MAX, the
#: DISTINCT forms, HAVING, and grouped and global folds of nothing
AGGREGATE_QUERIES = [
    "SELECT a, COUNT(*), COUNT(x), SUM(x), AVG(x) FROM g GROUP BY a",
    "SELECT a, b, COUNT(*), SUM(x), MIN(x) FROM g GROUP BY a, b",
    "SELECT b, MIN(s), MAX(s), COUNT(s) FROM g GROUP BY b",
    "SELECT a, COUNT(DISTINCT b), SUM(DISTINCT x), AVG(DISTINCT a) "
    "FROM g GROUP BY a",
    "SELECT a, SUM(x) FROM g GROUP BY a HAVING COUNT(*) >= 2",
    "SELECT COUNT(*), SUM(x), AVG(x), MIN(s), MAX(s), COUNT(DISTINCT a) "
    "FROM g",
    "SELECT a, b, COUNT(*), SUM(x) FROM g WHERE id < 0 GROUP BY a, b",
    "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MAX(s) FROM g WHERE id < 0",
]
#: fold order matters at these magnitudes: (1e16 + 1.0) - 1e16 is 0.0
floats = st.one_of(
    st.none(),
    st.sampled_from([1e16, -1e16, 1.0, 0.1, -0.0, 2.5]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
g_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.one_of(st.none(), st.sampled_from(["u", "v"])),
        floats,
        st.one_of(st.none(), names, st.just("")),
    ),
    max_size=30,
)
#: one row per batch, ragged batches, and everything in one batch
AGGREGATE_BATCH_SIZES = (1, 3, 1024)


def aggregate_db(rows) -> Database:
    db = Database()
    db.block_size = 4
    db.execute(
        "CREATE TABLE g (id INT PRIMARY KEY, a INT, b VARCHAR, x FLOAT, "
        "s VARCHAR)"
    )
    db.catalog.table("g").bulk_load(
        (index, *row) for index, row in enumerate(rows, start=1)
    )
    return db


def assert_aggregates_match_reference(db, sql):
    """The row sequence, float bits included, at every batch size."""
    expected = [
        repr(row) for row in reference_rows(
            db._builder.build_select(parse_statement(sql)), db.catalog
        )
    ]
    physical = compile_select(db, sql)
    for size in AGGREGATE_BATCH_SIZES:
        rows, __, __ = observe(db, physical, size)
        assert [repr(row) for row in rows] == expected, size


class TestAggregatesAgainstReference:
    """Groups come out in first-seen order, each folded left to right in
    row order, exactly as the reference interpreter folds them; nothing
    depends on where batches end."""

    @pytest.mark.parametrize("sql", AGGREGATE_QUERIES)
    @settings(deadline=None)
    @given(rows=g_rows)
    def test_rows_equal_reference(self, rows, sql):
        assert_aggregates_match_reference(aggregate_db(rows), sql)

    @settings(_FORTY_EXAMPLES, max_examples=5)
    @given(
        groups=st.integers(min_value=1025, max_value=1300),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_more_groups_than_a_batch(self, groups, seed):
        import random

        draw = random.Random(seed)
        keys = list(range(groups)) + [
            draw.randrange(groups) for __ in range(groups)
        ]
        draw.shuffle(keys)
        db = aggregate_db([
            (key, None, draw.choice([1e16, 1.0, -1e16]), None)
            for key in keys
        ])
        sql = "SELECT a, COUNT(*), SUM(x), AVG(x) FROM g GROUP BY a"
        assert len(db.execute(sql).rows) == groups
        assert_aggregates_match_reference(db, sql)
