"""Data-skipping correctness: zone maps, sensitive-ID sketches, block
lifecycle, and the conservative-skip differential.

The invariant under test is one-sided: a consult may answer "may match"
for a block that matches nothing (false positive — the block is scanned
for nothing), but must never answer "cannot match" for a block holding a
qualifying row (false negative — a missed access would break the paper's
no-false-negatives auditing guarantee). Consequently query results,
ACCESSED sets, and offline-audit verdicts must be identical with the
``skipping`` knob on and off; only probe and block counts may differ.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Database
from repro.audit.offline import OfflineAuditor
from repro.catalog.schema import Column, TableSchema
from repro.datatypes import INTEGER, VARCHAR
from repro.exec.operators.base import collect_rows
from repro.storage.blocks import BlockSummary
from repro.storage.table import Table

from tests.test_durability import _audited_db, _log_rows


# ---------------------------------------------------------------------------
# helpers


def make_block_table(capacity: int = 4) -> Table:
    schema = TableSchema(
        name="t",
        columns=(
            Column("id", INTEGER, nullable=False),
            Column("name", VARCHAR),
            Column("score", INTEGER),
        ),
        primary_key=("id",),
    )
    return Table(schema, block_capacity=capacity)


def make_audited_db(block_size: int, rows: int, sensitive_upto: int,
                    skipping: bool = True) -> Database:
    """Patients across many blocks; IDs ``<= sensitive_upto`` sensitive."""
    db = Database()
    db.block_size = block_size
    db.skipping = skipping
    db.execute(
        "CREATE TABLE patients (patientid INT PRIMARY KEY, "
        "name VARCHAR NOT NULL, age INT)"
    )
    # age mirrors patientid (monotone, not indexed) so zone maps over it
    # are tight per block while predicates on it compile to table scans
    values = ", ".join(
        f"({i}, 'p{i}', {i})" for i in range(1, rows + 1)
    )
    db.execute(f"INSERT INTO patients VALUES {values}")
    db.execute(
        "CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients "
        f"WHERE patientid <= {sensitive_upto} "
        "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
    )
    return db


#: query suite the on/off differential runs (mix of sargable predicates,
#: full scans, projections, aggregates, and joins back onto the table)
DIFFERENTIAL_QUERIES = [
    "SELECT * FROM patients",
    "SELECT * FROM patients WHERE patientid = 3",
    "SELECT * FROM patients WHERE patientid <= 5",
    "SELECT * FROM patients WHERE patientid > 90",
    "SELECT * FROM patients WHERE patientid BETWEEN 10 AND 20",
    "SELECT name FROM patients WHERE age < 30",
    "SELECT * FROM patients WHERE patientid < 0",
    "SELECT COUNT(*) FROM patients WHERE patientid >= 50",
    "SELECT p.name FROM patients p, patients q "
    "WHERE p.patientid = q.patientid AND q.patientid <= 4",
]


# ---------------------------------------------------------------------------
# zone-map unit tests


class TestZoneMaps:
    def summary(self, *rows) -> BlockSummary:
        built = BlockSummary(column_count=2, capacity=16)
        for row in rows:
            built.include_row(row)
        return built

    def test_empty_block_matches_nothing(self):
        empty = BlockSummary(column_count=1, capacity=4)
        assert not empty.may_match(0, "=", 1)
        assert not empty.may_match(0, "isnull", None)
        assert not empty.may_contain_any(0, {1}, 1, 1)

    def test_equality_inside_and_outside_zone(self):
        s = self.summary((10, "a"), (20, "b"))
        assert s.may_match(0, "=", 15)  # inside [10, 20]: may match
        assert not s.may_match(0, "=", 9)
        assert not s.may_match(0, "=", 21)

    def test_range_operators(self):
        s = self.summary((10, "a"), (20, "b"))
        assert not s.may_match(0, "<", 10)
        assert s.may_match(0, "<=", 10)
        assert not s.may_match(0, ">", 20)
        assert s.may_match(0, ">=", 20)
        assert s.may_match(0, "<", 11)
        assert s.may_match(0, ">", 19)

    def test_not_equal_skips_only_constant_blocks(self):
        constant = self.summary((5, "a"), (5, "b"))
        varied = self.summary((5, "a"), (6, "b"))
        assert not constant.may_match(0, "<>", 5)
        assert varied.may_match(0, "<>", 5)
        assert constant.may_match(0, "<>", 4)

    def test_null_semantics(self):
        s = self.summary((10, None), (None, "b"))
        assert s.may_match(0, "isnull", None)
        assert s.may_match(1, "isnull", None)
        assert s.may_match(0, "notnull", None)
        # col <op> NULL never evaluates True for any row
        assert not s.may_match(0, "=", None)
        # all-NULL column: no comparison can be satisfied
        all_null = self.summary((None, "a"), (None, "b"))
        assert not all_null.may_match(0, "=", 1)
        assert not all_null.may_match(0, "notnull", None)
        assert all_null.may_match(0, "isnull", None)

    def test_incomparable_values_drop_zone_map_conservatively(self):
        s = BlockSummary(column_count=1, capacity=8)
        s.include_row((3,))
        s.include_row(("oops",))  # int/str mix: zone map abandoned
        assert 0 in s.dropped
        assert s.may_match(0, "=", 99)  # any consult answers "may match"
        assert s.may_match(0, "<", -1)
        assert s.may_contain_any(0, {"anything"}, None, None)
        # later NULLs must not resurrect the all-NULL skip path
        s.include_row((None,))
        assert s.may_match(0, "=", 99)

    def test_incomparable_probe_set_is_conservative(self):
        s = self.summary((10, "a"), (20, "b"))
        assert s.may_contain_any(0, {"x"}, "x", "x") or True  # no raise


# ---------------------------------------------------------------------------
# sketch + zone maintenance under random DML (no-false-negative property)


class TestMaintenanceProperty:
    def assert_conservative(self, table: Table) -> None:
        """Every live value must be admitted by its block's consults."""
        position = table.schema.position_of("id")
        for block in table.blocks():
            summary = table.fresh_summary(block)
            for row in block.rows_snapshot():
                value = row[position]
                assert summary.may_match(position, "=", value)
                assert summary.may_contain_any(
                    position, {value}, value, value
                )

    def test_random_dml_never_produces_false_negatives(self):
        rng = random.Random(1337)
        table = make_block_table(capacity=4)
        table.register_sketch_column("id")
        live: dict[int, int] = {}  # id -> rid
        next_id = 0
        for step in range(400):
            action = rng.random()
            if action < 0.5 or not live:
                next_id += 1
                rid = table.insert((next_id, f"n{next_id}", rng.randrange(100)))
                live[next_id] = rid
            elif action < 0.75:
                key = rng.choice(list(live))
                table.delete_rid(live.pop(key))
            else:
                key = rng.choice(list(live))
                new_key = next_id = next_id + 1
                table.update_rid(
                    live.pop(key), (new_key, f"n{new_key}", rng.randrange(100))
                )
                live[new_key] = table._pk_index[(new_key,)]
            if step % 25 == 0:
                self.assert_conservative(table)
        self.assert_conservative(table)
        assert sum(len(b.rows) for b in table.blocks()) == len(table)

    def test_update_moves_partition_value_across_zone_ranges(self):
        table = make_block_table(capacity=4)
        table.register_sketch_column("id")
        rids = [table.insert((i, f"n{i}", i)) for i in range(1, 13)]
        assert table.block_count == 3
        first, _, third = table.blocks()
        # move 1 (block 0's range) to 100 (beyond block 2's range); the
        # row stays in block 0 — its summary must admit the new value
        table.update_rid(rids[0], (100, "moved", 0))
        stale = first.summary
        assert stale.stale and stale.may_contain_any(0, {100}, 100, 100)
        fresh = table.fresh_summary(first)
        assert not fresh.stale
        assert fresh.may_contain_any(0, {100}, 100, 100)
        assert not fresh.may_contain_any(0, {1}, 1, 1)  # exact again
        # delete shrinks a block; the rebuilt summary tightens
        table.delete_rid(rids[11])
        assert third.summary.stale
        assert not table.fresh_summary(third).may_match(0, "=", 12)

    def test_rebuild_races_readers_safely(self):
        table = make_block_table(capacity=64)
        table.register_sketch_column("id")
        rids = [table.insert((i, f"n{i}", i)) for i in range(64)]
        block = table.blocks()[0]
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            toggle = 0
            while not stop.is_set():
                toggle += 1
                # churn one row in place: marks the summary stale, then
                # the next consult (ours or a reader's) rebuilds it
                table.update_rid(rids[0], (0, f"w{toggle}", toggle))
                table.fresh_summary(block)

        def reader():
            while not stop.is_set():
                summary = table.fresh_summary(block)
                for value in range(64):
                    if not summary.may_contain_any(0, {value}, value, value):
                        failures.append(f"false negative for {value}")
                        return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()
        assert not failures


# ---------------------------------------------------------------------------
# the on/off differential (the headline invariant)


class TestSkippingDifferential:
    @pytest.fixture(scope="class")
    def pair(self):
        on = make_audited_db(8, 100, 5, skipping=True)
        off = make_audited_db(8, 100, 5, skipping=False)
        return on, off

    def test_results_accessed_and_probes(self, pair):
        on, off = pair
        for sql in DIFFERENTIAL_QUERIES:
            result_on = on.execute(sql)
            result_off = off.execute(sql)
            assert sorted(map(repr, result_on.rows)) == sorted(
                map(repr, result_off.rows)
            ), sql
            assert result_on.accessed == result_off.accessed, sql

    def test_offline_verdicts_identical(self, pair):
        on, off = pair
        for sql in DIFFERENTIAL_QUERIES:
            if "COUNT" in sql:
                continue  # aggregate shape varies per offline strategy
            assert OfflineAuditor(on).audit(sql, "aud") == OfflineAuditor(
                off
            ).audit(sql, "aud"), sql

    def test_skipping_reduces_probes_on_selective_audit(self):
        db = make_audited_db(8, 100, 2, skipping=True)
        context = db.make_context()
        plan = db.plan_query("SELECT * FROM patients")
        instrumented = db.audit_manager.instrument(plan, heuristic="leaf-node")
        physical = db._optimizer.compile(instrumented)
        collect_rows(physical, context)
        assert context.audit_blocks_skipped > 0
        assert context.audit_probes_skipped > 0
        assert context.audit_probe_count + context.audit_probes_skipped == 100

    def test_zone_maps_skip_blocks_for_selective_scans(self):
        db = make_audited_db(8, 100, 5, skipping=True)
        context = db.make_context()
        physical = db._optimizer.compile(
            db.plan_query("SELECT * FROM patients WHERE age <= 5")
        )
        rows = collect_rows(physical, context)
        assert len(rows) == 5
        assert context.blocks_zone_skipped > 0
        assert context.blocks_scanned < 100 // 8


# ---------------------------------------------------------------------------
# recovery replay lands in consistent blocks


class TestRecoveryBlocks:
    def assert_block_invariants(self, table: Table) -> None:
        assert sum(len(b.rows) for b in table.blocks()) == len(table)
        for rid, block in table._rid_block.items():
            assert rid in block.rows
        for position in table.sketch_positions:
            for block in table.blocks():
                summary = table.fresh_summary(block)
                for row in block.rows_snapshot():
                    value = row[position]
                    if value is not None:
                        assert summary.may_contain_any(
                            position, {value}, value, value
                        )

    def test_replayed_rows_land_in_consistent_blocks(self, tmp_path):
        db = _audited_db(journal_path=tmp_path / "j")
        for pid in (1, 2, 3):
            db.execute(f"SELECT * FROM patients WHERE patientid = {pid}")
        expected = _log_rows(db)
        db.close()
        fresh = _audited_db()
        report = fresh.recover(tmp_path / "j")
        assert report.replayed == 3
        assert _log_rows(fresh) == expected
        for name in ("patients", "log"):
            self.assert_block_invariants(fresh.catalog.table(name))
        fresh.close()


# ---------------------------------------------------------------------------
# statistics invalidation on DML


class TestStatsInvalidation:
    def test_bulk_load_invalidates_cached_plans(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.execute("INSERT INTO t VALUES (1, 1)")
        sql = "SELECT * FROM t WHERE a = 1"
        db.execute(sql)
        old_tags = db._plan_cache_tags()
        assert db.plan_cache.match(sql, old_tags)[1] is not None
        before = db.catalog.stats_version
        values = ", ".join(f"({i}, {i})" for i in range(2, 40))
        db.execute(f"INSERT INTO t VALUES {values}")
        assert db.catalog.refresh_stats_version() > before
        # the 10x-grown table must not be served by the stale-costed plan
        assert db.plan_cache.match(sql, db._plan_cache_tags())[1] is None
        assert db.catalog.statistics("t").row_count == 39

    def test_small_churn_does_not_thrash(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        values = ", ".join(f"({i}, {i})" for i in range(64))
        db.execute(f"INSERT INTO t VALUES {values}")
        version = db.catalog.refresh_stats_version()
        db.execute("INSERT INTO t VALUES (64, 64)")  # 64 -> 65: same bucket
        assert db.catalog.refresh_stats_version() == version


# ---------------------------------------------------------------------------
# costed audit placement


class TestCostedPlacement:
    def test_cost_model_discounts_fused_leaf_placement(self):
        db = make_audited_db(8, 100, 2, skipping=True)
        from repro.optimizer.cost import CostModel

        model = CostModel(db.catalog, db.audit_manager.resolve_view)
        plan = db.plan_query("SELECT * FROM patients")
        leaf = db.audit_manager.instrument(plan, heuristic="leaf-node")
        # sensitive IDs {1, 2} live in the first of ~13 blocks: the
        # sketch-aware estimate must be far below the raw row count
        probes = model.estimate_plan_probes(leaf)
        assert 0 < probes < 100 / 2

    def test_cost_heuristic_preserves_accessed(self):
        db = make_audited_db(8, 100, 5, skipping=True)
        sql = "SELECT name FROM patients WHERE age < 30 AND patientid <= 50"
        baseline = db.execute(sql)
        db.audit_manager.heuristic = "cost"
        costed = db.execute(sql)
        assert sorted(costed.rows) == sorted(baseline.rows)
        assert costed.accessed == baseline.accessed

    def test_unknown_heuristic_still_rejected(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute(
            "CREATE AUDIT EXPRESSION e AS SELECT * FROM t "
            "FOR SENSITIVE TABLE t, PARTITION BY a"
        )
        from repro.errors import AuditError

        with pytest.raises(AuditError):
            db.audit_manager.instrument(
                db.plan_query("SELECT * FROM t"), heuristic="bogus"
            )
