"""Sharded-vs-single-node differentials for the cluster coordinator.

The contract under test: ``ClusterDatabase`` is *observationally
equivalent* to ``Database`` — same result multisets (exact lists when
ORDER BY imposes a total order), same ACCESSED sets, same trigger
firings and audit-log attribution, same offline-audit verdicts — while
actually scattering fragments across hash-partitioned shards.  Plus the
cluster-only surfaces: routing rejections, plan-cache topology tags,
resharding, per-shard journals, and single-shard crash recovery.
"""

from __future__ import annotations

import datetime

import pytest

from repro.cluster import ClusterDatabase, Topology, shard_of
from repro.database import Database
from repro.errors import (
    AccessDeniedError,
    ClusterError,
    ClusterRoutingError,
    DurabilityError,
    TriggerError,
)
from repro.testing import CrashError, FaultInjector

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

_CLOCK = lambda: datetime.datetime(2013, 4, 8, 12, 0, 0)  # noqa: E731

SCHEMA = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, disease VARCHAR,
                       age INT, zip VARCHAR);
CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, cost INT);
CREATE TABLE audit_log (uid VARCHAR, pid INT);
CREATE AUDIT EXPRESSION sick AS SELECT pid FROM patients
    WHERE disease = 'flu' FOR SENSITIVE TABLE patients, PARTITION BY pid;
"""

DISEASES = ("flu", "cold", "flu", "cough")


def _load(db, rows: int = 24) -> None:
    db.execute_script(SCHEMA)
    for i in range(rows):
        db.execute(
            f"INSERT INTO patients VALUES ({i}, 'p{i}', "
            f"'{DISEASES[i % len(DISEASES)]}', {20 + i % 7}, "
            f"'{11111 * (1 + i % 3)}')"
        )
        db.execute(f"INSERT INTO visits VALUES ({100 + i}, {i}, {i * 10})")


def _pair(shards: int = 3, rows: int = 24, **cluster_kwargs):
    single = Database(clock=_CLOCK)
    cluster = ClusterDatabase(shards=shards, clock=_CLOCK, **cluster_kwargs)
    _load(single, rows)
    _load(cluster, rows)
    return single, cluster


def _assert_same(single, cluster, sql: str, ordered: bool = False) -> None:
    lhs = single.execute(sql)
    rhs = cluster.execute(sql)
    if ordered:
        assert lhs.rows_list() == rhs.rows_list(), sql
    else:
        assert sorted(lhs.rows_list(), key=repr) == sorted(
            rhs.rows_list(), key=repr
        ), sql
    assert lhs.accessed == rhs.accessed, sql
    assert lhs.columns == rhs.columns, sql


QUERIES = [
    # SPJ over the partitioned table, armed and unarmed
    ("SELECT name, age FROM patients WHERE disease = 'flu'", False),
    ("SELECT name FROM patients WHERE age > 22 AND zip = '11111'", False),
    ("SELECT p.name, v.cost FROM patients p, visits v "
     "WHERE p.pid = v.pid AND v.cost > 50", False),
    # aggregates: global and grouped, partial/final split
    ("SELECT COUNT(*) FROM patients", False),
    ("SELECT disease, COUNT(*), SUM(age), MIN(age), MAX(age) "
     "FROM patients GROUP BY disease", False),
    ("SELECT zip, COUNT(*) FROM patients WHERE disease = 'flu' "
     "GROUP BY zip HAVING COUNT(*) > 1", False),
    # AVG is not splittable: falls back to gathering input rows
    ("SELECT AVG(age) FROM patients WHERE disease = 'flu'", False),
    ("SELECT COUNT(DISTINCT zip) FROM patients", False),
    # ORDER BY: k-way merged, totally ordered by the pid tiebreak
    ("SELECT pid, name FROM patients ORDER BY age DESC, pid", True),
    ("SELECT pid FROM patients WHERE disease = 'flu' ORDER BY pid", True),
    ("SELECT pid, age FROM patients ORDER BY age, pid LIMIT 5", True),
    # DISTINCT: local dedup + re-distinct at the gather
    ("SELECT DISTINCT disease FROM patients", False),
    ("SELECT DISTINCT zip, disease FROM patients WHERE age > 21", False),
    # replicated-only query (routes to shard 0)
    ("SELECT COUNT(*) FROM visits WHERE cost > 100", False),
]


LOG_TRIGGER = (
    "CREATE TRIGGER log_access ON ACCESS TO sick AS "
    "INSERT INTO audit_log SELECT user_id(), pid FROM accessed"
)


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_shard_count_invariance(shards: int) -> None:
    single, cluster = _pair(shards=shards)
    try:
        for db in (single, cluster):
            db.execute(LOG_TRIGGER)
        for sql, ordered in QUERIES:
            _assert_same(single, cluster, sql, ordered)
        # every disclosing query logged the same rows on both engines
        _assert_same(single, cluster, "SELECT uid, pid FROM audit_log")
        assert single.execute("SELECT COUNT(*) FROM audit_log").scalar() > 0
    finally:
        single.close()
        cluster.close()


def test_cluster_compiles_a_trigger_body_once(monkeypatch) -> None:
    """Repeated firings at the coordinator reuse one compiled body (and
    one routed ``accessed`` scan per shard)."""
    compiled = []
    compile_select = ClusterDatabase._compile_select

    def counting(self, statement, *args, **kwargs):
        compiled.append(statement)
        return compile_select(self, statement, *args, **kwargs)

    monkeypatch.setattr(ClusterDatabase, "_compile_select", counting)
    single, cluster = _pair(shards=2)
    try:
        for db in (single, cluster):
            db.execute(LOG_TRIGGER)
        # pre-aged: the firings below stay in one statistics bucket
        single.catalog.table("audit_log").bulk_load([("old", -1)] * 200)
        cluster.bulk_load("audit_log", [("old", -1)] * 200)
        body = cluster.catalog.trigger("log_access").body[0].select
        for user in ("alice", "bob") * 10:
            for db in (single, cluster):
                db.session.user_id = user
                db.execute("SELECT name FROM patients WHERE pid = 2")
        assert sum(statement is body for statement in compiled) == 1
        _assert_same(single, cluster, "SELECT uid, pid FROM audit_log")
        assert cluster.execute(
            "SELECT COUNT(*) FROM audit_log WHERE pid = 2"
        ).scalar() == 20
    finally:
        single.close()
        cluster.close()


def test_cluster_nested_firing_is_refused() -> None:
    """A body whose SELECT discloses ``sick`` again would fire inside its
    own firing: refused, as on a single node, with nothing logged."""
    single, cluster = _pair(shards=2)
    try:
        for db in (single, cluster):
            db.execute(
                "CREATE TRIGGER log_names ON ACCESS TO sick AS "
                "INSERT INTO audit_log SELECT p.name, a.pid "
                "FROM accessed a, patients p WHERE a.pid = p.pid"
            )
            for _ in range(2):
                with pytest.raises(TriggerError, match="already exists"):
                    db.execute("SELECT name FROM patients WHERE pid = 2")
            assert db.execute("SELECT * FROM audit_log").rows_list() == []
        assert not any(
            shard.catalog.has_table("accessed") for shard in cluster.shards
        )
    finally:
        single.close()
        cluster.close()


def test_rows_actually_partitioned() -> None:
    _, cluster = _pair(shards=3)
    counts = [
        len(list(shard.catalog.table("patients").rows()))
        for shard in cluster.shards
    ]
    try:
        assert sum(counts) == 24
        assert all(count < 24 for count in counts), counts
        for index, shard in enumerate(cluster.shards):
            for row in shard.catalog.table("patients").rows():
                assert shard_of(row[0], 3) == index
    finally:
        cluster.close()


def test_dml_differential() -> None:
    single, cluster = _pair()
    try:
        for db in (single, cluster):
            db.execute("INSERT INTO patients VALUES "
                       "(50, 'ada', 'flu', 33, '99999')")
            db.execute("INSERT INTO patients (pid, name, disease, age, zip) "
                       "SELECT pid + 100, name, disease, age + 1, zip "
                       "FROM patients WHERE disease = 'cough'")
            db.execute("UPDATE patients SET age = age + 10 "
                       "WHERE zip = '22222'")
            db.execute("DELETE FROM patients WHERE age > 35")
        _assert_same(single, cluster,
                     "SELECT pid, name, disease, age, zip FROM patients")
        _assert_same(single, cluster,
                     "SELECT disease, COUNT(*) FROM patients GROUP BY disease")
    finally:
        single.close()
        cluster.close()


def test_dml_rowcounts_match() -> None:
    single, cluster = _pair()
    try:
        for sql in (
            "UPDATE patients SET age = age + 1 WHERE disease = 'flu'",
            "DELETE FROM patients WHERE zip = '33333'",
            "UPDATE visits SET cost = cost + 5 WHERE cost < 40",
        ):
            assert single.execute(sql).rowcount == \
                cluster.execute(sql).rowcount, sql
    finally:
        single.close()
        cluster.close()


def test_trigger_attribution_differential() -> None:
    single, cluster = _pair()
    try:
        for db in (single, cluster):
            db.execute("CREATE TRIGGER log_access ON ACCESS TO sick AS "
                       "INSERT INTO audit_log SELECT user_id(), pid "
                       "FROM accessed")
        for user, sql in [
            ("alice", "SELECT name FROM patients WHERE age >= 24"),
            ("bob", "SELECT COUNT(*) FROM patients WHERE disease = 'flu'"),
            ("carol", "SELECT name FROM patients WHERE disease = 'cold'"),
            ("dave", "SELECT pid FROM patients ORDER BY pid LIMIT 3"),
        ]:
            for db in (single, cluster):
                db.session.user_id = user
                db.execute(sql)
        _assert_same(single, cluster, "SELECT uid, pid FROM audit_log")
    finally:
        single.close()
        cluster.close()


def test_before_deny_differential() -> None:
    single, cluster = _pair()
    try:
        for db in (single, cluster):
            db.execute("CREATE TRIGGER guard ON ACCESS TO sick BEFORE AS "
                       "IF ((SELECT COUNT(*) FROM accessed) > 2) "
                       "DENY 'too many'")
        armed = "SELECT name FROM patients WHERE disease = 'flu'"
        with pytest.raises(AccessDeniedError):
            single.execute(armed)
        with pytest.raises(AccessDeniedError):
            cluster.execute(armed)
        narrow = "SELECT name FROM patients WHERE pid = 0"
        _assert_same(single, cluster, narrow)
    finally:
        single.close()
        cluster.close()


def test_offline_audit_differential() -> None:
    single, cluster = _pair()
    try:
        for sql in (
            "SELECT name FROM patients WHERE age > 23",
            "SELECT disease, COUNT(*) FROM patients GROUP BY disease",
            "SELECT p.name FROM patients p, visits v "
            "WHERE p.pid = v.pid AND v.cost > 150",
        ):
            assert single.offline_audit(sql, "sick") == \
                cluster.offline_audit(sql, "sick"), sql
    finally:
        single.close()
        cluster.close()


def test_transaction_rollback_spans_shards() -> None:
    _, cluster = _pair()
    try:
        before = cluster.execute("SELECT COUNT(*) FROM patients").scalar()
        with pytest.raises(RuntimeError):
            with cluster.transaction():
                cluster.execute("INSERT INTO patients VALUES "
                                "(70, 'x', 'flu', 1, '1')")
                cluster.execute("INSERT INTO visits VALUES (900, 70, 1)")
                raise RuntimeError("abort")
        assert cluster.execute(
            "SELECT COUNT(*) FROM patients").scalar() == before
        assert cluster.execute(
            "SELECT COUNT(*) FROM visits WHERE vid = 900").scalar() == 0
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# routing restrictions (documented v1 surface)


def test_routing_rejections() -> None:
    _, cluster = _pair()
    try:
        with pytest.raises(ClusterRoutingError):
            cluster.execute("SELECT name FROM patients WHERE pid IN "
                            "(SELECT pid FROM patients WHERE age > 30)")
        with pytest.raises(ClusterRoutingError):
            cluster.execute("SELECT a.name FROM patients a, patients b "
                            "WHERE a.pid = b.pid")
        with pytest.raises(ClusterRoutingError):
            cluster.execute("UPDATE patients SET pid = pid + 1000")
        with pytest.raises(ClusterRoutingError):
            cluster.execute("DELETE FROM visits WHERE pid IN "
                            "(SELECT pid FROM patients)")
        with pytest.raises(ClusterError):
            cluster.trigger_mode = "async"
    finally:
        cluster.close()


def test_audit_on_second_column_rejected() -> None:
    _, cluster = _pair()
    try:
        with pytest.raises(ClusterRoutingError):
            cluster.execute(
                "CREATE AUDIT EXPRESSION byage AS SELECT age FROM patients "
                "FOR SENSITIVE TABLE patients, PARTITION BY age")
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# plan cache: topology-versioned tags


def test_plan_cache_hits_and_topology_invalidation() -> None:
    _, cluster = _pair(shards=2)
    sql = "SELECT disease, COUNT(*) FROM patients GROUP BY disease"
    try:
        first = cluster.execute(sql)
        hits_before = cluster.plan_cache.stats()["hits"]
        second = cluster.execute(sql)
        assert cluster.plan_cache.stats()["hits"] == hits_before + 1
        assert sorted(first.rows_list()) == sorted(second.rows_list())

        # resharding bumps the topology version: the cached scatter plan
        # (compiled against 2 shards) must not be reused across 4
        cluster.reshard(4)
        third = cluster.execute(sql)
        assert sorted(third.rows_list()) == sorted(first.rows_list())
        assert cluster.plan_cache.stats()["hits"] == hits_before + 1
    finally:
        cluster.close()


def test_point_lookups_share_one_template() -> None:
    """Inlined keys are lifted before the cluster's plan-cache lookup
    too: one compile serves every key, and each answer (rows and
    ACCESSED) is the single-node one."""
    single, cluster = _pair(shards=2)
    sql = "SELECT name, disease FROM patients WHERE pid = {}"
    try:
        before = cluster.plan_cache.stats()
        for pid in (0, 1, 5, 13, 99):
            _assert_same(single, cluster, sql.format(pid))
        after = cluster.plan_cache.stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 4
    finally:
        cluster.close()


def test_plan_cache_invalidated_when_table_becomes_partitioned() -> None:
    _, cluster = _pair(shards=3)
    sql = "SELECT pid, COUNT(*) FROM visits GROUP BY pid"
    try:
        baseline = sorted(cluster.execute(sql).rows_list())
        version = cluster.topology.version
        # visits becomes partitioned -> single-shard route is stale
        cluster.execute(
            "CREATE AUDIT EXPRESSION costly AS SELECT pid FROM visits "
            "WHERE cost > 0 FOR SENSITIVE TABLE visits, PARTITION BY pid")
        assert cluster.topology.version > version
        assert sorted(cluster.execute(sql).rows_list()) == baseline
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# repartitioning and resharding


def test_create_audit_repartitions_replicated_table() -> None:
    single = Database(clock=_CLOCK)
    cluster = ClusterDatabase(shards=3, clock=_CLOCK)
    try:
        for db in (single, cluster):
            db.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR)")
            for i in range(12):
                db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        assert not cluster.topology.is_partitioned("t")
        # every shard holds a full replica until the audit DDL lands
        assert all(
            len(list(shard.catalog.table("t").rows())) == 12
            for shard in cluster.shards
        )
        for db in (single, cluster):
            db.execute("CREATE AUDIT EXPRESSION tk AS SELECT k FROM t "
                       "FOR SENSITIVE TABLE t, PARTITION BY k")
        assert cluster.topology.is_partitioned("t")
        assert sum(
            len(list(shard.catalog.table("t").rows()))
            for shard in cluster.shards
        ) == 12
        # per-shard ID views materialized over exactly the owned slice
        for index, shard in enumerate(cluster.shards):
            assert shard.audit_manager.view("tk").ids() == frozenset(
                k for k in range(12) if shard_of(k, 3) == index
            )
        _assert_same(single, cluster, "SELECT v FROM t WHERE k > 4")
    finally:
        single.close()
        cluster.close()


def test_reshard_preserves_data_and_audit() -> None:
    single, cluster = _pair(shards=2)
    try:
        expected_ids = single.execute(
            "SELECT name FROM patients WHERE disease = 'flu'"
        ).accessed["sick"]
        for count in (4, 1, 3):
            cluster.reshard(count)
            assert cluster.shard_count == count
            result = cluster.execute(
                "SELECT name FROM patients WHERE disease = 'flu'")
            assert result.accessed["sick"] == expected_ids
            for sql, ordered in QUERIES:
                _assert_same(single, cluster, sql, ordered)
    finally:
        single.close()
        cluster.close()


def test_reshard_refuses_with_journal(tmp_path) -> None:
    cluster = ClusterDatabase(shards=2)
    cluster.attach_journal(tmp_path / "j")
    try:
        with pytest.raises(ClusterError):
            cluster.reshard(4)
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# per-shard journals, merged recovery


def _journaled_pair(tmp_path, shards: int = 3):
    single = Database(clock=_CLOCK)
    cluster = ClusterDatabase(shards=shards, clock=_CLOCK)
    single.attach_journal(tmp_path / "single")
    cluster.attach_journal(tmp_path / "cluster")
    _load(single)
    _load(cluster)
    for db in (single, cluster):
        db.execute("CREATE TRIGGER log_access ON ACCESS TO sick AS "
                   "INSERT INTO audit_log SELECT user_id(), pid "
                   "FROM accessed")
    return single, cluster


WORKLOAD = [
    ("alice", "SELECT name FROM patients WHERE age >= 24"),
    ("bob", "SELECT pid FROM patients WHERE disease = 'flu' ORDER BY pid"),
    ("carol", "SELECT COUNT(*) FROM patients WHERE zip = '11111'"),
    ("dave", "SELECT name FROM patients WHERE pid <= 6"),
]


def _log_rows(db) -> set:
    return set(db.execute("SELECT uid, pid FROM audit_log").rows_list())


def test_journal_split_covers_all_ids(tmp_path) -> None:
    single, cluster = _journaled_pair(tmp_path)
    try:
        for user, sql in WORKLOAD:
            for db in (single, cluster):
                db.session.user_id = user
                db.execute(sql)
        assert _log_rows(single) == _log_rows(cluster)
        manifest = (tmp_path / "cluster" / "cluster.json").read_text()
        assert '"shards": 3' in manifest
    finally:
        single.close()
        cluster.close()


def test_cluster_recovery_matches_no_crash_run(tmp_path) -> None:
    """Satellite: kill one shard's journal mid-batch, recover, compare."""
    # ground truth: fault-free run
    truth = Database(clock=_CLOCK)
    _load(truth)
    truth.execute("CREATE TRIGGER log_access ON ACCESS TO sick AS "
                  "INSERT INTO audit_log SELECT user_id(), pid "
                  "FROM accessed")
    completed_rows: list[set] = []
    for user, sql in WORKLOAD:
        truth.session.user_id = user
        truth.execute(sql)
        completed_rows.append(_log_rows(truth))
    truth.close()

    # faulted run: shard 1's journal dies on its second append
    injector = FaultInjector()
    cluster = ClusterDatabase(
        shards=3, clock=_CLOCK, shard_fault_injectors={1: injector}
    )
    cluster.attach_journal(tmp_path / "crash")
    _load(cluster)
    cluster.execute("CREATE TRIGGER log_access ON ACCESS TO sick AS "
                    "INSERT INTO audit_log SELECT user_id(), pid "
                    "FROM accessed")
    injector.arm("journal-write", at_hit=2)
    completed = 0
    crashed = False
    for user, sql in WORKLOAD:
        cluster.session.user_id = user
        try:
            cluster.execute(sql)
            completed += 1
        except CrashError:
            crashed = True
            break
    assert crashed, "the armed journal fault must fire inside the workload"
    # the "process" is dead: rebuild a fresh cluster over the same shape
    # and replay the surviving per-shard journals
    fresh = ClusterDatabase(shards=3, clock=_CLOCK)
    _load(fresh)
    fresh.execute("CREATE TRIGGER log_access ON ACCESS TO sick AS "
                  "INSERT INTO audit_log SELECT user_id(), pid "
                  "FROM accessed")
    report = fresh.recover(tmp_path / "crash")
    assert report.intents >= completed
    recovered = _log_rows(fresh)
    # zero lost firings: every completed query's attribution survives
    assert recovered >= completed_rows[completed - 1] if completed else True
    # bounded speculation: at most the mid-flight query's rows are extra
    assert recovered <= completed_rows[min(completed, len(WORKLOAD) - 1)]
    # idempotent: recovering again adds nothing
    again = fresh.recover(tmp_path / "crash")
    assert again.replayed == 0
    assert _log_rows(fresh) == recovered
    fresh.close()
    cluster.close()


def test_recover_rejects_wrong_shard_count(tmp_path) -> None:
    cluster = ClusterDatabase(shards=2)
    cluster.attach_journal(tmp_path / "j")
    cluster.close()
    other = ClusterDatabase(shards=3)
    try:
        with pytest.raises(ClusterError):
            other.recover(tmp_path / "j")
    finally:
        other.close()


def test_double_attach_rejected(tmp_path) -> None:
    cluster = ClusterDatabase(shards=2)
    cluster.attach_journal(tmp_path / "j")
    try:
        with pytest.raises(DurabilityError):
            cluster.attach_journal(tmp_path / "j2")
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# topology unit behaviour


def test_shard_of_is_stable_and_uniform_enough() -> None:
    assignments = [shard_of(value, 4) for value in range(1000)]
    assert assignments == [shard_of(value, 4) for value in range(1000)]
    counts = [assignments.count(index) for index in range(4)]
    assert all(count > 150 for count in counts), counts
    assert shard_of("texty", 1) == 0


def test_topology_conflicting_partition_column() -> None:
    topology = Topology(2)
    topology.add_partitioned("t", "a", 0)
    topology.add_partitioned("t", "a", 0)  # idempotent
    with pytest.raises(ClusterRoutingError):
        topology.add_partitioned("t", "b", 1)
