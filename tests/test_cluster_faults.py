"""Fault-tolerance tests for the scatter-gather coordinator.

The contract under test, per failure class:

* **transient fragment failures** (an ``Exception`` at the scatter
  site) retry with jittered exponential backoff and converge to the
  exact single-node result — retries are invisible except in the
  ``scatter_retries`` counter;
* **deterministic engine errors** (``ReproError``) propagate unchanged
  with zero retries and zero health damage (single-vs-cluster parity);
* **slow or hung shards** are bounded by ``shard_deadline``: the
  fragment is cancelled cooperatively, the miss is a health failure,
  and repeated misses escalate healthy → suspect → quarantined;
* **dead shards** (``CrashError``) quarantine immediately; reads
  degrade under ``fail_open`` (one audit gap per skipped shard) and
  refuse under ``fail_closed``; DML to a quarantined owner is refused
  up front and never retried;
* **rejoin** repairs stale replicas from a live copy, replays the
  shard's journal with the original attribution, and restores full
  parity.

Plus the satellites: :func:`repro.cluster.health.backoff_delay`
property bounds, ``retry_after`` on overload error frames, and
``retried_batches`` in ``audit_trail_health``.
"""

from __future__ import annotations

import datetime
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    ClusterDatabase,
    HealthTracker,
    backoff_delay,
    shard_of,
)
from repro.database import Database
from repro.errors import (
    AuditUnavailableError,
    ClusterDegradedError,
    ExecutionError,
    ServerOverloadedError,
    ShardTimeoutError,
)
from repro.server import Connection, protocol
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

TRIGGER = ("CREATE TRIGGER log_access ON ACCESS TO sick AS "
           "INSERT INTO audit_log SELECT user_id(), pid FROM accessed")

DISEASES = ("flu", "cold", "flu", "cough")

ARMED = "SELECT pid, name FROM patients WHERE disease = 'flu' ORDER BY pid"

#: armed workload: every query's ACCESSED set is non-empty, so every
#: execution journals intents and fires the trigger
WORKLOAD = (
    ARMED,
    "SELECT COUNT(*) FROM patients WHERE disease = 'flu'",
    "SELECT disease, COUNT(*) FROM patients GROUP BY disease",
    "SELECT pid FROM patients WHERE age > 21 AND disease = 'flu' "
    "ORDER BY pid",
)


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


def _faulty_cluster(shards: int = 3, victim: int = 1, **cluster_kwargs):
    """A loaded cluster with a dedicated injector on shard ``victim``."""
    injector = FaultInjector()
    cluster = ClusterDatabase(
        shards=shards,
        clock=_CLOCK,
        shard_fault_injectors={victim: injector},
        **cluster_kwargs,
    )
    _load(cluster)
    return cluster, injector


def _key_owned_by(shard: int, shards: int = 3, start: int = 1000) -> int:
    key = start
    while shard_of(key, shards) != shard:
        key += 1
    return key


# ----------------------------------------------------------------------
# backoff_delay: property tests (satellite 4)


@settings(max_examples=200, deadline=None)
@given(
    attempt=st.integers(min_value=0, max_value=40),
    base=st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False),
    spread=st.floats(min_value=0.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backoff_delay_always_within_base_and_cap(
    attempt, base, spread, seed
) -> None:
    import random

    cap = base + spread
    delay = backoff_delay(attempt, base, cap, random.Random(seed))
    assert base <= delay <= cap


@settings(max_examples=100, deadline=None)
@given(
    attempt=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backoff_delay_range_grows_exponentially(attempt, seed) -> None:
    """With the same draw, a later attempt never gets a *smaller* delay
    and stays under the exponential ceiling until it saturates at cap."""
    import random

    base, cap = 0.01, 100.0
    draw = random.Random(seed).random()

    class _Fixed:
        def random(self):
            return draw

    this = backoff_delay(attempt, base, cap, _Fixed())
    after = backoff_delay(attempt + 1, base, cap, _Fixed())
    assert this <= after
    assert this <= min(cap, base * 2 ** attempt)


def test_backoff_delay_rejects_bad_bounds() -> None:
    import random

    with pytest.raises(ValueError):
        backoff_delay(0, -0.1, 1.0, random.Random(0))
    with pytest.raises(ValueError):
        backoff_delay(0, 1.0, 0.5, random.Random(0))


def test_backoff_delay_degenerate_base_equals_cap() -> None:
    import random

    assert backoff_delay(7, 0.25, 0.25, random.Random(3)) == 0.25


# ----------------------------------------------------------------------
# HealthTracker: breaker state machine


def test_health_tracker_escalates_and_resets() -> None:
    tracker = HealthTracker(2, suspect_after=1, quarantine_after=3)
    assert tracker.state(0) == HEALTHY
    assert tracker.record_failure(0, OSError("x")) == SUSPECT
    assert tracker.record_failure(0, OSError("x")) == SUSPECT
    # success before the threshold resets the streak entirely
    tracker.record_success(0)
    assert tracker.state(0) == HEALTHY
    for _ in range(3):
        state = tracker.record_failure(0, OSError("x"))
    assert state == QUARANTINED
    assert tracker.is_quarantined(0)
    assert tracker.live() == (1,)
    assert tracker.quarantined() == (0,)
    # quarantine is sticky: successes do not readmit behind our back
    tracker.record_success(0)
    assert tracker.state(0) == QUARANTINED
    tracker.readmit(0)
    assert tracker.state(0) == HEALTHY
    assert tracker.live() == (0, 1)


def test_health_tracker_fatal_failure_skips_suspect() -> None:
    tracker = HealthTracker(3)
    assert tracker.record_failure(2, CrashError("dead"), fatal=True) \
        == QUARANTINED
    (entry,) = [d for d in tracker.describe() if d["shard"] == 2]
    assert entry["state"] == QUARANTINED
    assert "dead" in entry["quarantine_reason"]


# ----------------------------------------------------------------------
# transient failures: retry with parity


def test_transient_scatter_failure_retries_to_parity() -> None:
    single = Database(clock=_CLOCK)
    _load(single)
    cluster, injector = _faulty_cluster(shard_retries=2,
                                        retry_backoff_base=0.001,
                                        retry_backoff_cap=0.01)
    try:
        injector.arm("shard-scatter", error=OSError("blip"))
        result = cluster.execute(ARMED)
        assert result.rows_list() == single.execute(ARMED).rows_list()
        assert result.accessed == single.execute(ARMED).accessed
        health = cluster.cluster_health()
        assert health["scatter_retries"] >= 1
        assert health["quarantined"] == []
        assert all(d["state"] == HEALTHY for d in health["shards"])
        assert cluster.cluster_gaps == []
    finally:
        cluster.close()
        single.close()


def test_retries_exhausted_fail_open_degrades_with_gap() -> None:
    cluster, injector = _faulty_cluster(
        shard_retries=1, retry_backoff_base=0.001, retry_backoff_cap=0.01,
        audit_policy="fail_open", degraded_reads=True,
    )
    try:
        injector.arm("shard-scatter", error=OSError("down"), repeat=True)
        full = 24
        result = cluster.execute("SELECT COUNT(*) FROM patients")
        # partial: the victim's rows are missing
        assert result.rows_list()[0][0] < full
        health = cluster.cluster_health()
        assert health["degraded_reads"] >= 1
        (gap,) = [g for g in cluster.cluster_gaps
                  if g["site"] == "shard-read"]
        assert gap["shard"] == 1
        assert "COUNT" in gap["sql"]
        # the damage shows up in the merged audit-trail health
        assert cluster.audit_trail_health()["audit_gaps"] >= 1
    finally:
        cluster.close()


def test_retries_exhausted_fail_closed_refuses() -> None:
    cluster, injector = _faulty_cluster(
        shard_retries=1, retry_backoff_base=0.001, retry_backoff_cap=0.01,
        audit_policy="fail_closed",
    )
    try:
        injector.arm("shard-scatter", error=OSError("down"), repeat=True)
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.execute(ARMED)
        assert excinfo.value.shards == (1,)
        assert cluster.cluster_gaps == []  # refusal leaves no gap
    finally:
        cluster.close()


def test_degraded_reads_off_refuses_even_fail_open() -> None:
    cluster, injector = _faulty_cluster(
        shard_retries=0, audit_policy="fail_open", degraded_reads=False,
    )
    try:
        injector.arm("shard-scatter", error=OSError("down"), repeat=True)
        with pytest.raises(ClusterDegradedError):
            cluster.execute(ARMED)
    finally:
        cluster.close()


def test_deterministic_errors_propagate_without_retry() -> None:
    single = Database(clock=_CLOCK)
    _load(single)
    cluster = ClusterDatabase(shards=3, clock=_CLOCK, shard_retries=5)
    _load(cluster)
    bad = "SELECT age / (age - age) FROM patients"
    try:
        with pytest.raises(ExecutionError):
            single.execute(bad)
        with pytest.raises(ExecutionError):
            cluster.execute(bad)
        health = cluster.cluster_health()
        # a ReproError is the query's fault, not the shard's
        assert health["scatter_retries"] == 0
        assert all(d["state"] == HEALTHY for d in health["shards"])
    finally:
        cluster.close()
        single.close()


# ----------------------------------------------------------------------
# deadlines: bounded latency + breaker escalation


@pytest.mark.parametrize("shards", [1, 2])
def test_shard_deadline_bounds_a_hung_shard(shards: int) -> None:
    """A shard hanging 5 s per fragment costs a query the deadline,
    never the hang: every query answers within deadline + 0.5 s, both
    while the shard is suspect and after the breaker opens. The
    fragment's own DeadlineToken does the bounding: no other thread
    exists to stop it, with one shard or several. The hung shard runs
    first, so with several shards a healthy fragment runs after the
    timed-out one on a fresh budget and still returns its rows."""
    bound = 0.2 + 0.5
    victim = 0
    cluster, injector = _faulty_cluster(
        shards=shards, victim=victim,
        shard_deadline=0.2, shard_retries=0,
        audit_policy="fail_open", quarantine_after=3,
    )

    def timed(sql: str):
        started = time.monotonic()
        result = cluster.execute(sql)
        elapsed = time.monotonic() - started
        assert elapsed <= bound, f"deadline did not bound the hang: {elapsed}"
        return result

    try:
        injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        result = timed("SELECT COUNT(*) FROM patients")
        # the hung shard's rows are missing; with one shard every row is,
        # and the merged COUNT reads 0, as a COUNT over no rows does
        count = result.rows_list()[0][0]
        if shards == 1:
            assert count == 0
        else:
            assert 0 < count < 24
        health = cluster.cluster_health()
        assert health["deadline_timeouts"] >= 1
        assert health["shards"][victim]["state"] in (SUSPECT, QUARANTINED)
        assert "ShardTimeoutError" in str(
            health["shards"][victim]["last_error"]
        )
        for _ in range(2):
            for sql in WORKLOAD:
                timed(sql)
    finally:
        cluster.close()


def test_every_shard_hung_costs_one_deadline_per_shard() -> None:
    """Fragments run one after another, each under its own deadline, so
    with every shard hung a fail_open statement answers (empty, with a
    gap per shard) within shards × deadline + 0.5 s — the per-fragment
    budget's worst case. A fail_closed statement refuses at the first
    lost shard, so it waits one deadline, not one per shard."""
    shards, deadline = 3, 0.1
    for policy in ("fail_open", "fail_closed"):
        bound = (shards if policy == "fail_open" else 1) * deadline + 0.5
        injector = FaultInjector()
        cluster = ClusterDatabase(
            shards=shards, clock=_CLOCK,
            shard_fault_injectors={
                index: injector for index in range(shards)
            },
            shard_deadline=deadline, shard_retries=0,
            audit_policy=policy, quarantine_after=10,
        )
        _load(cluster)
        try:
            injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
            for sql in WORKLOAD:
                started = time.monotonic()
                if policy == "fail_open":
                    cluster.execute(sql)
                else:
                    with pytest.raises(ClusterDegradedError):
                        cluster.execute(sql)
                elapsed = time.monotonic() - started
                assert elapsed <= bound, (
                    f"{policy} {sql!r}: {elapsed:.2f}s > {bound:.2f}s"
                )
            # fail_closed stops at the first shard's timeout
            per_statement = shards if policy == "fail_open" else 1
            health = cluster.cluster_health()
            assert health["deadline_timeouts"] == \
                per_statement * len(WORKLOAD)
            assert injector.hit_count("shard-scatter") == \
                per_statement * len(WORKLOAD)
        finally:
            cluster.close()


def test_every_shard_hung_count_reads_zero() -> None:
    """A fail_open read that loses every shard merges no partial rows: its
    COUNT reads 0, as a COUNT over no rows does on a single node, while
    SUM, MIN and MAX over no partials stay NULL."""
    shards = 2
    injector = FaultInjector()
    cluster = ClusterDatabase(
        shards=shards, clock=_CLOCK,
        shard_fault_injectors={index: injector for index in range(shards)},
        shard_deadline=0.1, shard_retries=0,
        audit_policy="fail_open", quarantine_after=10,
    )
    _load(cluster)
    sql = "SELECT COUNT(*), SUM(age), MIN(age), MAX(age) FROM patients"
    try:
        injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        assert cluster.execute(sql).rows_list() == [(0, None, None, None)]
        assert cluster.cluster_health()["deadline_timeouts"] == shards
        injector.disarm("shard-scatter")
        single = Database(clock=_CLOCK)
        _load(single)
        try:
            assert cluster.execute(sql).rows_list() == \
                single.execute(sql).rows_list()
            assert single.execute(
                sql + " WHERE age < 0"
            ).rows_list() == [(0, None, None, None)]
        finally:
            single.close()
    finally:
        cluster.close()


def test_repeated_deadline_misses_quarantine_then_skip() -> None:
    cluster, injector = _faulty_cluster(
        shard_deadline=0.15, shard_retries=0,
        audit_policy="fail_open", quarantine_after=2,
    )
    try:
        injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        cluster.execute("SELECT COUNT(*) FROM patients")
        cluster.execute("SELECT COUNT(*) FROM patients")
        assert cluster.cluster_health()["quarantined"] == [1]
        hits = injector.hit_count("shard-scatter")
        started = time.monotonic()
        cluster.execute("SELECT COUNT(*) FROM patients")
        elapsed = time.monotonic() - started
        # quarantined shard is skipped outright: no new fault-site hits,
        # no deadline wait
        assert injector.hit_count("shard-scatter") == hits
        assert elapsed < 0.15
    finally:
        cluster.close()


def test_deadline_fail_closed_raises_with_timeout_cause() -> None:
    cluster, injector = _faulty_cluster(
        shard_deadline=0.2, shard_retries=0, audit_policy="fail_closed",
    )
    try:
        injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        started = time.monotonic()
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.execute(ARMED)
        assert time.monotonic() - started < 2.5
        assert isinstance(excinfo.value.__cause__, ShardTimeoutError)
    finally:
        cluster.close()


def test_failed_scatter_releases_locks() -> None:
    """Satellite 1: an aborted scatter must not wedge later writes."""
    cluster, injector = _faulty_cluster(
        shard_deadline=0.2, shard_retries=0, audit_policy="fail_closed",
    )
    try:
        injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        with pytest.raises(ClusterDegradedError):
            cluster.execute(ARMED)
        injector.disarm()
        done = threading.Event()

        def _write():
            cluster.execute(
                "INSERT INTO patients VALUES (500, 'late', 'flu', 40, '1')"
            )
            done.set()

        worker = threading.Thread(target=_write, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert done.is_set(), "post-failure DML deadlocked on a stale lock"
        assert cluster.execute(
            "SELECT COUNT(*) FROM patients WHERE pid = 500"
        ).rows_list() == [(1,)]
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# dead shards: quarantine, DML refusal, never-retried DML


def test_crash_error_quarantines_immediately() -> None:
    cluster, injector = _faulty_cluster(
        shard_retries=5, audit_policy="fail_open",
    )
    try:
        injector.arm("shard-scatter", error=CrashError("shard died"))
        cluster.execute("SELECT COUNT(*) FROM patients")
        health = cluster.cluster_health()
        assert health["quarantined"] == [1]
        # fatal: no retry was attempted against the corpse
        assert health["scatter_retries"] == 0
    finally:
        cluster.close()


def test_dml_to_quarantined_owner_refused_never_retried() -> None:
    cluster, injector = _faulty_cluster(shard_retries=5)
    try:
        loaded_hits = injector.hit_count("shard-dml")
        cluster.quarantine_shard(1, "test")
        dead_key = _key_owned_by(1)
        live_key = _key_owned_by(0)
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.execute(
                f"INSERT INTO patients VALUES ({dead_key}, 'x', 'flu', 1, '1')"
            )
        assert excinfo.value.shards == (1,)
        # a live owner still accepts writes while shard 1 is down
        cluster.execute(
            f"INSERT INTO patients VALUES ({live_key}, 'y', 'flu', 1, '1')"
        )
        # partitioned UPDATE / DELETE / DDL all refuse outright
        for sql in (
            "UPDATE patients SET age = 1 WHERE pid = 0",
            "DELETE FROM patients WHERE pid = 0",
            "CREATE TABLE later (x INT)",
        ):
            with pytest.raises(ClusterDegradedError):
                cluster.execute(sql)
        # refusal happens before the shard-dml fault site: no new hits
        # on the dead shard, so nothing was (re)tried against it
        assert injector.hit_count("shard-dml") == loaded_hits
    finally:
        cluster.close()


def test_failing_dml_is_never_retried() -> None:
    cluster, injector = _faulty_cluster(shard_retries=5)
    try:
        injector.arm("shard-dml", error=OSError("disk full"), repeat=True)
        before = injector.hit_count("shard-dml")
        key = _key_owned_by(1)
        with pytest.raises(OSError):
            cluster.execute(
                f"INSERT INTO patients VALUES ({key}, 'z', 'flu', 1, '1')"
            )
        # exactly one hit: DML is not idempotent, so no backoff loop
        assert injector.hit_count("shard-dml") == before + 1
        assert cluster.cluster_health()["shards"][1]["state"] == SUSPECT
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# journal slice failures feed the audit policy


def test_shard_journal_failure_fail_open_records_gap(tmp_path) -> None:
    injector = FaultInjector()
    cluster = ClusterDatabase(
        shards=3, clock=_CLOCK, shard_fault_injectors={1: injector},
        audit_policy="fail_open",
    )
    cluster.attach_journal(tmp_path / "j")
    _load(cluster)
    cluster.execute(TRIGGER)
    try:
        injector.arm("shard-journal", error=OSError("io"), repeat=True)
        cluster.execute(ARMED)  # armed query journals intents per shard
        gaps = [g for g in cluster.cluster_gaps
                if g["site"] == "shard-journal"]
        assert gaps and gaps[0]["shard"] == 1
    finally:
        cluster.close()


def test_shard_journal_failure_fail_closed_refuses(tmp_path) -> None:
    injector = FaultInjector()
    cluster = ClusterDatabase(
        shards=3, clock=_CLOCK, shard_fault_injectors={1: injector},
        audit_policy="fail_closed",
    )
    cluster.attach_journal(tmp_path / "j")
    _load(cluster)
    cluster.execute(TRIGGER)
    try:
        injector.arm("shard-journal", error=OSError("io"), repeat=True)
        with pytest.raises(AuditUnavailableError):
            cluster.execute(ARMED)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# rejoin: replica repair + journal replay with original attribution


def test_rejoin_repairs_replicas_and_restores_parity(tmp_path) -> None:
    single = Database(clock=_CLOCK)
    _load(single)
    single.execute(TRIGGER)
    cluster, injector = _faulty_cluster(audit_policy="fail_open")
    cluster.attach_journal(tmp_path / "j")
    cluster.execute(TRIGGER)
    try:
        # kill shard 1, then keep working degraded
        injector.arm("shard-scatter", error=CrashError("died"))
        single.execute("SELECT COUNT(*) FROM patients")
        cluster.execute("SELECT COUNT(*) FROM patients")
        assert cluster.cluster_health()["quarantined"] == [1]
        # replicated DML while down: replicas diverge, cluster stays up
        single.execute("INSERT INTO visits VALUES (900, 0, 5)")
        cluster.execute("INSERT INTO visits VALUES (900, 0, 5)")
        assert "visits" in cluster.cluster_health()["stale_replicas"]
        # an armed query under a different user, while degraded
        single.session.user_id = "carol"
        cluster.session.user_id = "carol"
        single.execute(ARMED)
        cluster.execute(ARMED)
        single.session.user_id = "admin"
        cluster.session.user_id = "admin"

        report = cluster.rejoin_shard(1)
        health = cluster.cluster_health()
        assert health["quarantined"] == []
        assert health["stale_replicas"] == []
        assert report is not None
        # rejoined replica matches a live one
        sizes = {len(list(shard.catalog.table("visits").rows()))
                 for shard in cluster.shards}
        assert len(sizes) == 1
        # replay added no duplicate firings: attribution matches single
        lhs = sorted(single.execute(
            "SELECT uid, pid FROM audit_log"
        ).rows_list())
        rhs = sorted(cluster.execute(
            "SELECT uid, pid FROM audit_log"
        ).rows_list())
        # degraded-read firings on the dead shard are lost (they are the
        # recorded gap) — everything attributed must be a subset with
        # the same users, and post-rejoin queries fully match
        assert set(rhs) <= set(lhs)
        post_single = single.execute(ARMED)
        post_cluster = cluster.execute(ARMED)
        assert post_single.rows_list() == post_cluster.rows_list()
        assert post_single.accessed == post_cluster.accessed
    finally:
        cluster.close()
        single.close()


def _sorted_rows(result) -> list:
    return sorted(result.rows_list(), key=repr)


def _log(db) -> list:
    return sorted(db.execute("SELECT uid, pid FROM audit_log").rows_list())


def _run_both(truth, cluster, user: str) -> list:
    """One pass of :data:`WORKLOAD` on both engines under ``user``."""
    outcomes = []
    for sql in WORKLOAD:
        truth.session.user_id = cluster.session.user_id = user
        outcomes.append((truth.execute(sql), cluster.execute(sql)))
    return outcomes


def test_chaos_flaky_slow_dead_rejoin_differential(tmp_path) -> None:
    """The armed workload through a fault-injected cluster and a single
    node, phase by phase on shard 1: *flaky* — retries restore exact
    parity and attribution; *slow* — a fail-closed twin never answers
    partially, the fail-open cluster records one gap per degraded read;
    *dead* — quarantine, owner DML refused, a gap per degraded query;
    *rejoin* — replay invents no attribution, and full parity returns
    with zero lost firings."""
    truth = Database(clock=_CLOCK)
    _load(truth)
    truth.execute(TRIGGER)
    injector = FaultInjector()
    cluster = ClusterDatabase(
        shards=3, clock=_CLOCK, shard_fault_injectors={1: injector},
        shard_deadline=0.2, shard_retries=2, retry_backoff_base=0.005,
        retry_backoff_cap=0.05, audit_policy="fail_open",
        degraded_reads=True,
    )
    cluster.attach_journal(tmp_path)
    _load(cluster)
    cluster.execute(TRIGGER)
    try:
        # flaky: one transient failure per query
        for sql in WORKLOAD:
            injector.arm(
                "shard-scatter", error=OSError("transient"),
                at_hit=injector.hit_count("shard-scatter") + 1,
            )
            truth.session.user_id = cluster.session.user_id = "alice"
            lhs, rhs = truth.execute(sql), cluster.execute(sql)
            assert _sorted_rows(lhs) == _sorted_rows(rhs), sql
            assert lhs.accessed == rhs.accessed, sql
        health = cluster.cluster_health()
        assert health["scatter_retries"] >= len(WORKLOAD)
        assert health["quarantined"] == []
        assert _log(truth) == _log(cluster)

        # slow: the shard hangs far past the deadline
        closed, closed_injector = _faulty_cluster(
            shard_deadline=0.2, shard_retries=0, audit_policy="fail_closed",
        )
        closed.execute(TRIGGER)
        closed_injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        try:
            for sql in WORKLOAD:
                with pytest.raises(ClusterDegradedError):
                    closed.execute(sql)
        finally:
            closed.close()
        injector.arm_latency("shard-scatter", delay_s=5.0, repeat=True)
        gaps = len(cluster.cluster_gaps)
        degraded = sum(
            _sorted_rows(lhs) != _sorted_rows(rhs)
            for lhs, rhs in _run_both(truth, cluster, "bob")
        )
        assert len(cluster.cluster_gaps) - gaps == degraded
        assert cluster.cluster_health()["deadline_timeouts"] >= 1

        # dead
        injector.disarm()
        if not cluster.health.is_quarantined(1):
            injector.arm("shard-scatter", error=CrashError("shard died"))
            cluster.execute(WORKLOAD[0])
        assert cluster.cluster_health()["quarantined"] == [1]
        with pytest.raises(ClusterDegradedError):
            cluster.execute(
                f"INSERT INTO patients VALUES ({_key_owned_by(1)}, 'x', "
                "'flu', 1, '11111')"
            )
        gaps = len(cluster.cluster_gaps)
        for lhs, rhs in _run_both(truth, cluster, "carol"):
            assert len(rhs.rows_list()) <= len(lhs.rows_list())
        assert len(cluster.cluster_gaps) - gaps >= len(WORKLOAD)

        # rejoin
        recovery = cluster.rejoin_shard(1)
        health = cluster.cluster_health()
        assert health["quarantined"] == []
        assert health["stale_replicas"] == []
        assert recovery is not None and recovery.corrupt == 0
        # replayed firings keep their original attribution
        assert {row[0] for row in _log(cluster)} <= \
            {row[0] for row in _log(truth)}
        for lhs, rhs in _run_both(truth, cluster, "auditor"):
            assert _sorted_rows(lhs) == _sorted_rows(rhs)
            assert lhs.accessed == rhs.accessed
        assert [row for row in _log(truth) if row[0] == "auditor"] == \
            [row for row in _log(cluster) if row[0] == "auditor"]
    finally:
        cluster.close()
        truth.close()


def test_rejoin_replays_uncommitted_intent_with_original_user(
    tmp_path
) -> None:
    cluster = ClusterDatabase(shards=3, clock=_CLOCK)
    cluster.attach_journal(tmp_path / "j")
    _load(cluster)
    cluster.execute(TRIGGER)
    try:
        shard = cluster.shard(1)
        ids = frozenset(
            row[0] for row in shard.catalog.table("patients").rows()
            if row[2] == "flu"
        )
        assert ids
        # a journalled intent that never committed (simulated crash
        # between intent and firing), attributed to carol
        original = shard.session.user_id
        shard.session.user_id = "carol"
        try:
            shard._journal_intent({"sick": ids})
        finally:
            shard.session.user_id = original
        cluster.quarantine_shard(1, "crash before commit")
        report = cluster.rejoin_shard(1)
        assert report.replayed >= 1
        rows = cluster.execute(
            "SELECT uid, pid FROM audit_log WHERE uid = 'carol'"
        ).rows_list()
        assert sorted(row[1] for row in rows) == sorted(ids)
    finally:
        cluster.close()


def test_rejoin_never_repairs_from_stale_source() -> None:
    """Committed replicated DML survives a double quarantine.

    Shard 1 misses an INSERT while down; with shard 0 then also down,
    rejoining 1 first must NOT treat its lagging copy as authoritative:
    it is readmitted visibly stale, and rejoining 0 repairs 0 → 1 (the
    fresh direction) — the committed row ends up on every shard.
    """
    cluster = ClusterDatabase(shards=2, clock=_CLOCK)
    _load(cluster)
    try:
        cluster.quarantine_shard(1)
        cluster.execute("INSERT INTO visits VALUES (900, 0, 5)")
        assert cluster.cluster_health()["stale_replicas"] == ["visits"]
        cluster.quarantine_shard(0)
        cluster.rejoin_shard(1)
        # no fresh source is live: shard 1 comes back loudly stale, not
        # silently "repaired" from nothing
        health = cluster.cluster_health()
        assert health["quarantined"] == [0]
        assert health["stale_replicas"] == ["visits"]
        assert health["stale_replicas_by_shard"] == {1: ["visits"]}
        cluster.rejoin_shard(0)
        assert cluster.cluster_health()["stale_replicas"] == []
        # shard 0 carried the only fresh copy; every replica has the row
        for shard in cluster.shards:
            rows = [r for r in shard.catalog.table("visits").rows()
                    if r[0] == 900]
            assert len(rows) == 1
        assert cluster.execute(
            "SELECT COUNT(*) FROM visits WHERE vid = 900"
        ).rows_list() == [(1,)]
    finally:
        cluster.close()


def test_split_brain_replicas_stay_loud_and_block_reshard() -> None:
    """Divergence both ways is recorded per shard, never resolved by
    guessing a direction, and reshard() refuses to seed new shards from
    a stale copy (it would silently drop one side's committed rows)."""
    cluster = ClusterDatabase(shards=2, clock=_CLOCK)
    _load(cluster)
    try:
        cluster.quarantine_shard(1)
        cluster.execute("INSERT INTO visits VALUES (902, 0, 5)")
        cluster.quarantine_shard(0)
        cluster.rejoin_shard(1)  # readmitted stale — no fresh source
        # this INSERT lands only on shard 1: each replica now has a
        # committed row the other missed
        cluster.execute("INSERT INTO visits VALUES (904, 1, 6)")
        cluster.rejoin_shard(0)
        health = cluster.cluster_health()
        assert health["quarantined"] == []
        assert health["stale_replicas"] == ["visits"]
        assert health["stale_replicas_by_shard"] == {
            0: ["visits"], 1: ["visits"],
        }
        with pytest.raises(ClusterDegradedError):
            cluster.reshard(3)
    finally:
        cluster.close()


def test_replicated_dml_with_no_live_replica_refuses_unmarked() -> None:
    """With every shard down, replicated DML refuses — and since no
    replica applied anything, nothing diverged and nothing is marked
    stale (a spurious mark would misdirect the next rejoin's repair)."""
    cluster = ClusterDatabase(shards=2, clock=_CLOCK)
    _load(cluster)
    try:
        cluster.quarantine_shard(0)
        cluster.quarantine_shard(1)
        with pytest.raises(ClusterDegradedError):
            cluster.execute("INSERT INTO visits VALUES (903, 0, 5)")
        with pytest.raises(ClusterDegradedError):
            cluster.execute("DELETE FROM visits WHERE vid = 100")
        health = cluster.cluster_health()
        assert health["stale_replicas"] == []
        assert health["stale_replicas_by_shard"] == {}
    finally:
        cluster.close()


def test_rejoin_refuses_healthy_shard_and_bad_index() -> None:
    from repro.errors import ClusterError

    cluster = ClusterDatabase(shards=2, clock=_CLOCK)
    _load(cluster)
    try:
        with pytest.raises(ClusterError):
            cluster.rejoin_shard(0)
        with pytest.raises(ValueError):
            cluster.rejoin_shard(7)
    finally:
        cluster.close()


def test_reshard_refused_while_quarantined() -> None:
    cluster = ClusterDatabase(shards=3, clock=_CLOCK)
    _load(cluster)
    try:
        cluster.quarantine_shard(2, "test")
        with pytest.raises(ClusterDegradedError):
            cluster.reshard(5)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# satellites: retry_after on the wire, retried_batches in health


def test_overload_error_frame_carries_retry_after() -> None:
    frame = protocol.error_frame(
        ServerOverloadedError("busy", retry_after=5.0)
    )
    assert frame["code"] == "ServerOverloadedError"
    assert frame["retry_after"] == 5.0
    with pytest.raises(ServerOverloadedError) as excinfo:
        protocol.raise_error_frame(frame)
    assert excinfo.value.retry_after == 5.0
    # errors without a hint stay hint-free on the wire
    plain = protocol.error_frame(ServerOverloadedError("shutting down"))
    assert "retry_after" not in plain


def test_overload_retry_after_round_trips_over_socket() -> None:
    db = Database(clock=_CLOCK)
    db.execute("CREATE TABLE t (x INT)")
    with db.serve(max_connections=1, admission_queue=0,
                  admission_timeout=0.3) as server:
        with Connection(server.host, server.port, user_id="a"):
            with pytest.raises(ServerOverloadedError) as excinfo:
                Connection(server.host, server.port, user_id="b")
            assert excinfo.value.retry_after == pytest.approx(0.3)


def test_audit_trail_health_reports_retried_batches() -> None:
    db = Database(clock=_CLOCK)
    try:
        health = db.audit_trail_health()
        assert "retried_batches" in health
        assert health["retried_batches"] == 0
    finally:
        db.close()


def test_health_frame_single_node_and_cluster() -> None:
    db = Database(clock=_CLOCK)
    db.execute("CREATE TABLE t (x INT)")
    with db.serve(close_database=False) as server:
        with Connection(server.host, server.port, user_id="u") as conn:
            report = conn.health()
            assert report["cluster"] is None
            assert "audit_gaps" in report["audit_trail"]
    db.close()

    cluster = ClusterDatabase(shards=2, clock=_CLOCK)
    _load(cluster, rows=8)
    with cluster.serve(close_database=False) as server:
        with Connection(server.host, server.port, user_id="u") as conn:
            report = conn.health()
            assert report["cluster"] is not None
            assert len(report["cluster"]["shards"]) == 2
            assert report["cluster"]["quarantined"] == []
            assert "retried_batches" in report["audit_trail"]
    cluster.close()
