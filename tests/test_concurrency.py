"""Concurrent serving: the RW lock, per-query isolation, and the async
trigger pipeline (thread-safety layer + deferred-firing semantics)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database
from repro.concurrency import ReadWriteLock, TriggerBatch, TriggerPipeline
from repro.errors import AccessDeniedError, PipelineClosedError


@pytest.fixture
def audited_db(patients_db) -> Database:
    patients_db.execute(
        "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
        "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
    )
    patients_db.execute(
        "CREATE TRIGGER record ON ACCESS TO audit_all AS "
        "INSERT INTO log SELECT cast_varchar(now()), user_id(), "
        "sql_text(), patientid FROM accessed"
    )
    yield patients_db
    patients_db.close()


def _log_count(db: Database) -> int:
    # raw count: no drain, usable while the pipeline worker is blocked
    return db.execute("SELECT COUNT(*) FROM log").rows[0][0]


# ---------------------------------------------------------------------------
# the read-write lock


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # both threads inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)
                order.append("writer")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("reader")

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert order == ["writer", "reader"]

    def test_reentrant_read_and_write(self):
        lock = ReadWriteLock()
        with lock.read(), lock.read():
            assert lock.held_read()
        with lock.write(), lock.write():
            assert lock.held_write()
            with lock.read():  # read under write is allowed
                pass

    def test_read_to_write_upgrade_raises(self):
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_upgrade_raise_leaves_lock_usable(self):
        """A refused upgrade must not corrupt lock state: the reader can
        keep reading, release, and then take the write side normally."""
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()
            assert lock.held_read()
            with lock.read():  # still reentrant after the refusal
                pass
        assert not lock.held_read()
        with lock.write():
            assert lock.held_write()
        assert not lock.held_write()

    def test_unbalanced_releases_raise(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError, match="release_read"):
            lock.release_read()
        with pytest.raises(RuntimeError, match="release_write"):
            lock.release_write()

    def test_blocked_writer_wakes_when_the_reader_releases(self):
        """Only writers wait for readers to leave, so a read release
        wakes the condition only then, and must wake them."""
        lock = ReadWriteLock()
        acquired = threading.Event()

        def writer():
            with lock.write():
                acquired.set()

        with lock.read():
            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5
            while not lock._writers_waiting:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert not acquired.is_set()
        assert acquired.wait(timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_writer_preference_blocks_new_readers(self):
        """Once a writer waits, a *new* reader queues behind it even
        though a reader currently holds the lock (no writer starvation)."""
        lock = ReadWriteLock()
        order: list[str] = []
        reader_in = threading.Event()
        writer_waiting = threading.Event()
        release_first_reader = threading.Event()

        def first_reader():
            with lock.read():
                reader_in.set()
                release_first_reader.wait(timeout=5)
            order.append("reader1-out")

        def writer():
            reader_in.wait(timeout=5)
            writer_waiting.set()
            with lock.write():
                order.append("writer")

        def late_reader():
            writer_waiting.wait(timeout=5)
            time.sleep(0.05)  # let the writer reach its wait loop
            with lock.read():
                order.append("reader2")

        threads = [
            threading.Thread(target=first_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for t in threads:
            t.start()
        time.sleep(0.15)  # writer + late reader both queued behind reader1
        assert order == []  # nobody got in while reader1 holds the lock
        release_first_reader.set()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        # the waiting writer beat the reader that arrived after it
        assert order.index("writer") < order.index("reader2")


# ---------------------------------------------------------------------------
# the pipeline in isolation


class TestTriggerPipeline:
    def test_fifo_and_drain(self):
        fired: list[str] = []
        pipeline = TriggerPipeline(
            lambda batch: fired.append(batch.sql_text)
        )
        for i in range(20):
            pipeline.submit(
                TriggerBatch(accessed={}, sql_text=f"q{i}", user_id="u")
            )
        pipeline.drain()
        assert fired == [f"q{i}" for i in range(20)]
        assert pipeline.stats() == {
            "submitted": 20, "processed": 20, "failed": 0, "pending": 0,
            "retried": 0, "lost": 0, "dead_letter_count": 0,
        }
        pipeline.close()

    def test_error_isolation(self):
        fired: list[str] = []

        def fire(batch: TriggerBatch) -> None:
            if batch.sql_text == "boom":
                raise RuntimeError("bad trigger")
            fired.append(batch.sql_text)

        pipeline = TriggerPipeline(fire)
        for text in ("a", "boom", "b"):
            pipeline.submit(
                TriggerBatch(accessed={}, sql_text=text, user_id="u")
            )
        pipeline.drain()
        assert fired == ["a", "b"]  # the failure did not stop the worker
        stats = pipeline.stats()
        assert stats["failed"] == 1 and stats["processed"] == 3
        (batch, error), = pipeline.errors
        assert batch.sql_text == "boom"
        assert isinstance(error, RuntimeError)
        pipeline.close()

    def test_submit_after_close_raises_typed_error(self):
        pipeline = TriggerPipeline(lambda batch: None)
        pipeline.close()
        with pytest.raises(PipelineClosedError, match="closed"):
            pipeline.submit(
                TriggerBatch(accessed={}, sql_text="q", user_id="u")
            )

    def test_close_is_idempotent(self):
        fired: list[str] = []
        pipeline = TriggerPipeline(lambda batch: fired.append(batch.sql_text))
        pipeline.submit(TriggerBatch(accessed={}, sql_text="q", user_id="u"))
        pipeline.close()
        pipeline.close()  # second close is a no-op, not an error
        assert fired == ["q"]
        with pytest.raises(PipelineClosedError):
            pipeline.submit(
                TriggerBatch(accessed={}, sql_text="late", user_id="u")
            )

    def test_transient_failure_retries_then_succeeds(self):
        attempts: list[str] = []

        def fire(batch: TriggerBatch) -> None:
            attempts.append(batch.sql_text)
            if len(attempts) < 3:
                raise RuntimeError("transient")

        pipeline = TriggerPipeline(fire, retry_limit=3, backoff_base_s=0.001)
        pipeline.submit(TriggerBatch(accessed={}, sql_text="q", user_id="u"))
        pipeline.drain()
        stats = pipeline.stats()
        assert attempts == ["q", "q", "q"]  # 1 try + 2 retries
        assert stats["retried"] == 2
        assert stats["failed"] == 0 and stats["dead_letter_count"] == 0
        assert not pipeline.errors
        pipeline.close()

    def test_permanent_failure_spills_to_dead_letter(self):
        spilled: list[tuple] = []

        def always_fails(batch: TriggerBatch) -> None:
            raise RuntimeError("permanent")

        pipeline = TriggerPipeline(
            always_fails,
            retry_limit=1,
            backoff_base_s=0.001,
            dead_letter=lambda batch, error, reason, attempts: spilled.append(
                (batch.sql_text, reason, attempts)
            ),
        )
        pipeline.submit(TriggerBatch(accessed={}, sql_text="q", user_id="u"))
        pipeline.drain()
        stats = pipeline.stats()
        assert stats["failed"] == 1 and stats["retried"] == 1
        assert stats["dead_letter_count"] == 1
        assert spilled == [("q", "retries-exhausted", 2)]
        pipeline.close()

    def test_error_eviction_never_loses_the_only_copy(self):
        """The bounded error deque may evict old records because every
        permanently-failed batch was already handed to the dead-letter
        sink at failure time (the satellite fix for silent discards)."""
        from repro.concurrency.pipeline import ERROR_HISTORY

        spilled: list[str] = []
        pipeline = TriggerPipeline(
            lambda batch: (_ for _ in ()).throw(RuntimeError("boom")),
            retry_limit=0,
            dead_letter=lambda batch, error, reason, attempts:
                spilled.append(batch.sql_text),
        )
        total = ERROR_HISTORY + 5
        for i in range(total):
            pipeline.submit(
                TriggerBatch(accessed={}, sql_text=f"q{i}", user_id="u")
            )
        pipeline.drain()
        assert len(pipeline.errors) == ERROR_HISTORY  # deque clipped
        assert pipeline.stats()["dead_letter_count"] == total
        assert spilled == [f"q{i}" for i in range(total)]  # nothing lost
        pipeline.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_drain_survives_worker_crash(self):
        """A worker killed mid-batch must not hang drain(): the in-flight
        batch is accounted lost (and dead-lettered) and a fresh worker
        finishes the backlog."""
        from repro.testing import CrashError, FaultInjector

        fired: list[str] = []
        spilled: list[str] = []
        faults = FaultInjector()
        faults.arm("pipeline-worker", at_hit=2, error=CrashError)
        pipeline = TriggerPipeline(
            lambda batch: fired.append(batch.sql_text),
            dead_letter=lambda batch, error, reason, attempts:
                spilled.append((batch.sql_text, reason)),
            faults=faults,
        )
        for i in range(4):
            pipeline.submit(
                TriggerBatch(accessed={}, sql_text=f"q{i}", user_id="u")
            )
        assert pipeline.drain(timeout=10)
        stats = pipeline.stats()
        assert stats["lost"] == 1 and stats["pending"] == 0
        assert fired == ["q0", "q2", "q3"]  # q1 died with the worker
        assert spilled == [("q1", "worker-crash")]
        pipeline.close()


# ---------------------------------------------------------------------------
# per-query ACCESSED isolation across threads


class TestAccessedIsolation:
    def test_concurrent_queries_keep_separate_accessed(self, audited_db):
        """Two threads interleaving different queries must each see only
        their own query's ACCESSED IDs — never the other thread's."""
        rounds = 30
        barrier = threading.Barrier(2, timeout=10)
        failures: list[str] = []

        cases = {
            "alice": ("SELECT * FROM patients WHERE name = 'Alice'", {1}),
            "zip": ("SELECT * FROM patients WHERE zip = '98102'", {2, 5}),
        }

        def worker(label: str) -> None:
            sql, expected = cases[label]
            barrier.wait()
            for _ in range(rounds):
                accessed = audited_db.execute(sql).accessed.get(
                    "audit_all", frozenset()
                )
                if set(accessed) != expected:
                    failures.append(
                        f"{label}: got {sorted(accessed)}, "
                        f"want {sorted(expected)}"
                    )

        threads = [
            threading.Thread(target=worker, args=(label,))
            for label in cases
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert failures == []


# ---------------------------------------------------------------------------
# async deferral semantics


class TestAsyncTriggerSemantics:
    def test_after_firings_defer_until_drain(self, audited_db):
        """In async mode the AFTER trigger must not have fired when
        ``execute`` returns, and must have fired after ``drain_triggers``.

        Holding the engine read lock keeps the pipeline worker (which
        needs the write side to fire) parked, making the 'not yet fired'
        half deterministic instead of a race.
        """
        audited_db.trigger_mode = "async"
        with audited_db._engine_lock.read():
            audited_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
            assert _log_count(audited_db) == 0  # deferred, worker parked
        stats = audited_db.drain_triggers()
        assert stats["submitted"] == 1 and stats["pending"] == 0
        assert _log_count(audited_db) == 1

    def test_before_deny_stays_synchronous(self, audited_db):
        audited_db.execute(
            "CREATE TRIGGER gate ON ACCESS TO audit_all BEFORE AS "
            "DENY 'restricted'"
        )
        audited_db.trigger_mode = "async"
        with pytest.raises(AccessDeniedError, match="restricted"):
            audited_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        # the AFTER logging trigger still records the denied access
        audited_db.drain_triggers()
        assert _log_count(audited_db) == 1

    def test_before_and_after_ordering_preserved(self, audited_db):
        audited_db.execute(
            "CREATE TRIGGER warn ON ACCESS TO audit_all BEFORE AS "
            "NOTIFY 'before'"
        )
        audited_db.execute(
            "CREATE TRIGGER done ON ACCESS TO audit_all AFTER AS "
            "NOTIFY 'after'"
        )
        audited_db.trigger_mode = "async"
        audited_db.execute("SELECT * FROM patients WHERE name = 'Bob'")
        # BEFORE fired inline, ahead of execute() returning; the deferred
        # AFTER firing is submitted later, so FIFO keeps it behind
        assert audited_db.notifications[0] == "before"
        audited_db.drain_triggers()
        assert audited_db.notifications == ["before", "after"]

    def test_audit_log_readers_drain_implicitly(self, patients_db):
        from repro.audit.logging import install_audit_log

        patients_db.execute(
            "CREATE AUDIT EXPRESSION audit_all AS SELECT * FROM patients "
            "FOR SENSITIVE TABLE patients, PARTITION BY patientid"
        )
        log = install_audit_log(patients_db, "audit_all")
        patients_db.trigger_mode = "async"
        patients_db.execute("SELECT * FROM patients WHERE patientid <= 3")
        # entries() must flush the pipeline before reading
        assert len(log.entries().rows) == 3
        patients_db.close()

    def test_async_error_is_isolated_and_recorded(self, audited_db):
        audited_db.execute("CREATE TABLE doomed (patientid INT)")
        audited_db.execute(
            "CREATE TRIGGER bad ON ACCESS TO audit_all AS "
            "INSERT INTO doomed SELECT patientid FROM accessed"
        )
        audited_db.execute("DROP TABLE doomed")
        audited_db.trigger_mode = "async"
        audited_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        stats = audited_db.drain_triggers()
        assert stats["failed"] == 1
        (batch, error), = audited_db.trigger_errors
        assert "Alice" in batch.sql_text
        # the worker survived: the healthy logging trigger of the *same*
        # batch ran before the failure or a later batch still lands
        audited_db.execute("SELECT * FROM patients WHERE name = 'Bob'")
        audited_db.drain_triggers()
        assert _log_count(audited_db) >= 1

    def test_switching_back_to_sync_drains_first(self, audited_db):
        audited_db.trigger_mode = "async"
        audited_db.execute("SELECT * FROM patients WHERE name = 'Alice'")
        audited_db.trigger_mode = "sync"  # must flush pending batches
        assert _log_count(audited_db) == 1

    def test_invalid_mode_rejected(self, audited_db):
        with pytest.raises(ValueError, match="sync"):
            audited_db.trigger_mode = "eventually"


# ---------------------------------------------------------------------------
# shared-structure thread safety


class TestSharedStructures:
    def test_plan_cache_concurrent_hammer(self, audited_db):
        queries = [
            ("SELECT name FROM patients WHERE patientid = :pid", {"pid": 1}),
            ("SELECT zip FROM patients WHERE patientid = :pid", {"pid": 2}),
            ("SELECT age FROM patients WHERE patientid = :pid", {"pid": 3}),
        ]
        barrier = threading.Barrier(4, timeout=10)
        failures: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                barrier.wait()
                for i in range(40):
                    sql, params = queries[(index + i) % len(queries)]
                    audited_db.execute(sql, params)
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert failures == []
        stats = audited_db.plan_cache.stats()
        assert stats["entries"] <= len(queries) + 1
        assert stats["hits"] > 0

    def test_idview_refcounts_under_concurrent_dml(self, audited_db):
        """Writers inserting and deleting sensitive rows from several
        threads must leave the materialized ID view exactly consistent
        with the table's final contents."""
        barrier = threading.Barrier(3, timeout=10)
        failures: list[BaseException] = []

        def churn(base: int) -> None:
            try:
                barrier.wait()
                for i in range(10):
                    pid = base + i
                    audited_db.execute(
                        "INSERT INTO patients VALUES "
                        f"({pid}, 'p{pid}', 30, '98000')"
                    )
                    if i % 2 == 0:
                        audited_db.execute(
                            "DELETE FROM patients WHERE patientid = :pid",
                            {"pid": pid},
                        )
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        threads = [
            threading.Thread(target=churn, args=(base,))
            for base in (100, 200, 300)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert failures == []
        surviving = {
            row[0]
            for row in audited_db.execute(
                "SELECT patientid FROM patients"
            ).rows
        }
        view = audited_db.audit_manager.view("audit_all")
        assert set(view.ids()) == surviving


# ---------------------------------------------------------------------------
# end-to-end stress parity (small edition of the CI smoke check)


class TestStressParity:
    def test_mixed_traffic_matches_serial_replay(self):
        from repro.bench.concurrency import stress_parity

        report = stress_parity(threads=4, per_thread=8)
        assert report["match"], report
        assert report["trigger_errors"] == 0
        assert report["pipeline"]["pending"] == 0
