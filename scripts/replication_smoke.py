"""CI smoke for a serving front end plus one live read replica.

Boots ``python -m repro.server --frontend FRONTEND --replicate`` as a
real subprocess, drives a pipelined mixed DML/SELECT workload over one
connection (``execute_many``), attaches a socket replica
(:meth:`ReplicaDatabase.from_primary`), proves read-your-writes across
the wire with a replication token, and lets the replica's audited read
forward its AFTER intents back to the primary. Then SIGTERMs the
primary and proves the audited-shutdown contract end to end: exit code
0, **zero uncommitted intents**, and a fresh engine recovered from the
journal (``apply_statements=True``) that matches the replica's final
table state and holds the exact expected audit log.

Usage:  PYTHONPATH=src python scripts/replication_smoke.py
            [--frontend threaded|async]     (default: async)
Exits non-zero on the first violated expectation.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

INIT_SQL = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, age INT);
CREATE TABLE log (uid VARCHAR, pid INT);
INSERT INTO patients VALUES
    (1, 'Alice', 34), (2, 'Bob', 41), (3, 'Carol', 29), (4, 'Dan', 57);
CREATE AUDIT EXPRESSION aud AS SELECT * FROM patients
    FOR SENSITIVE TABLE patients, PARTITION BY pid;
CREATE TRIGGER ins_log ON ACCESS TO aud AS
    INSERT INTO log SELECT user_id(), pid FROM accessed
"""

#: the pipelined workload: interleaved DML and armed point reads
WORKLOAD = [
    "INSERT INTO patients VALUES (5, 'Eve', 23)",
    "SELECT name FROM patients WHERE pid = 1",
    "INSERT INTO patients VALUES (6, 'Frank', 61)",
    "SELECT name FROM patients WHERE pid = 2",
    "UPDATE patients SET age = 30 WHERE pid = 3",
    "SELECT name FROM patients WHERE pid = 3",
]

ALICE_PIDS = (1, 2, 3)
ALL_PIDS = (1, 2, 3, 4, 5, 6)


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--frontend", choices=("threaded", "async"), default="async",
        help="which server front end the primary runs (default: async)",
    )
    frontend = parser.parse_args(argv).frontend
    sys.path.insert(0, str(REPO / "src"))
    from repro.database import Database
    from repro.durability.recovery import uncommitted_intents
    from repro.replication import ReplicaDatabase
    from repro.server.client import Connection

    tmp = tempfile.TemporaryDirectory(prefix="repro-replication-smoke-")
    journal_dir = pathlib.Path(tmp.name) / "journal"
    init_file = pathlib.Path(tmp.name) / "init.sql"
    init_file.write_text(INIT_SQL)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server",
            "--port", "0",
            "--frontend", frontend,
            "--init", str(init_file),
            "--journal", str(journal_dir),
            "--replicate",
            "--fsync", "always",
            "--trigger-mode", "async",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    replica = None
    try:
        line = process.stdout.readline().strip()
        if "listening on" not in line:
            fail(f"unexpected server banner: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        print(f"  {frontend} server up on port {port}")

        with Connection("127.0.0.1", port, user_id="alice") as alice:
            # 1) pipelined mixed workload on one connection; the done
            #    frames carry replication tokens because --replicate is on
            outcomes = alice.execute_many(WORKLOAD)
            if len(outcomes) != len(WORKLOAD):
                fail("pipelined batch returned wrong outcome count")
            token = alice.last_token
            if not token:
                fail("no replication token on the done frame")
            print(f"  pipelined {len(WORKLOAD)} statements, token {token}")

            # 2) a live socket replica catches up to the token
            replica = ReplicaDatabase.from_primary("127.0.0.1", port)
            if not replica.wait_for(token, timeout=20.0):
                fail(f"replica never reached token {token}")
            print(f"  replica caught up (lag {replica.replication_lag()['lag_records']})")

            # 3) read-your-writes on the replica: the pipelined DML is
            #    visible; the audited read forwards intents to the primary
            rows = replica.execute(
                "SELECT pid, name, age FROM patients ORDER BY pid",
                user_id="dr_remote",
            ).rows
            replica_patients = sorted(rows)
            if [pid for pid, _, _ in replica_patients] != list(ALL_PIDS):
                fail(f"replica table state wrong: {replica_patients}")
            print("  replica serves the pipelined writes locally")

            # 4) the primary's audit log converges to exactly the armed
            #    reads: alice's pipelined ones plus the replica's read,
            #    attributed to its original user
            expected_log = sorted(
                [("alice", pid) for pid in ALICE_PIDS]
                + [("dr_remote", pid) for pid in ALL_PIDS]
            )
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                log = sorted(alice.execute("SELECT uid, pid FROM log").rows)
                if log == expected_log:
                    break
                time.sleep(0.05)
            if log != expected_log:
                fail(f"audit log mismatch: {log} != {expected_log}")
            print(f"  {len(log)} audit rows on the primary, "
                  "replica read attributed to dr_remote")
    except Exception:
        process.kill()
        raise
    finally:
        if replica is not None:
            replica.close()
        if process.poll() is None:
            # 5) SIGTERM: audited graceful shutdown of the front end
            process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=60)
        output = process.stdout.read()

    if code != 0:
        fail(f"server exited {code}; output:\n{output}")
    if "repro server stopped" not in output:
        fail(f"missing shutdown banner; output:\n{output}")
    leftovers = uncommitted_intents(journal_dir)
    if leftovers:
        fail(f"shutdown lost {len(leftovers)} journaled firings")
    print("  clean shutdown, zero uncommitted intents")

    # 6) a fresh engine rebuilt from the journal alone matches the
    #    replica's final table state and the exact audit log
    recovered = Database(user_id="recovery")
    try:
        recovered.recover(journal_dir, apply_statements=True)
        log = sorted(recovered.execute("SELECT uid, pid FROM log").rows)
        if log != expected_log:
            fail(f"recovered audit log mismatch: {log} != {expected_log}")
        rows = sorted(
            recovered.execute(
                "SELECT pid, name, age FROM patients"
            ).rows
        )
        if rows != replica_patients:
            fail(
                "recovered table state != replica state: "
                f"{rows} != {replica_patients}"
            )
    finally:
        recovered.close()
    print("  journal replay reproduces replica state and full audit log")
    tmp.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
