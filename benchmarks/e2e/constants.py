"""Every size, count and seed of the e2e benchmark, in one place.

Operation counts are per *block*: a block is a fixed, seed-determined
list of statements, so the work inside one block repeats exactly from
run to run. A window runs whole blocks until ``--seconds`` has elapsed
(never fewer than ``MIN_BLOCKS``) and reports medians over blocks, so a
metric does not depend on how many blocks fitted.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC_DIR = ROOT / "src"
#: result documents, traces and the wire workload's temp dirs; not committed
OUT_DIR = HERE / "out"

WORKLOADS = ("tpch_armed", "point_cold", "wire_mixed", "cluster_scan")

#: the database contents never change with ``--seed``; only the request
#: stream does
DATA_SEED = 42

#: default request-stream seed and window length of the all-workloads
#: command (the driver passes its own)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: a window never stops before this many blocks
MIN_BLOCKS = 3

# -- tpch_armed ---------------------------------------------------------
TPCH_SCALE_FACTOR = 0.01
TPCH_SEGMENT = "BUILDING"
TPCH_AUDIT_NAME = "audit_customer"
#: o_orderdate selectivities of the two §V-A micro-join statements
MICRO_SELECTIVITIES = (("micro01", 0.01), ("micro50", 0.50))
#: block = one round: the nine statements armed, then the same unarmed
TPCH_TRACED_ROUNDS = 20
#: rows put into ``audit_log`` at set-up. The plan cache's statistics
#: epoch advances whenever a table's row count crosses a power of two,
#: and every cached plan recompiles after it; a log that starts empty
#: crosses one every round or two, a log of this age about once a window
TPCH_LOG_PREAGE_ROWS = 8192

# -- point_cold / wire_mixed -------------------------------------------
POINT_PATIENTS = 20_000
POINT_VISITS = 40_000
#: share of two-table join lookups (the rest are primary-key lookups)
POINT_JOIN_SHARE = 0.30
POINT_BLOCK_OPS = 1000
POINT_WARMUP_OPS = 1000
POINT_TRACED_OPS = 2000

#: UPDATE and DELETE scan the table, so wire_mixed keeps it small enough
#: that a write costs milliseconds, not tens of them
WIRE_PATIENTS = 2_000
WIRE_CLIENTS = 2
WIRE_BLOCK_OPS = 500
WIRE_WARMUP_OPS = 500
WIRE_TRACED_OPS = 1000
#: operation mix, in shares of a block
WIRE_MIX = (("select", 0.80), ("update", 0.10), ("insert", 0.05), ("delete", 0.05))
#: share of SELECTs aimed at a row the same client inserted earlier
WIRE_OWN_ROW_SHARE = 0.10
#: sensitive = ward < SENSITIVE_WARDS of WARDS (25 %)
WARDS = 20
SENSITIVE_WARDS = 5

# -- cluster_scan -------------------------------------------------------
CLUSTER_SHARDS = 2
CLUSTER_SCALE_FACTOR = 0.1
#: block = this many rounds of the four statements
CLUSTER_BLOCK_ROUNDS = 5
CLUSTER_WARMUP_ROUNDS = 2
CLUSTER_TRACED_ROUNDS = 20

#: share of ``--seconds`` a traced run spends on its untraced window
#: (needed for ``trace.overhead_ratio``); the staged replay has the rest
TRACED_WINDOW_SHARE = 0.4

PATIENTS_DDL = (
    "CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR NOT NULL, "
    "ward INT, age INT, zip VARCHAR)"
)
VISITS_DDL = (
    "CREATE TABLE visits (vid INT PRIMARY KEY, pid INT NOT NULL, "
    "day INT, cost DECIMAL(10, 2), "
    "FOREIGN KEY (pid) REFERENCES patients (pid))"
)
PATIENT_LOG_DDL = (
    "CREATE TABLE audit_log (ts VARCHAR, uid VARCHAR, query VARCHAR, pid INT)"
)
PATIENT_AUDIT = "aud"
PATIENT_AUDIT_DDL = (
    f"CREATE AUDIT EXPRESSION {PATIENT_AUDIT} AS SELECT * FROM patients "
    f"WHERE ward < {SENSITIVE_WARDS} "
    "FOR SENSITIVE TABLE patients, PARTITION BY pid"
)
PATIENT_TRIGGER_DDL = (
    f"CREATE TRIGGER log_access ON ACCESS TO {PATIENT_AUDIT} AS "
    "INSERT INTO audit_log "
    "SELECT cast_varchar(now()), user_id(), sql_text(), pid FROM accessed"
)


def as_dict() -> dict:
    """The constants a result document is stamped with."""
    return {
        name: value
        for name, value in globals().items()
        if name.isupper() and not name.endswith(("_DDL", "_DIR"))
        and name not in ("HERE", "ROOT")
    }
