"""repro — reproduction of "SELECT Triggers for Data Auditing" (ICDE 2013).

A pure-Python relational database engine with the paper's auditing stack:

* audit expressions compiled to materialized sensitive-ID views;
* the audit operator — a no-op data viewer probing IDs during execution;
* placement heuristics (leaf-node / highest-node / highest-commutative-node);
* SELECT triggers with the ACCESSED internal state and cascading actions;
* an offline auditor (the ground truth) with a one-pass lineage fast
  path, deletion-test fallback, and an Oracle-FGA style
  static-analysis baseline;
* a concurrent serving layer — snapshot SELECTs under a read-write lock
  with an asynchronous audit-trigger pipeline (``trigger_mode='async'``);
* a TPC-H workload generator and the paper's benchmark harness.

Quickstart::

    from repro import Database
    db = Database()
"""

from repro.concurrency import ReadWriteLock, TriggerBatch, TriggerPipeline
from repro.database import Database, QueryResult, connect
from repro.durability import (
    AuditJournal,
    DeadLetterJournal,
    RecoveryReport,
    scan_journal,
)
from repro.errors import ReproError
from repro.testing import CrashError, FaultInjector
from repro.audit import (
    HEURISTIC_HCN,
    HEURISTIC_HIGHEST,
    HEURISTIC_LEAF,
    AuditLog,
    LineageAuditor,
    OfflineAuditor,
    StaticAnalysisAuditor,
    install_audit_log,
)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "QueryResult",
    "connect",
    "ReproError",
    "HEURISTIC_HCN",
    "HEURISTIC_HIGHEST",
    "HEURISTIC_LEAF",
    "LineageAuditor",
    "OfflineAuditor",
    "StaticAnalysisAuditor",
    "AuditLog",
    "install_audit_log",
    "ReadWriteLock",
    "TriggerBatch",
    "TriggerPipeline",
    "AuditJournal",
    "DeadLetterJournal",
    "RecoveryReport",
    "scan_journal",
    "FaultInjector",
    "CrashError",
    "__version__",
]
