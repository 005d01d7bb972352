"""The paper's core contribution: SELECT-trigger auditing machinery.

* :mod:`repro.audit.expression` — audit expressions (§II-A);
* :mod:`repro.audit.idview` — materialized sensitive-ID views (§IV-A.1);
* :mod:`repro.audit.placement` — leaf-node / highest-node /
  highest-commutative-node placement (§III-C, Algorithm 1);
* :mod:`repro.audit.manager` — ties expressions, views, placement, and
  SELECT triggers into the engine;
* :mod:`repro.audit.offline` — deletion-based offline auditor
  (Definition 2.3/2.5) with cross-run subplan caching;
* :mod:`repro.audit.lineage` — one-pass lineage-based classification,
  the offline auditor's fast path;
* :mod:`repro.audit.static_analysis` — Oracle-FGA-style baseline (§VI).
"""

from repro.audit.expression import AuditExpression
from repro.audit.idview import IdView
from repro.audit.placement import (
    HEURISTIC_HCN,
    HEURISTIC_HIGHEST,
    HEURISTIC_LEAF,
    instrument_plan,
)
from repro.audit.manager import AuditManager
from repro.audit.lineage import LineageAuditor
from repro.audit.offline import OfflineAuditor
from repro.audit.static_analysis import StaticAnalysisAuditor
from repro.audit.logging import AuditLog, install_audit_log
from repro.audit.bloom import CountingBloomFilter

__all__ = [
    "AuditExpression",
    "IdView",
    "HEURISTIC_HCN",
    "HEURISTIC_HIGHEST",
    "HEURISTIC_LEAF",
    "instrument_plan",
    "AuditManager",
    "LineageAuditor",
    "OfflineAuditor",
    "StaticAnalysisAuditor",
    "AuditLog",
    "install_audit_log",
    "CountingBloomFilter",
]
