"""The cluster_scan workload's schema and statements.

``benchmarks/e2e/wl_cluster_scan.py`` loads TPC-H customer under
:data:`CUSTOMER_DDL`, arms :data:`AUDIT_NAME` over the :data:`SEGMENT`
market segment (which repartitions customer on ``c_custkey``), and runs
:data:`WORKLOAD` on a sharded cluster and a single-node twin.
"""

from __future__ import annotations

AUDIT_NAME = "audit_customer"
SEGMENT = "BUILDING"

#: scan-heavy armed workload: every query reads the whole customer
#: partition on every shard and touches BUILDING customers (the
#: sensitive set), so audit probes and trigger firing are always live
WORKLOAD = (
    # MIN/MAX instead of SUM(c_acctbal): float summation is
    # order-sensitive in the last bits, and the parity gate is exact
    ("agg_by_segment",
     "SELECT c_mktsegment, COUNT(*), MIN(c_acctbal), MAX(c_acctbal) "
     "FROM customer GROUP BY c_mktsegment"),
    ("filter_scan",
     "SELECT c_name, c_acctbal FROM customer "
     "WHERE c_acctbal > 5000 AND c_mktsegment = 'BUILDING'"),
    ("topk",
     "SELECT c_custkey, c_acctbal FROM customer "
     "ORDER BY c_acctbal DESC, c_custkey LIMIT 20"),
    ("count_armed",
     "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'BUILDING'"),
)


#: the customer table alone (the full TPC-H schema declares an FK from
#: orders to customer, and partitioning an FK-referenced table is a
#: documented cluster v1 restriction)
CUSTOMER_DDL = """
CREATE TABLE customer (
    c_custkey INT PRIMARY KEY,
    c_name VARCHAR NOT NULL,
    c_address VARCHAR,
    c_nationkey INT NOT NULL,
    c_phone VARCHAR,
    c_acctbal DECIMAL(15, 2),
    c_mktsegment VARCHAR,
    c_comment VARCHAR
)
"""


__all__ = ["AUDIT_NAME", "CUSTOMER_DDL", "SEGMENT", "WORKLOAD"]
