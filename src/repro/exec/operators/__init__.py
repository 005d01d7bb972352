"""Physical operators (pull-based iterators of column batches)."""

from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.exec.operators.scan import TableScan, IndexSeek, IndexRange, OneRowSource
from repro.exec.operators.filter import FilterOperator
from repro.exec.operators.project import ProjectOperator
from repro.exec.operators.join import NestedLoopJoin, HashJoin
from repro.exec.operators.apply import IndexNestedLoopJoin
from repro.exec.operators.aggregate import HashAggregate
from repro.exec.operators.sort import SortOperator, LimitOperator
from repro.exec.operators.distinct import DistinctOperator
from repro.exec.operators.cache import CacheOperator
from repro.exec.operators.audit import AuditOperator
from repro.exec.operators.exchange import GatherSource, RowSource

__all__ = [
    "PhysicalOperator",
    "collect_rows",
    "TableScan",
    "IndexSeek",
    "IndexRange",
    "OneRowSource",
    "FilterOperator",
    "ProjectOperator",
    "NestedLoopJoin",
    "HashJoin",
    "IndexNestedLoopJoin",
    "HashAggregate",
    "SortOperator",
    "LimitOperator",
    "DistinctOperator",
    "CacheOperator",
    "AuditOperator",
    "GatherSource",
    "RowSource",
]
