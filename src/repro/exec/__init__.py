"""Physical execution: columnar pull operators and the execution context."""

from repro.exec.context import ExecutionContext, Session
from repro.exec.operators.base import PhysicalOperator

__all__ = ["ExecutionContext", "Session", "PhysicalOperator"]
