"""Expression trees, binding, evaluation, functions, and predicate analysis."""

from repro.expr import nodes
from repro.expr.nodes import Expression
from repro.expr.evaluator import evaluate
from repro.expr.compiler import (
    compile_expression,
    compile_filter,
    compile_kernel,
)
from repro.expr.aggregates import aggregate_kernel, is_aggregate_name

__all__ = [
    "nodes",
    "Expression",
    "evaluate",
    "compile_expression",
    "compile_filter",
    "compile_kernel",
    "is_aggregate_name",
    "aggregate_kernel",
]
