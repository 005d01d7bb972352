"""Physical operator interface.

A physical operator is an immutable factory of batch iterators: calling
``rows_columnar(context)`` starts a fresh execution. This makes plans
re-executable, which the offline auditor exploits — it runs the same
physical plan many times with different tombstone sets (one per
candidate sensitive tuple).

Execution has one data path, ``rows_columnar``, which yields
:class:`~repro.exec.batch.ColumnBatch` objects (per-column vectors plus a
selection vector). Filters narrow the selection without touching data;
the audit operator probes the partition-by column in one bulk pass.
Operators that need whole tuples (join outputs, sort buffers, the
DISTINCT seen-set) pivot with ``to_rows`` at their boundary and emit
dense batches of about ``context.batch_size`` rows. Row order, ACCESSED
contents, and probe counts do not depend on where the batch boundaries
fall. The offline auditor's lineage run takes the same path: it runs a
plan that ``repro.audit.lineage`` rewrote so each row carries its
sensitive primary keys as ordinary columns, so no operator knows about
lineage.

Operators expose ``children()`` and ``describe()`` for plan inspection
(EXPLAIN output and tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.exec.batch import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class PhysicalOperator:
    """Base class for physical operators."""

    def rows_columnar(
        self, context: "ExecutionContext"
    ) -> Iterator[ColumnBatch]:
        """Start a fresh execution and yield non-empty column batches.

        Implementations must preserve row order and never yield batches
        with an empty selection.
        """
        raise NotImplementedError

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["PhysicalOperator"]:
        yield self
        for child in self.children():
            yield from child.walk()


def collect_rows(
    operator: PhysicalOperator,
    context: "ExecutionContext",
    mode: str = "columnar",
) -> list[tuple]:
    """Materialize an operator's output as row-tuples.

    The one execution loop: statements, subqueries, ID-view
    materialization and the materializing operators (sort buffers,
    nested-loop build sides, cache fills) all drain their input here.
    Every batch boundary is a cooperative cancellation checkpoint: a
    cancelled ``context.cancel_token`` unwinds the execution with
    :class:`~repro.errors.OperationCancelledError` instead of running an
    abandoned plan to completion. (The index nested-loop join drains
    nothing here; it checks the token once per outer batch itself.)

    ``mode`` accepts only ``"columnar"``. It exists for
    ``benchmarks/e2e/staged.py``, which passes ``mode=db.exec_mode``, and
    goes when a benchmark change drops that use.
    """
    if mode != "columnar":
        raise ValueError(
            f"unknown execution mode {mode!r}: 'columnar' is the only one"
        )
    token = context.cancel_token
    rows: list[tuple] = []
    for batch in operator.rows_columnar(context):
        if token is not None:
            token.raise_if_cancelled()
        rows.extend(batch.to_rows())
    return rows


def format_physical(operator: PhysicalOperator, indent: int = 0) -> str:
    """Readable multi-line rendering of a physical plan."""
    pad = "  " * indent
    lines = [f"{pad}{operator.describe()}"]
    for child in operator.children():
        lines.append(format_physical(child, indent + 1))
    return "\n".join(lines)
