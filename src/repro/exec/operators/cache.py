"""Materializing cache operator.

The offline auditor re-executes one physical plan once per candidate
sensitive tuple (``Q(D − t)`` for each t, Definition 2.3). Subplans that do
not read the sensitive table produce identical rows on every run, so the
auditor wraps them in a :class:`CacheOperator`: the first run materializes,
later runs replay. The cache lives in an external store owned by the
auditor so its lifetime spans executions; plain query execution never uses
this operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import row_batches
from repro.exec.operators.base import PhysicalOperator, collect_rows

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class CacheOperator(PhysicalOperator):
    """Materializes its child once into ``store[key]`` and replays it."""

    def __init__(
        self,
        child: PhysicalOperator,
        store: dict[int, list[tuple]],
        key: int,
    ) -> None:
        self._child = child
        self._store = store
        self._key = key

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def _materialized(self, context: "ExecutionContext") -> list[tuple]:
        cached = self._store.get(self._key)
        if cached is None:
            # drained eagerly so the store never holds a prefix
            cached = collect_rows(self._child, context)
            self._store[self._key] = cached
        return cached

    def rows_columnar(self, context: "ExecutionContext"):
        yield from row_batches(
            self._materialized(context), context.batch_size
        )

    def describe(self) -> str:
        return "Cache"
