"""Audit-aware LRU plan cache.

``Database.execute`` re-parsed and re-optimized identical SQL on every
call — the dominant fixed cost of short queries in a Python engine. The
plan cache maps a *statement template* (:mod:`repro.sql.template`: the
SQL text with its inlined ``column = literal`` values lifted out as
parameters) to a fully compiled entry (column names, instrumented
logical plan, physical operator tree), so a repeated query — or the same
point lookup with another key — skips the parser, binder, rewriter,
audit placement, and physical planner entirely.

Audit awareness is the point: an instrumented plan bakes in the audit
expressions that existed — and the placement heuristic in force — when it
was compiled. Every entry therefore carries a *tag tuple* of version
counters (catalog DDL version, audit configuration version, plus the knobs
that steer instrumentation and physical planning). A lookup whose current
tags differ from the entry's treats the entry as stale and drops it, so
``CREATE TABLE`` / ``CREATE INDEX`` / ``DROP TABLE``, ``CREATE/DROP AUDIT
EXPRESSION``, trigger changes, and heuristic or join-strategy flips can
never serve a plan instrumented for a previous world. Data changes (DML)
do not invalidate: plans remain semantically valid, and the audit
operators probe the *live* ID-view structures which are maintained in
place.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sql.template import StatementTemplate, statement_template

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.operators.base import PhysicalOperator
    from repro.plan.logical import LogicalPlan

DEFAULT_PLAN_CACHE_CAPACITY = 128


@dataclass
class CachedPlan:
    """One compiled SELECT, with the tags it was compiled under."""

    #: the statement template's key (the SQL text when nothing was lifted)
    sql: str
    column_names: tuple[str, ...]
    logical: "LogicalPlan"
    physical: "PhysicalOperator"
    tags: tuple


class PlanCache:
    """LRU cache of compiled plans keyed by statement template,
    tag-validated.

    Thread-safe: the ``OrderedDict`` recency moves (``move_to_end`` /
    ``popitem``) and the hit/miss/invalidation counters are read-modify-
    write sequences, so every operation runs under one reentrant lock.
    Cached entries themselves are immutable after compilation and may be
    executed by any number of threads at once.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def match(
        self, sql: str, tags: tuple
    ) -> tuple[StatementTemplate, CachedPlan | None]:
        """The template of ``sql`` and its live entry (None: a miss,
        counted). Run the entry with ``template.bind(parameters)``."""
        template = statement_template(sql)
        key = template.key
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return template, None
            if entry.tags != tags:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return template, None
            self._entries.move_to_end(key)
            self.hits += 1
            return template, entry

    def store(self, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[entry.sql] = entry
            self._entries.move_to_end(entry.sql)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            if self._entries:
                self.invalidations += len(self._entries)
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """A mutually consistent snapshot of the counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }


__all__ = ["CachedPlan", "PlanCache", "DEFAULT_PLAN_CACHE_CAPACITY"]
