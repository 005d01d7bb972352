"""Trigger manager: registration, firing, cascading (§II-C).

SELECT-trigger actions run *after* the reading query finishes (or aborts),
as their own system transaction, with the ACCESSED internal state exposed
as a relation named ``accessed`` whose single column is the audit
expression's partition-by key. DML triggers fire per modified row with the
``NEW``/``OLD`` pseudo-rows in scope.

Cascades are bounded by :data:`MAX_TRIGGER_DEPTH` (32, as in SQL Server):
a SELECT trigger's INSERT can fire an AFTER INSERT trigger whose body runs
a SELECT that fires further SELECT triggers, and so on.

A firing should cost an append, not a statement. SELECT triggers are
indexed by timing and audit expression when created or dropped, so
finding what a statement arms is a dictionary lookup. ``accessed`` is no
table: during a firing only, the binder resolves it to a ``Gather`` leaf
over the firing's rows, which every context made meanwhile carries
(:class:`~repro.plan.builder.AccessedRows`); the rows are sorted and
coerced only if a statement reads them. :class:`SelectFiring`
compiles each body SELECT once; on a single node an ``INSERT … SELECT``
or bare SELECT body then runs as that plan
(``Database.execute_trigger_body``) and appends its rows with one
``Table.insert_many``. A body that discloses IDs to an armed trigger is
refused there (:meth:`TriggerManager.refuse_nested_firing`; a failing
body is checked against AFTER triggers only, as a failing statement
dispatches only those), since a nested firing is not supported.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.catalog.schema import Column
from repro.datatypes.values import converts_all, value_converter
from repro.errors import AccessDeniedError, TriggerError
from repro.storage.table import RowChange, Table
from repro.triggers.definitions import DmlTrigger, SelectTrigger

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.database import Database

MAX_TRIGGER_DEPTH = 32

ACCESSED_TAKEN = (
    "a relation named 'accessed' already exists; it is reserved for "
    "SELECT trigger actions"
)

ACCESSED_READ_ONLY = (
    "'accessed' is the firing's read-only row set; it cannot be indexed"
)


class TriggerManager:
    """Owns trigger definitions and drives their execution."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._select_triggers: dict[str, SelectTrigger] = {}
        #: timing -> audit expression -> its SELECT triggers of that
        #: timing, in creation order (rebuilt on CREATE/DROP TRIGGER)
        self._armed_index: dict[str, dict[str, list[SelectTrigger]]] = {}
        self._dml_triggers: dict[str, DmlTrigger] = {}
        self._observed_tables: set[str] = set()
        # cascade depth is per-thread: the async pipeline worker fires
        # triggers concurrently with serving threads' own cascades
        self._local = threading.local()
        self.firing = SelectFiring(
            database, lambda: (database.accessed_rows,),
            database.execute_trigger_body, self._enter, self._leave,
        )

    # ------------------------------------------------------------------
    # registration

    def add_select_trigger(self, trigger: SelectTrigger) -> None:
        self._database.audit_manager.expression(trigger.audit_expression)
        self._database.catalog.add_trigger(trigger.name, trigger)
        self._select_triggers[trigger.name.lower()] = trigger
        self._index_select_triggers()

    def add_dml_trigger(self, trigger: DmlTrigger) -> None:
        table = self._database.catalog.table(trigger.table)  # validates
        self._database.catalog.add_trigger(trigger.name, trigger)
        self._dml_triggers[trigger.name.lower()] = trigger
        key = table.schema.name
        if key not in self._observed_tables:
            table.add_observer(self._on_row_change)
            self._observed_tables.add(key)

    def drop_trigger(self, name: str) -> None:
        key = name.lower()
        if key in self._select_triggers:
            del self._select_triggers[key]
            self._index_select_triggers()
        elif key in self._dml_triggers:
            del self._dml_triggers[key]
        else:
            raise TriggerError(f"trigger {name!r} does not exist")
        self._database.catalog.drop_trigger(name)
        self.firing.forget(name)

    def _index_select_triggers(self) -> None:
        index: dict[str, dict[str, list[SelectTrigger]]] = {}
        for trigger in self._select_triggers.values():
            index.setdefault(trigger.timing, {}).setdefault(
                trigger.audit_expression, []
            ).append(trigger)
        self._armed_index = index

    def has_select_triggers(self, timing: str | None = None) -> bool:
        if timing is None:
            return bool(self._select_triggers)
        return timing in self._armed_index

    # ------------------------------------------------------------------
    # SELECT trigger firing (§II: after the query, own transaction)

    def fire_select_triggers(
        self, accessed: dict[str, set], timing: str = "after",
        firing: "SelectFiring | None" = None,
    ) -> None:
        """Run the actions of matching triggers with the given timing
        (through ``firing``: the cluster coordinator passes its own)."""
        for trigger, audit_name, ids in self._armed(accessed, timing):
            (firing or self.firing).run(trigger, audit_name, ids)

    def check_select_triggers(
        self, accessed: dict[str, set], timing: str = "after"
    ) -> None:
        """Raise what :meth:`fire_select_triggers` would raise on
        ``accessed`` before any action runs: an ID the ``accessed``
        relation of an armed audit expression cannot store. Names that
        would not fire (no IDs, no trigger of ``timing``, or unknown
        here) are ignored, as firing ignores them."""
        for _, audit_name, ids in self._armed(accessed, timing):
            self.firing.check(audit_name, ids)

    def _armed(self, accessed: dict[str, set], timing: str):
        """(trigger, audit name, IDs) of each action firing would run."""
        by_expression = self._armed_index.get(timing)
        if by_expression is None:
            return
        for audit_name, ids in accessed.items():
            if not ids:
                continue
            for trigger in by_expression.get(audit_name.lower(), ()):
                yield trigger, audit_name, ids

    def refuse_nested_firing(
        self, accessed: dict[str, set],
        timings: tuple[str, ...] = ("before", "after"),
    ) -> None:
        """Raise if a trigger body disclosed IDs that would fire a
        trigger of one of ``timings`` inside the firing running now: the
        action would need its own ``accessed`` relation while the outer
        one is bound, so it is refused, with the error a nested
        :meth:`SelectFiring.run` raises."""
        for timing in timings:
            for _ in self._armed(accessed, timing):
                raise TriggerError(ACCESSED_TAKEN)

    # ------------------------------------------------------------------
    # DML trigger firing (row-level AFTER)

    def _on_row_change(self, change: RowChange) -> None:
        if change.compensating:
            return  # rollback repairs state; it is not a business event
        triggers = [
            trigger
            for trigger in self._dml_triggers.values()
            if trigger.table == change.table
            and trigger.event.lower() == change.kind
        ]
        if not triggers:
            return
        table = self._database.catalog.table(change.table)
        scope_columns, pseudo_row = _trigger_row(table, change)
        for trigger in triggers:
            self._enter()
            try:
                for statement in trigger.body:
                    self._database.execute_trigger_statement(
                        statement, scope_columns, pseudo_row
                    )
            finally:
                self._leave()

    # ------------------------------------------------------------------
    # cascade depth

    def _enter(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth >= MAX_TRIGGER_DEPTH:
            raise TriggerError(
                f"trigger cascade exceeded depth {MAX_TRIGGER_DEPTH}"
            )
        self._local.depth = depth + 1

    def _leave(self) -> None:
        self._local.depth = getattr(self._local, "depth", 1) - 1


class SelectFiring:
    """Runs one engine's SELECT-trigger bodies, compiling each once.

    While the bodies run, ``bindings()`` (the engine's
    :class:`~repro.plan.builder.AccessedRows`, or every shard's) hold
    the firing's IDs as ``accessed``. :meth:`plan` keeps a body SELECT
    per (trigger, statement index, ``len(ids)`` bucket) while the
    engine's plan-cache tags hold. Firings run under the engine's
    exclusive lock.
    """

    def __init__(self, engine, bindings, execute, enter, leave) -> None:
        self._engine = engine
        self._bindings = bindings
        self._execute = execute
        self._enter = enter
        self._leave = leave
        #: (trigger name, statement index, size bucket) -> (trigger, plan)
        self._plans: dict[tuple, tuple] = {}
        #: (select, trigger, plan key) of the body statement running now
        self._body: tuple | None = None

    def run(self, trigger: SelectTrigger, audit_name: str, ids) -> None:
        bindings = self._bindings()
        if bindings[0].rows is not None \
                or self._engine.catalog.has_table("accessed"):
            raise TriggerError(ACCESSED_TAKEN)
        column = self._id_column(audit_name)
        rows = _accessed_rows(ids, column.data_type)
        self._enter()
        for binding in bindings:
            binding.column = column.name
            binding.rows = rows
        try:
            for index, statement in enumerate(trigger.body):
                # an INSERT's SELECT, or the statement itself
                self._body = (
                    getattr(statement, "select", statement), trigger,
                    (trigger.name, index, len(ids).bit_length()),
                )
                self._execute(statement)
        except AccessDeniedError:
            if trigger.timing != "before":
                raise TriggerError(
                    f"trigger {trigger.name!r}: DENY is only valid in "
                    "BEFORE SELECT triggers"
                ) from None
            raise
        finally:
            self._body = None
            for binding in bindings:
                binding.rows = None  # no IDs held between firings
            self._leave()

    def check(self, audit_name: str, ids) -> None:
        """Raise if the ``accessed`` relation of ``audit_name`` cannot
        hold one of ``ids``, as :meth:`run` would."""
        _accessed_rows(ids, self._id_column(audit_name).data_type)

    def _id_column(self, audit_name: str) -> Column:
        """The sensitive column the IDs of ``audit_name`` are keys of."""
        expression = self._engine.audit_manager.expression(audit_name)
        return self._engine.catalog.table(expression.sensitive_table) \
            .schema.column(expression.partition_by)

    def plan(self, select, compile):
        """``compile()``'s entry for ``select``, kept across firings when
        it is the SELECT of the body statement running now."""
        body = self._body
        if body is None or body[0] is not select:
            return compile()
        tags = self._engine._plan_cache_tags()
        trigger, entry = self._plans.get(body[2], (None, None))
        if trigger is not body[1] or entry.tags != tags:
            entry = compile()
            entry.tags = tags
            self._plans[body[2]] = (body[1], entry)
        return entry

    def forget(self, name: str) -> None:
        """Drop the compiled bodies of trigger ``name``."""
        self._plans = {
            key: value for key, value in self._plans.items()
            if key[0] != name.lower()
        }


def _accessed_rows(ids, data_type):
    """The ``accessed`` rows of ``ids``, sorted by ``repr`` and coerced to
    ``data_type`` — or, when no ID can fail to coerce, a function building
    them once, on first read. A coercion failure is raised here, before
    any body statement runs, naming the first bad ID in ``repr`` order."""
    ids = tuple(ids)
    convert = value_converter(data_type)
    built: list = []

    def build() -> list[tuple]:
        if not built:
            built.append([
                (convert(value),) for value in sorted(ids, key=repr)
            ])
        return built[0]

    return build if converts_all(data_type, set(map(type, ids))) \
        else build()


def _trigger_row(table: Table, change: RowChange):
    """Build the NEW/OLD pseudo-scope and pseudo-row for a change."""
    from repro.plan.logical import PlanColumn

    width = len(table.schema.columns)
    new_row = change.new_row or (None,) * width
    old_row = change.old_row or (None,) * width
    columns = tuple(
        PlanColumn(column.name, "new", (table.schema.name, column.name))
        for column in table.schema.columns
    ) + tuple(
        PlanColumn(column.name, "old", (table.schema.name, column.name))
        for column in table.schema.columns
    )
    return columns, tuple(new_row) + tuple(old_row)
