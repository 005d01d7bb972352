"""Trigger manager: registration, firing, cascading (§II-C).

SELECT-trigger actions run *after* the reading query finishes (or aborts),
as their own system transaction, with the ACCESSED internal state exposed
as a relation named ``accessed`` whose single column is the audit
expression's partition-by key. DML triggers fire per modified row with the
``NEW``/``OLD`` pseudo-rows in scope.

Cascades are bounded by :data:`MAX_TRIGGER_DEPTH` (32, as in SQL Server):
a SELECT trigger's INSERT can fire an AFTER INSERT trigger whose body runs
a SELECT that fires further SELECT triggers, and so on.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.catalog.schema import Column, TableSchema
from repro.errors import AccessDeniedError, TriggerError
from repro.storage.table import RowChange, Table
from repro.triggers.definitions import DmlTrigger, SelectTrigger

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.database import Database

MAX_TRIGGER_DEPTH = 32


class TriggerManager:
    """Owns trigger definitions and drives their execution."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._select_triggers: dict[str, SelectTrigger] = {}
        self._dml_triggers: dict[str, DmlTrigger] = {}
        self._observed_tables: set[str] = set()
        # cascade depth is per-thread: the async pipeline worker fires
        # triggers concurrently with serving threads' own cascades
        self._local = threading.local()
        self.firing = SelectFiring(
            database, lambda: (database.catalog,),
            database.execute_trigger_statement, self._enter, self._leave,
        )

    # ------------------------------------------------------------------
    # registration

    def add_select_trigger(self, trigger: SelectTrigger) -> None:
        self._database.audit_manager.expression(trigger.audit_expression)
        self._database.catalog.add_trigger(trigger.name, trigger)
        self._select_triggers[trigger.name.lower()] = trigger

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
        elif key in self._dml_triggers:
            del self._dml_triggers[key]
        else:
            raise TriggerError(f"trigger {name!r} does not exist")
        self._database.catalog.drop_trigger(name)
        self.firing.forget(name)

    def select_triggers_for(self, audit_expression: str
                            ) -> list[SelectTrigger]:
        return [
            trigger
            for trigger in self._select_triggers.values()
            if trigger.audit_expression == audit_expression.lower()
        ]

    def has_select_triggers(self, timing: str | None = None) -> bool:
        if timing is None:
            return bool(self._select_triggers)
        return any(
            trigger.timing == timing
            for trigger in self._select_triggers.values()
        )

    # ------------------------------------------------------------------
    # SELECT trigger firing (§II: after the query, own transaction)

    def fire_select_triggers(
        self, accessed: dict[str, set], timing: str = "after",
        firing: "SelectFiring | None" = None,
    ) -> None:
        """Run the actions of matching triggers with the given timing
        (through ``firing``: the cluster coordinator passes its own)."""
        for audit_name, ids in accessed.items():
            if not ids:
                continue
            for trigger in self.select_triggers_for(audit_name):
                if trigger.timing != timing:
                    continue
                (firing or self.firing).run(trigger, audit_name, ids)

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

    ``accessed`` is one :class:`Table` per audit expression and catalog
    (every shard's, on a cluster), filled and registered as transient
    per firing only, so a compiled scan of it stays valid. :meth:`plan` keeps
    a body SELECT per (trigger, statement index, ``len(ids)`` bucket)
    while the engine's plan-cache tags hold. Firings run under the
    engine's exclusive lock.
    """

    def __init__(self, engine, catalogs, execute, enter, leave) -> None:
        self._engine = engine
        self._catalogs = catalogs
        self._execute = execute
        self._enter = enter
        self._leave = leave
        self._accessed: dict[str, list[Table]] = {}
        #: (trigger name, statement index, size bucket) -> (trigger, plan)
        self._plans: dict[tuple, tuple] = {}
        #: (select, trigger, plan key) of the body statement running now
        self._body: tuple | None = None

    def run(self, trigger: SelectTrigger, audit_name: str, ids) -> None:
        catalogs = self._catalogs()
        if any(catalog.has_table("accessed") for catalog in catalogs):
            raise TriggerError(
                "a relation named 'accessed' already exists; it is "
                "reserved for SELECT trigger actions"
            )
        rows = [(value,) for value in sorted(ids, key=repr)]
        tables = self._tables(audit_name, len(catalogs))
        registered = []
        try:
            for catalog, table in zip(catalogs, tables):
                table.bulk_load(rows)
                # transient: no DDL version bump or statistics-epoch move,
                # or every firing would invalidate every cached plan
                catalog.add_table(table, transient=True)
                registered.append(catalog)
            self._enter()
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
                self._leave()
        finally:
            for catalog in registered:
                catalog.drop_table("accessed", transient=True)
            for table in tables:
                table.truncate()  # no IDs held between firings

    def _tables(self, audit_name: str, count: int) -> list[Table]:
        expression = self._engine.audit_manager.expression(audit_name)
        column = self._engine.catalog.table(expression.sensitive_table) \
            .schema.column(expression.partition_by)
        schema = TableSchema(
            "accessed", (Column(column.name, column.data_type),)
        )
        tables = self._accessed.get(audit_name, [])
        if len(tables) != count or tables[0].schema != schema:
            tables = self._accessed[audit_name] = [
                Table(schema) for _ in range(count)
            ]
        return tables

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
