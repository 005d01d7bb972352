"""Lineage-based offline auditing: one rewritten run instead of N.

The deletion-test auditor implements Definition 2.3 literally — one full
re-execution of ``Q(D − t)`` per candidate sensitive tuple — which the
paper itself calls orders of magnitude too slow. This module replaces
those N runs with **one** execution of a rewritten plan plus cheap
per-tuple classification, in the spirit of provenance computed by query
rewriting (Niu & Glavic):

* :func:`carry_lineage` rewrites the certified *core* so every row
  carries, as ordinary trailing columns, the primary key of each
  sensitive tuple it derives from; the ordinary planner compiles the
  rewritten core and ``collect_rows`` runs it. A row's *lineage* is the
  set of those keys, with the invariant *the row survives deletion of
  tuple t iff t ∉ lineage*;
* for bag-semantics SPJ (select/project/join, plus order-irrelevant sort)
  plans, deletion provenance equals lineage: tuple t is accessed iff t
  appears in some output row's lineage — one run decides every
  candidate;
* a sensitive DISTINCT is a core boundary: its rows are collapsed to one
  pair per distinct row whose lineage is the *intersection* of its
  duplicates' lineages (the value vanishes only if every derivation used
  t — the paper's §II-B duplicate masking, exactly);
* for plans whose *spine* ends in aggregation / HAVING / top-k, the
  certifier splits the plan into the core and a cheap **tail**. The core
  runs once; per candidate, only the affected aggregate groups are
  re-derived (per-function sensitivity rules with an exact recompute
  fallback). The rest of the tail is an ordinary plan over a ``Gather``
  leaf, compiled by the same planner and run by ``collect_rows`` over
  group rows, not base data, and its output bags are compared;
* plan shapes with no exact lineage semantics (top-k or DISTINCT below
  a join, subqueries that read the sensitive table, outer/anti joins
  with the sensitive table on the inner side) are refused at
  certification time and fall back to deletion testing in
  :class:`~repro.audit.offline.OfflineAuditor`.

Per-aggregate sensitivity rules (:func:`aggregate_sensitivity`):

========  ==========================================================
COUNT     changes iff any removed contribution is non-NULL
          (``COUNT(*)`` contributions are all 1 — always changes)
SUM       changes iff the removed contributions sum to non-zero, or
          the surviving rows have no non-NULL value left (SUM → NULL)
MIN/MAX   changes iff a removed value ties the group extremum and no
          surviving value does (a duplicated extremum masks deletion)
AVG &c.   undecided by rule — resolved by an exact O(|group|)
          recomputation over the surviving contributions, never by a
          deletion re-run
========  ==========================================================

Everything here is exact with respect to the deletion-test ground truth;
the differential property test in ``tests/test_offline_lineage.py``
asserts identical accessed-ID sets over random SPJA workloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.exec.operators.base import PhysicalOperator, collect_rows
from repro.expr.aggregates import aggregate_kernel, fold_group
from repro.expr.compiler import compile_expression
from repro.expr.nodes import ColumnRef
from repro.plan import logical as L
from repro.plan.logical import AggregateSpec, LogicalPlan, PlanColumn
from repro.plan.rebase import remap_slots

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.audit.expression import AuditExpression
    from repro.database import Database
    from repro.exec.context import ExecutionContext


# ---------------------------------------------------------------------------
# certification: which plan shapes the lineage engine handles exactly

#: unary spine operators that may sit above the core: the planner
#: compiles them over a ``Gather`` leaf and they run on small
#: intermediate row sets
_TAIL_TYPES = (
    L.Project, L.Filter, L.Sort, L.Distinct, L.Limit, L.Aggregate, L.Audit,
)


@dataclass
class Certification:
    """Split of a plan into a lineage-certifiable core and a tail
    (spine operators above the core, bottom-up)."""

    core: LogicalPlan
    tail: tuple[LogicalPlan, ...]


def certify_plan(
    plan: LogicalPlan, sensitive_table: str
) -> Certification | str:
    """Certify ``plan`` for lineage auditing, or explain why not.

    Returns a :class:`Certification` on success and a human-readable
    refusal reason (the fallback telemetry) otherwise.
    """
    tail: list[LogicalPlan] = []
    node = plan
    while True:
        failure = _core_failure(node, sensitive_table)
        if failure is None:
            core = node
            break
        if isinstance(node, _TAIL_TYPES):
            if _own_subqueries_read(node, sensitive_table):
                return (
                    "a pipeline operator evaluates a subquery over the "
                    "sensitive table"
                )
            tail.append(node)
            node = node.children()[0]
            continue
        return failure
    tail.reverse()
    if (
        tail
        and isinstance(tail[0], L.Distinct)
        and any(isinstance(stage, L.Limit) for stage in tail)
    ):
        # a deletion can move a distinct row's first occurrence, which
        # leaves tie order at the cut boundary underdetermined between
        # the compiled tail and a real deletion re-run — refuse rather
        # than risk an inexact answer
        return "DISTINCT over sensitive rows beneath a LIMIT"
    return Certification(core=core, tail=tuple(tail))


def _core_failure(node: LogicalPlan, sensitive_table: str) -> str | None:
    """Why ``node``'s subtree cannot be a lineage core (None = it can).

    The reason is what :func:`certify_plan` reports when ``node`` cannot
    move to the tail either — which, for a LIMIT, aggregate or DISTINCT,
    means it sits below a join."""
    from repro.audit.offline import plan_reads_table

    if not plan_reads_table(node, sensitive_table):
        return None  # fixed under deletion: wrapped as a lineage-free source
    if isinstance(node, L.Limit):
        return "LIMIT/top-k boundary over sensitive rows"
    if isinstance(node, L.Aggregate):
        return "aggregation over sensitive rows"
    if isinstance(node, L.Distinct):
        return "DISTINCT over sensitive rows below a join"
    if _own_subqueries_read(node, sensitive_table):
        return "a subquery inside the plan reads the sensitive table"
    if (
        isinstance(node, L.Join)
        and node.kind != L.JOIN_INNER
        and plan_reads_table(node.right, sensitive_table)
    ):
        return (
            f"{node.kind} join with the sensitive table on the inner side"
        )
    for child in node.children():
        failure = _core_failure(child, sensitive_table)
        if failure is not None:
            return failure
    return None


def _own_subqueries_read(node: LogicalPlan, sensitive_table: str) -> bool:
    """Does an expression *of this node* nest a sensitive subquery?"""
    from repro.audit.offline import (
        _plan_expressions,
        _subquery_plans,
        plan_reads_table,
    )

    for expression in _plan_expressions(node):
        for subplan in _subquery_plans(expression):
            if plan_reads_table(subplan, sensitive_table):
                return True
    return False


# ---------------------------------------------------------------------------
# the rewrite: core rows carry their sensitive primary keys as columns

#: output column of the key values a rewritten node appends
_LINEAGE_COLUMN = PlanColumn("__lineage")


def carry_lineage(
    plan: LogicalPlan, sensitive_table: str
) -> tuple[LogicalPlan, tuple[int, ...]]:
    """Rewrite a certified core so each row carries its lineage.

    Returns the rewritten plan and its *lineage slots*: one run of
    primary-key-width slots per sensitive scan the row derives from,
    holding that tuple's key. Original columns keep their slots and any
    added ones follow them, so every expression above a rewritten node
    stays bound as it was. Subtrees that do not read the sensitive table
    are returned unchanged.
    """
    from repro.audit.offline import plan_reads_table

    if not plan_reads_table(plan, sensitive_table):
        return plan, ()
    if isinstance(plan, L.Scan):
        return plan, plan.schema.primary_key_positions()
    if isinstance(plan, (L.Filter, L.Sort, L.Audit)):
        child, slots = carry_lineage(plan.child, sensitive_table)
        return plan.replace_children((child,)), slots
    if isinstance(plan, L.Project):
        child, slots = carry_lineage(plan.child, sensitive_table)
        return _append_lineage(
            plan.expressions, plan.columns, child, slots
        )
    if isinstance(plan, L.Join):
        return _carry_join(plan, sensitive_table)
    raise AssertionError(
        f"uncertified core operator {type(plan).__name__}"
    )  # pragma: no cover - certify_plan admits no other sensitive node


def _append_lineage(
    expressions: tuple,
    columns: tuple[PlanColumn, ...],
    child: LogicalPlan,
    slots: tuple[int, ...],
) -> tuple[LogicalPlan, tuple[int, ...]]:
    """A projection of ``expressions`` over ``child`` followed by one
    column per lineage slot of the child."""
    arity = len(expressions)
    project = L.Project(
        child,
        expressions + tuple(
            ColumnRef("__lineage", index=slot) for slot in slots
        ),
        columns + (_LINEAGE_COLUMN,) * len(slots),
    )
    return project, tuple(range(arity, arity + len(slots)))


def _carry_join(
    plan: L.Join, sensitive_table: str
) -> tuple[LogicalPlan, tuple[int, ...]]:
    """Left lineage columns shift the right side and the condition's
    references to it; a projection on top puts them back in place."""
    left, left_slots = carry_lineage(plan.left, sensitive_table)
    left_arity = plan.left.arity
    grown = left.arity - left_arity
    condition = plan.condition
    if grown and condition is not None:
        condition = remap_slots(
            condition,
            lambda slot: slot + grown if slot >= left_arity else slot,
        )
    if plan.kind in (L.JOIN_SEMI, L.JOIN_ANTI):
        # the output is the left row (certify_plan requires a
        # sensitive-free right side for every non-inner join)
        return replace(plan, left=left, condition=condition), left_slots
    right, right_slots = plan.right, ()
    if plan.kind == L.JOIN_INNER:
        right, right_slots = carry_lineage(plan.right, sensitive_table)
    joined = replace(plan, left=left, right=right, condition=condition)
    slots = left_slots + tuple(left.arity + slot for slot in right_slots)
    if not grown:
        return joined, slots
    original = tuple(range(left_arity)) + tuple(
        range(left.arity, left.arity + plan.right.arity)
    )
    return _append_lineage(
        tuple(ColumnRef(column.name, index=slot)
              for column, slot in zip(plan.columns, original)),
        plan.columns,
        joined,
        slots,
    )


def lineage_pairs(
    rows: list[tuple], arity: int, slots: tuple[int, ...], width: int
) -> list[tuple[tuple, frozenset]]:
    """``(row, lineage)`` per row of a :func:`carry_lineage` run: the
    original ``arity`` columns and the set of key tuples in ``slots``
    (``width`` slots per key)."""
    keys = tuple(
        slots[start:start + width] for start in range(0, len(slots), width)
    )
    return [
        (
            row[:arity],
            frozenset(tuple(row[slot] for slot in key) for key in keys),
        )
        for row in rows
    ]


def collapse_distinct(pairs: list) -> list[tuple[tuple, frozenset]]:
    """DISTINCT over ``(row, lineage)`` pairs, in first-occurrence order.

    A distinct row's lineage is the *intersection* of its duplicates'
    lineages: the value disappears under deletion of t only when every
    derivation used t, so duplicate elimination hides the other accesses
    (§II-B) exactly instead of reporting them as false positives.
    """
    lineages: dict[tuple, frozenset] = {}
    for row, lineage in pairs:
        current = lineages.get(row)
        lineages[row] = lineage if current is None else current & lineage
    return list(lineages.items())


# ---------------------------------------------------------------------------
# per-aggregate sensitivity rules


def aggregate_sensitivity(
    spec: AggregateSpec,
    removed: list,
    survivors: list,
    baseline: object,
) -> bool | None:
    """Does removing ``removed`` contributions change this aggregate?

    Returns True (provably changes), False (provably does not), or None
    (undecided by rule — caller recomputes exactly). ``baseline`` is the
    aggregate's value over *all* contributions.
    """
    if spec.distinct:
        return None  # rule-free: exact recompute is O(|group|) anyway
    name = spec.name.lower()
    removed_nonnull = [value for value in removed if value is not None]
    if name == "count":
        # COUNT(*) feeds constant 1s, COUNT(x) ignores NULLs: the count
        # changes exactly when a non-NULL contribution disappears
        return bool(removed_nonnull)
    if not removed_nonnull:
        # SUM/MIN/MAX/AVG all ignore NULL contributions entirely
        return False
    if name == "sum":
        if not any(value is not None for value in survivors):
            return True  # last non-NULL contributions gone: SUM becomes NULL
        try:
            return sum(removed_nonnull) != 0
        except TypeError:
            return None
    if name in ("min", "max"):
        if baseline is None:
            return None
        try:
            if not any(value == baseline for value in removed_nonnull):
                return False  # the extremum itself survives untouched
            return not any(
                value == baseline
                for value in survivors
                if value is not None
            )
        except TypeError:
            return None
    return None  # AVG and anything exotic: exact recompute


# ---------------------------------------------------------------------------
# aggregate-group analysis (the first tail stage, handled incrementally)


@dataclass
class _Group:
    """One aggregate group of the single lineage run.

    ``rows`` holds ``(ordinal, lineage, contributions)`` in arrival order;
    ``baseline`` the aggregate results over all contributions.
    """

    rows: list = field(default_factory=list)
    baseline: tuple = ()


class _AggregateAnalysis:
    """Groups the core's ``(row, lineage)`` pairs once; answers per-candidate
    "does deleting t change / vanish any of its groups" incrementally."""

    def __init__(self, node: L.Aggregate) -> None:
        self._specs = node.aggregates
        self._kernels = tuple(
            aggregate_kernel(spec.name, spec.distinct, spec.argument is None)
            for spec in node.aggregates
        )
        self._group_closures = tuple(
            compile_expression(expression)
            for expression in node.group_expressions
        )
        self._arg_closures = tuple(
            compile_expression(spec.argument)
            if spec.argument is not None
            else None
            for spec in node.aggregates
        )
        self.groups: dict[tuple, _Group] = {}
        #: candidate pk -> keys of groups with that pk in some row's lineage
        self.pk_groups: dict[tuple, set] = {}

    def consume(
        self,
        pairs: list,
        context: "ExecutionContext",
        candidate_pks: set,
    ) -> None:
        groups = self.groups
        group_closures = self._group_closures
        arg_closures = self._arg_closures
        pk_groups = self.pk_groups
        for ordinal, (row, lineage) in enumerate(pairs):
            key = tuple(
                closure(row, context) for closure in group_closures
            )
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group()
            contributions = tuple(
                1 if closure is None else closure(row, context)
                for closure in arg_closures
            )
            group.rows.append((ordinal, lineage, contributions))
            for pk in lineage:
                if pk in candidate_pks:
                    pk_groups.setdefault(pk, set()).add(key)
        for group in groups.values():
            group.baseline = self._fold(
                values for _, _, values in group.rows
            )

    def _fold(self, contribution_rows: Iterable[tuple]) -> tuple:
        rows = list(contribution_rows)
        return tuple(
            fold_group(kernel, [values[position] for values in rows])
            for position, kernel in enumerate(self._kernels)
        )

    def baseline_rows(self) -> list:
        """Aggregate output rows in the engine's emission order."""
        rows = [
            key + group.baseline for key, group in self.groups.items()
        ]
        if not rows and not self._group_closures:
            rows = [self._fold(())]
        return rows

    def group_changed(self, key: tuple, pk: tuple) -> bool:
        """Exact per-group sensitivity: rules first, recompute fallback."""
        group = self.groups[key]
        survivors: list[tuple] = []
        removed: list[tuple] = []
        for _ordinal, lineage, values in group.rows:
            (removed if pk in lineage else survivors).append(values)
        if not survivors and self._group_closures:
            return True  # the group (and its output row) vanishes
        for position, spec in enumerate(self._specs):
            removed_column = [values[position] for values in removed]
            survivor_column = [values[position] for values in survivors]
            verdict = aggregate_sensitivity(
                spec,
                removed_column,
                survivor_column,
                group.baseline[position],
            )
            if verdict is None:
                verdict = fold_group(
                    self._kernels[position], survivor_column
                ) != group.baseline[position]
            if verdict:
                return True
        return False

    def rebuilt_rows(self, pk: tuple) -> list:
        """Aggregate output under deletion of ``pk``, in the order the
        engine would emit it (groups ordered by first *surviving* row)."""
        affected = self.pk_groups.get(pk, ())
        entries: list[tuple[int, tuple]] = []
        for key, group in self.groups.items():
            if key in affected:
                surviving = [
                    (ordinal, values)
                    for ordinal, lineage, values in group.rows
                    if pk not in lineage
                ]
                if not surviving:
                    if self._group_closures:
                        continue  # group vanished
                    entries.append((0, key + self._fold(())))
                    continue
                results = self._fold(values for _, values in surviving)
                entries.append((surviving[0][0], key + results))
            else:
                entries.append((group.rows[0][0], key + group.baseline))
        if not entries and not self._group_closures:
            return [self._fold(())]
        entries.sort(key=lambda entry: entry[0])
        return [row for _, row in entries]


# ---------------------------------------------------------------------------
# the compiled lineage plan

#: exchange key the tail's ``Gather`` leaf reads from ``context.gather_rows``
_TAIL_KEY = 0


@dataclass
class LineagePlan:
    """A certified plan, rewritten and compiled once for lineage runs
    (the offline auditor keeps it in its per-query plan cache)."""

    #: the rewritten core: one run tags every row with its lineage
    core: PhysicalOperator
    #: the core's own column count, and where the key columns follow it
    arity: int
    slots: tuple[int, ...]
    key_width: int
    #: a DISTINCT at the bottom of the tail: collapse duplicates first
    distinct: bool
    #: the first aggregate above the core, re-derived group by group
    aggregate: L.Aggregate | None
    #: the stages above those, over a Gather leaf; None when they only
    #: sort, which cannot change the output bag
    tail: PhysicalOperator | None


def _run_tail(
    tail: PhysicalOperator, rows: list, context: "ExecutionContext"
) -> Counter:
    """The bag ``tail`` makes of ``rows``."""
    context.gather_rows = {_TAIL_KEY: rows}
    return Counter(collect_rows(tail, context))


# ---------------------------------------------------------------------------
# the auditor


@dataclass
class LineageOutcome:
    """Result of one lineage analysis over a candidate tuple set."""

    #: partition-by IDs proven accessed
    accessed: set = field(default_factory=set)
    #: id -> primary keys the analysis could not decide (deletion fallback)
    undecided: dict = field(default_factory=dict)


class LineageAuditor:
    """One-pass lineage analysis for the offline auditor's fast path."""

    def __init__(self, database: "Database") -> None:
        self._database = database

    # ------------------------------------------------------------------

    def compile(
        self, plan: LogicalPlan, sensitive_table: str
    ) -> LineagePlan | str:
        """Certify, rewrite and compile ``plan``, or say why it cannot be
        audited by lineage (the fallback telemetry)."""
        certification = certify_plan(plan, sensitive_table)
        if isinstance(certification, str):
            return certification
        database = self._database
        compile_plan = database._optimizer.compile
        core, slots = carry_lineage(certification.core, sensitive_table)
        stages = list(certification.tail)
        distinct = bool(stages) and isinstance(stages[0], L.Distinct)
        if distinct:
            del stages[0]
        aggregate = None
        columns = certification.core.columns
        if stages and isinstance(stages[0], L.Aggregate):
            aggregate = stages.pop(0)
            columns = aggregate.columns
        # the audit operator is a no-op on rows
        stages = [stage for stage in stages if not isinstance(stage, L.Audit)]
        tail = None
        if not all(isinstance(stage, L.Sort) for stage in stages):
            node: LogicalPlan = L.Gather(_TAIL_KEY, tuple(columns))
            for stage in stages:
                node = stage.replace_children((node,))
            tail = compile_plan(node)
        return LineagePlan(
            core=compile_plan(core),
            arity=certification.core.arity,
            slots=slots,
            key_width=len(
                database.catalog.table(sensitive_table).schema.primary_key
            ),
            distinct=distinct,
            aggregate=aggregate,
            tail=tail,
        )

    def analyze(
        self,
        lineage: LineagePlan,
        parameters: dict[str, object] | None,
        tuples_by_id: dict[object, list[tuple]],
    ) -> LineageOutcome:
        """Classify every candidate tuple with one run of the core.

        ``tuples_by_id`` maps candidate partition-by IDs to the primary
        keys of their sensitive-table tuples (the same granularity the
        deletion tester uses).
        """
        context = self._database.make_context(parameters)
        pairs = lineage_pairs(
            collect_rows(lineage.core, context),
            lineage.arity,
            lineage.slots,
            lineage.key_width,
        )
        if lineage.distinct:
            pairs = collapse_distinct(pairs)

        pk_to_id: dict[tuple, object] = {}
        for id_value, pk_list in tuples_by_id.items():
            for pk in pk_list:
                pk_to_id[pk] = id_value

        outcome = LineageOutcome()
        if lineage.aggregate is not None:
            self._classify_aggregate(
                lineage, pairs, context, pk_to_id, tuples_by_id, outcome
            )
        elif lineage.tail is not None:
            self._classify_replay(
                lineage.tail, pairs, context, pk_to_id, tuples_by_id, outcome
            )
        else:
            # order leaves the output bag alone
            self._classify_spj(pairs, pk_to_id, outcome)
        return outcome

    # ------------------------------------------------------------------
    # classification strategies

    def _classify_spj(
        self, pairs: list, pk_to_id: dict, outcome: LineageOutcome
    ) -> None:
        """Bag-semantics SPJ: accessed ⇔ the tuple is in some output
        row's lineage. One set union decides every candidate."""
        accessed = outcome.accessed
        for _row, lineage in pairs:
            for pk in lineage:
                id_value = pk_to_id.get(pk)
                if id_value is not None:
                    accessed.add(id_value)

    def _classify_aggregate(
        self,
        lineage: LineagePlan,
        pairs: list,
        context: "ExecutionContext",
        pk_to_id: dict,
        tuples_by_id: dict,
        outcome: LineageOutcome,
    ) -> None:
        """Aggregate spine: group once, then per candidate re-derive only
        the affected groups (and run the compiled tail over the rebuilt
        group rows when it can remap them onto unchanged final output)."""
        analysis = _AggregateAnalysis(lineage.aggregate)
        analysis.consume(pairs, context, set(pk_to_id))
        tail = lineage.tail
        # without a tail, group rows (which embed their distinct group
        # keys) change iff the output bag changes
        baseline_final: Counter | None = None
        if tail is not None:
            baseline_final = _run_tail(tail, analysis.baseline_rows(), context)
        accessed = outcome.accessed
        for id_value, pk_list in tuples_by_id.items():
            for pk in pk_list:
                if id_value in accessed:
                    break
                affected = analysis.pk_groups.get(pk)
                if not affected:
                    continue  # no group touches this tuple: unaccessed
                try:
                    if tail is None:
                        changed = any(
                            analysis.group_changed(key, pk)
                            for key in affected
                        )
                    else:
                        changed = _run_tail(
                            tail, analysis.rebuilt_rows(pk), context
                        ) != baseline_final
                except Exception:
                    outcome.undecided.setdefault(id_value, []).append(pk)
                    continue
                if changed:
                    accessed.add(id_value)

    def _classify_replay(
        self,
        tail: PhysicalOperator,
        pairs: list,
        context: "ExecutionContext",
        pk_to_id: dict,
        tuples_by_id: dict,
        outcome: LineageOutcome,
    ) -> None:
        """Generic spine (e.g. top-k over SPJ rows): run the compiled tail
        over the surviving core rows per relevant candidate — still one
        base execution, with per-candidate work linear in the core output."""
        baseline_final = _run_tail(
            tail, [row for row, _lineage in pairs], context
        )
        relevant: set = set()
        for _row, lineage in pairs:
            for pk in lineage:
                if pk in pk_to_id:
                    relevant.add(pk)
        accessed = outcome.accessed
        for id_value, pk_list in tuples_by_id.items():
            for pk in pk_list:
                if id_value in accessed:
                    break
                if pk not in relevant:
                    continue
                try:
                    survivors = [
                        row for row, lineage in pairs if pk not in lineage
                    ]
                    changed = (
                        _run_tail(tail, survivors, context) != baseline_final
                    )
                except Exception:
                    outcome.undecided.setdefault(id_value, []).append(pk)
                    continue
                if changed:
                    accessed.add(id_value)
