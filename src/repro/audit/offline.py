"""Offline auditor: the deletion-based ground truth (Definitions 2.3/2.5).

A tuple ``t`` of the sensitive table is *accessed* by query ``Q`` over
database ``D`` iff ``Q(D) ≠ Q(D − t)`` (bag semantics). The offline auditor
implements the definition directly, with the engineering optimizations that
make it usable:

* **candidate restriction** — by Claim 3.5, every accessed tuple passes a
  leaf-level scan of the sensitive table, so only sensitive tuples that
  satisfy the pushed-down scan predicates (in the main query or any
  subquery) need the deletion test;
* **lineage fast path** — for certifiable plan shapes, one run of the
  query rewritten to carry each row's sensitive primary keys as columns
  classifies every candidate at once (:mod:`repro.audit.lineage`),
  replacing N deletion re-runs. The ``offline_audit_mode`` knob on the
  database ('auto' | 'deletion') selects the strategy;
* **deletion fallback** — candidates the lineage engine leaves undecided
  (or every candidate, for uncertifiable plans) still get the literal
  deletion test, one re-run per tuple, stopping at the first change per
  ID (:func:`deletion_test`, shared with the cluster coordinator);
* **sensitive-free subplan caching** — on the deletion path the same
  physical plan is executed once per candidate with a *tombstone* hiding
  that tuple; subtrees that never read the sensitive table produce
  identical rows on every run and are materialized once via
  :class:`CacheOperator`.

This component plays the role of the paper's offline auditing system [9]:
the ground truth that Figures 6 and 9 compare the heuristics against, and
the verifier for queries the SELECT-trigger layer flags.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.audit.expression import AuditExpression
from repro.audit.lineage import LineageAuditor, LineagePlan
from repro.errors import AuditError
from repro.exec.operators.base import PhysicalOperator
from repro.exec.operators.cache import CacheOperator
from repro.expr.nodes import (
    Expression,
    SubqueryExpression,
    conjuncts,
)
from repro.plan import logical as L
from repro.plan.logical import LogicalPlan

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.audit.idview import IdView
    from repro.database import Database


def check_offline_audit_mode(mode: str) -> str:
    """``mode`` if it is one of the strategies that
    :attr:`repro.database.Database.offline_audit_mode` lists, else
    ValueError."""
    if mode not in ("auto", "deletion"):
        raise ValueError(
            f"offline_audit_mode must be 'auto' or 'deletion', got {mode!r}"
        )
    return mode


def deletion_test(
    run: Callable[[dict[str, set] | None], list[tuple]],
    table_name: str,
    tuples_by_id: dict[object, list[tuple]],
) -> tuple[set, int]:
    """Definition 2.3 literally: the IDs whose deletion changes the result.

    ``run(tombstones)`` executes the query with the given primary keys
    of ``table_name`` hidden (``None`` hides nothing). Each candidate
    tuple is tombstoned alone and the result compared with the baseline
    as a bag; an ID is accessed at its first tuple that changes it.
    Returns the accessed IDs and the number of deletion runs made.
    """
    baseline = Counter(run(None))
    accessed: set = set()
    runs = 0
    for id_value, pk_list in tuples_by_id.items():
        for pk in pk_list:
            runs += 1
            if Counter(run({table_name: {pk}})) != baseline:
                accessed.add(id_value)
                break
    return accessed, runs


@dataclass
class _AuditPlans:
    """One query's plans for auditing, each compiled on first need."""

    plan: LogicalPlan
    #: plan-cache tags the entry was built under
    tags: tuple = ()
    #: the deletion plan and the store of its CacheOperators
    physical: PhysicalOperator | None = None
    store: dict = field(default_factory=dict)
    #: the compiled lineage plan, or why the plan is not certified
    lineage: LineagePlan | str | None = None


class OfflineAuditor:
    """Computes the exact set of accessed partition-by IDs for a query."""

    def __init__(
        self,
        database: "Database",
        use_cache: bool = True,
        restrict_candidates: bool = True,
        mode: str | None = None,
    ) -> None:
        self._database = database
        self._use_cache = use_cache
        #: False = the naive Definition-2.3 system: deletion-test every
        #: sensitive tuple for every query (the §V-D baseline)
        self._restrict_candidates = restrict_candidates
        #: per-auditor override of the database's ``offline_audit_mode``
        #: (None = inherit)
        self._mode = None if mode is None else check_offline_audit_mode(mode)
        self._lineage = LineageAuditor(database)
        #: deletion runs performed by the last audit() call (for benches)
        self.last_deletion_runs = 0
        self.last_candidate_count = 0
        #: strategy the last audit() resolved to: 'lineage' (no deletion
        #: run at all), 'mixed' (lineage + fallback), or 'deletion'
        self.last_mode = "deletion"
        #: did the lineage engine certify the last plan?
        self.last_lineage_certified = False
        #: why it refused, when it did (telemetry for benches/tests)
        self.last_fallback_reason: str | None = None
        #: candidate tuples classified without a deletion re-run
        self.last_deletion_runs_avoided = 0
        # Compiled-plan reuse across audit() calls: a batch auditor
        # replays the same *workload* once per expression, and benches
        # repeat one audit — re-parsing and re-compiling the deletion plan
        # or the lineage core and tail each time is pure overhead. Entries
        # are tag-checked against the database's plan-cache tags and kept
        # in LRU order (hits renew, like repro.plancache), and the
        # CacheOperator store is emptied on every reuse since DML between
        # calls can change the materialized sensitive-free subtree rows.
        self._plans: OrderedDict[tuple, _AuditPlans] = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------

    def audit(
        self,
        sql: str,
        audit_expression: str,
        parameters: dict[str, object] | None = None,
    ) -> set:
        """Accessed IDs of ``audit_expression`` for the given query."""
        view = self._database.audit_manager.view(audit_expression)
        plans = self._cached_plans(
            sql, view.expression.sensitive_table, parameters
        )
        return self._audit(plans, view, parameters)

    def audit_plan(
        self,
        plan: LogicalPlan,
        audit_expression: str,
        parameters: dict[str, object] | None = None,
    ) -> set:
        """Accessed IDs for an already-built (rewritten) logical plan,
        compiled for this call only."""
        view = self._database.audit_manager.view(audit_expression)
        return self._audit(_AuditPlans(plan), view, parameters)

    def _cached_plans(
        self,
        sql: str,
        sensitive_table: str,
        parameters: dict[str, object] | None,
    ) -> _AuditPlans:
        """The plans for ``sql``, reused across audit calls."""
        database = self._database
        key = (sql.strip(), sensitive_table.lower(), self._use_cache)
        tags = database._plan_cache_tags()
        cached = self._plans.get(key)
        if cached is not None and cached.tags == tags:
            # true LRU: a hit renews the entry so sustained reuse of a
            # hot workload never evicts it in favor of one-off queries
            self._plans.move_to_end(key)
            cached.store.clear()
            self.plan_cache_hits += 1
            return cached
        self.plan_cache_misses += 1
        plans = _AuditPlans(database.plan_query(sql, parameters), tags)
        self._plans[key] = plans
        self._plans.move_to_end(key)
        if len(self._plans) > 64:
            self._plans.popitem(last=False)
        return plans

    def _audit(
        self,
        plans: _AuditPlans,
        view: "IdView",
        parameters: dict[str, object] | None,
    ) -> set:
        database = self._database
        plan = plans.plan
        expression = view.expression
        view_ids = view.ids()
        table = database.catalog.table(expression.sensitive_table)
        id_position = table.schema.position_of(expression.partition_by)
        pk_positions = table.schema.primary_key_positions()
        if not pk_positions:
            raise AuditError(
                "offline auditing requires a primary key on the "
                f"sensitive table {expression.sensitive_table!r}"
            )

        if self._restrict_candidates:
            candidates = self._candidate_ids(plan, expression, parameters)
            candidates &= view_ids
        else:
            candidates = set(view_ids)
        self.last_candidate_count = len(candidates)
        self.last_deletion_runs = 0
        self.last_deletion_runs_avoided = 0
        self.last_mode = "deletion"
        self.last_lineage_certified = False
        self.last_fallback_reason = None
        if not candidates:
            return set()

        # group candidate tuples by ID so multi-tuple IDs test per tuple
        tuples_by_id: dict[object, list[tuple]] = {}
        for row in table.rows():
            id_value = row[id_position]
            if id_value in candidates:
                pk = tuple(row[position] for position in pk_positions)
                tuples_by_id.setdefault(id_value, []).append(pk)
        total_tuples = sum(len(pks) for pks in tuples_by_id.values())

        mode = self._mode or database.offline_audit_mode
        outcome = None
        if mode == "auto":
            if plans.lineage is None:
                plans.lineage = self._lineage.compile(
                    plan, expression.sensitive_table
                )
            if isinstance(plans.lineage, str):
                self.last_fallback_reason = plans.lineage
            else:
                outcome = self._lineage.analyze(
                    plans.lineage, parameters, tuples_by_id
                )

        if outcome is not None:
            self.last_lineage_certified = True
            accessed = set(outcome.accessed)
            # only undecided tuples of still-undecided IDs need a re-run
            fallback = {
                id_value: pk_list
                for id_value, pk_list in outcome.undecided.items()
                if id_value not in accessed
            }
        else:
            accessed = set()
            fallback = tuples_by_id

        if fallback:
            if plans.physical is None:
                plans.physical = self._compile(
                    plan, expression.sensitive_table, plans.store
                )
            physical = plans.physical
            fallback_accessed, self.last_deletion_runs = deletion_test(
                lambda tombstones: database.run_physical(
                    physical, parameters, tombstones=tombstones
                ).rows_list(),
                expression.sensitive_table,
                fallback,
            )
            accessed |= fallback_accessed
        self.last_deletion_runs_avoided = (
            total_tuples - self.last_deletion_runs
        )
        if outcome is not None:
            self.last_mode = "lineage" if not fallback else "mixed"
        return accessed

    # ------------------------------------------------------------------
    # candidate restriction (Claim 3.5)

    def _candidate_ids(
        self,
        plan: LogicalPlan,
        expression: AuditExpression,
        parameters: dict[str, object] | None,
    ) -> set:
        """IDs of sensitive tuples that pass any leaf scan of the query."""
        database = self._database
        table = database.catalog.table(expression.sensitive_table)
        id_position = table.schema.position_of(expression.partition_by)
        scans = _sensitive_scans(plan, expression.sensitive_table)
        if not scans:
            return set()
        candidates: set = set()
        rows = list(table.rows())
        for scan in scans:
            context = database.make_context(parameters)
            for row in rows:
                if scan.predicate is None or _passes_conservatively(
                    scan.predicate, row, context
                ):
                    candidates.add(row[id_position])
        return candidates

    # ------------------------------------------------------------------
    # compilation with sensitive-free subtree caching

    def _compile(
        self,
        plan: LogicalPlan,
        sensitive_table: str,
        store: dict[int, list[tuple]],
    ) -> PhysicalOperator:
        from repro.optimizer.physical import PhysicalPlanner

        cacheable: set[int] = set()
        if self._use_cache:
            _collect_topmost_insensitive(plan, sensitive_table, cacheable)

        def wrapper(
            node: LogicalPlan, operator: PhysicalOperator
        ) -> PhysicalOperator:
            if id(node) in cacheable:
                return CacheOperator(operator, store, id(node))
            return operator

        planner = PhysicalPlanner(
            self._database.catalog,
            self._database.audit_manager.resolve_view,
            node_wrapper=wrapper if self._use_cache else None,
        )
        return planner.compile(plan)


# ---------------------------------------------------------------------------
# plan analysis helpers


def _plan_expressions(node: LogicalPlan):
    if isinstance(node, L.Scan):
        if node.predicate is not None:
            yield node.predicate
    elif isinstance(node, L.Filter):
        yield node.predicate
    elif isinstance(node, L.Project):
        yield from node.expressions
    elif isinstance(node, L.Join):
        if node.condition is not None:
            yield node.condition
    elif isinstance(node, L.Aggregate):
        yield from node.group_expressions
        for spec in node.aggregates:
            if spec.argument is not None:
                yield spec.argument
    elif isinstance(node, L.Sort):
        for key in node.keys:
            yield key.expression


def _subquery_plans(expression: Expression):
    for node in expression.walk():
        if isinstance(node, SubqueryExpression) and node.plan is not None:
            yield node.plan


def _sensitive_scans(
    plan: LogicalPlan, table_name: str
) -> list[L.Scan]:
    """All scans of ``table_name``, including inside subquery plans."""
    scans: list[L.Scan] = []
    for node in plan.walk():
        if isinstance(node, L.Scan) and node.table_name == table_name:
            scans.append(node)
        for expression in _plan_expressions(node):
            for subplan in _subquery_plans(expression):
                scans.extend(_sensitive_scans(subplan, table_name))
    return scans


def plan_reads_table(plan: LogicalPlan, table_name: str) -> bool:
    """True if the plan (or any embedded subquery) scans ``table_name``."""
    for node in plan.walk():
        if isinstance(node, L.Scan) and node.table_name == table_name:
            return True
        for expression in _plan_expressions(node):
            for subplan in _subquery_plans(expression):
                if plan_reads_table(subplan, table_name):
                    return True
    return False


def _node_is_sensitive(node: LogicalPlan, table_name: str) -> bool:
    """Does this single node read the table (directly or via subqueries)?"""
    if isinstance(node, L.Scan) and node.table_name == table_name:
        return True
    for expression in _plan_expressions(node):
        for subplan in _subquery_plans(expression):
            if plan_reads_table(subplan, table_name):
                return True
    return False


def _collect_topmost_insensitive(
    plan: LogicalPlan, table_name: str, found: set[int]
) -> None:
    """Mark the topmost subtrees that never read the sensitive table."""
    if not plan_reads_table(plan, table_name):
        found.add(id(plan))
        return
    for child in plan.children():
        _collect_topmost_insensitive(child, table_name, found)


def _passes_conservatively(
    predicate: Expression, row: tuple, context
) -> bool:
    """Conservative scan-predicate test for candidate computation.

    Evaluates each conjunct; a conjunct that cannot be evaluated standalone
    (correlated references into an enclosing query) counts as passing, so
    the candidate set stays a superset of the truly accessible tuples.
    """
    from repro.expr.evaluator import evaluate

    for conjunct in conjuncts(predicate):
        try:
            verdict = evaluate(conjunct, row, context)
        except Exception:
            continue  # unevaluable here: keep the tuple as a candidate
        if verdict is not True:
            return False
    return True
