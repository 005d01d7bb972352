"""Fragment rewriting: split one optimized plan into shards + merge.

The coordinator compiles a statement once (parse, bind, rewrite, audit
instrumentation) and then cuts the instrumented logical plan at the
highest *shard-safe* node:

* **shard-safe** subtrees contain only Scan / Filter / Project / Join /
  Audit (and the no-FROM OneRow leaf). Run on every shard over its
  partition, the union of their outputs is exactly the single-node
  output — joins are sound because routing admits at most one
  partitioned table per plan (everything else is replicated, as is a
  trigger body's ``accessed`` Gather leaf, read whole on every shard),
  and audit operators are sound because the partition-by column is the
  distribution key, so each shard's ID view answers global membership
  for the rows that shard stores. Under the paper's sound heuristics
  (leaf-node, HCN, cost) audit operators never rise above an Aggregate /
  Distinct / Sort / Limit barrier, so they always land in the shard
  fragment and per-shard ACCESSED sets union losslessly at the gather.

* everything above the cut is rebuilt over a :class:`~repro.plan.logical.
  Gather` leaf and runs at the coordinator, with merge-aware rewrites at
  the boundary:

  - ``Aggregate`` with only COUNT / SUM / MIN / MAX splits into per-shard
    partials plus a final merge aggregate (COUNT partials are summed by
    ``count_merge``, which reads 0, not NULL, when a degraded read
    skipped every shard); AVG and
    DISTINCT aggregates fall back to gathering the aggregate's *input*
    rows and running the original operator at the coordinator;
  - ``Sort``, ``Distinct`` and ``Limit`` push a local copy into the
    shards (local order / dedup / top-k bounds what crosses the
    exchange) and re-apply at the coordinator. The gather concatenates
    the fragments' outputs in shard order, so the coordinator's stable
    sort breaks ties by (shard index, position within the shard).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ClusterRoutingError
from repro.expr.nodes import ColumnRef, SubqueryExpression
from repro.plan import logical as L
from repro.plan.builder import OneRow

#: operators whose per-shard union equals the single-node output (the
#: only Gather the binder makes is a trigger body's ``accessed``)
_SHARD_SAFE = (L.Scan, L.Filter, L.Project, L.Join, L.Audit, OneRow, L.Gather)

#: aggregate -> merge aggregate for the partial/final split
_MERGE_AGGREGATE = {
    "count": "count_merge", "sum": "sum", "min": "min", "max": "max",
}


@dataclass
class ScatterPlan:
    """One statement's physical distribution: fragment + merge stage."""

    #: logical fragment every shard compiles and runs over its partition
    shard_plan: L.LogicalPlan
    #: coordinator-side plan over a Gather leaf; None when the gathered
    #: stream is already the final result
    upper: L.LogicalPlan | None
    #: exchange key the Gather leaf reads from ``context.gather_rows``
    gather_key: int


def _subtree_shard_safe(plan: L.LogicalPlan) -> bool:
    return all(isinstance(node, _SHARD_SAFE) for node in plan.walk())


def _node_expressions(node: L.LogicalPlan):
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


def iter_subquery_plans(plan: L.LogicalPlan):
    """Every bound subquery plan nested anywhere under ``plan``."""
    for node in plan.walk():
        for expression in _node_expressions(node):
            for part in expression.walk():
                if (
                    isinstance(part, SubqueryExpression)
                    and part.plan is not None
                ):
                    yield part.plan
                    yield from iter_subquery_plans(part.plan)


def partitioned_scans(plan: L.LogicalPlan, topology) -> list[L.Scan]:
    """Scans of partitioned tables in the main plan (not subqueries)."""
    return [
        node
        for node in plan.walk()
        if isinstance(node, L.Scan) and topology.is_partitioned(node.table_name)
    ]


def check_routable(plan: L.LogicalPlan, topology) -> bool:
    """True when ``plan`` needs a scatter; raises on unsound shapes.

    Routing rules (v1, documented in DESIGN.md §11): at most one
    partitioned-table scan in the main plan, and none inside subquery
    expressions — a subquery executes per-shard and would silently read
    one partition where the single-node semantics read the whole table.
    """
    for subplan in iter_subquery_plans(plan):
        inner = partitioned_scans(subplan, topology)
        if inner:
            raise ClusterRoutingError(
                f"subquery reads partitioned table "
                f"{inner[0].table_name!r}; partitioned tables may only "
                "appear in the main FROM clause of a sharded query"
            )
    scans = partitioned_scans(plan, topology)
    if len(scans) > 1:
        names = sorted({scan.table_name for scan in scans})
        raise ClusterRoutingError(
            "query reads more than one partitioned-table instance "
            f"({', '.join(names)}); distributed joins and self-joins of "
            "partitioned tables are not supported"
        )
    return bool(scans)


def _splittable_aggregate(aggregate: L.Aggregate) -> bool:
    return all(
        not spec.distinct and spec.name.lower() in _MERGE_AGGREGATE
        for spec in aggregate.aggregates
    )


def _final_aggregate(
    aggregate: L.Aggregate, child: L.LogicalPlan
) -> L.Aggregate:
    """Merge aggregate over gathered partial rows.

    Partial output is ``group columns ++ aggregate columns``; the final
    groups re-key on the group slots and each aggregate merges its
    partial slot (COUNT partials are summed — each shard already
    counted — and give 0 when none arrives; SUM / MIN / MAX merge with
    themselves and stay NULL over no partials).
    """
    group_count = len(aggregate.group_expressions)
    final_groups = tuple(
        ColumnRef(aggregate.columns[slot].name, index=slot)
        for slot in range(group_count)
    )
    final_specs = tuple(
        L.AggregateSpec(
            _MERGE_AGGREGATE[spec.name.lower()],
            ColumnRef(
                aggregate.columns[group_count + position].name,
                index=group_count + position,
            ),
        )
        for position, spec in enumerate(aggregate.aggregates)
    )
    return L.Aggregate(child, final_groups, final_specs, aggregate.columns)


def split_plan(
    plan: L.LogicalPlan, topology, gather_key: int
) -> ScatterPlan:
    """Cut ``plan`` into a per-shard fragment plus a coordinator stage."""
    # 1. peel the coordinator-only chain off the root
    chain: list[L.LogicalPlan] = []
    cut = plan
    while not _subtree_shard_safe(cut):
        children = cut.children()
        if len(children) != 1:
            raise ClusterRoutingError(
                f"cannot scatter a plan with a {type(cut).__name__} above "
                "an aggregate/sort/distinct subtree (v1 supports a linear "
                "coordinator stage; restructure the query or run it on a "
                "single-node database)"
            )
        chain.append(cut)
        cut = children[0]

    # 2. boundary rewrites, walking the chain bottom-up. While still
    # adjacent to the cut, Sort/Distinct/Limit push local copies into the
    # fragment and a splittable Aggregate splits partial/final; the first
    # coordinator-only node ends adjacency.
    shard_plan = cut
    upper_nodes: list[L.LogicalPlan | tuple] = []  # bottom-first
    adjacent = True
    for node in reversed(chain):
        if adjacent and isinstance(node, L.Aggregate):
            if _splittable_aggregate(node):
                shard_plan = replace(node, child=shard_plan)
                upper_nodes.append(("final-aggregate", node))
            else:
                upper_nodes.append(node)
            adjacent = False
            continue
        if adjacent and isinstance(node, (L.Distinct, L.Sort, L.Limit)):
            shard_plan = node.replace_children([shard_plan])
            upper_nodes.append(node)
            continue
        adjacent = False
        upper_nodes.append(node)

    # 3. rebuild the coordinator stage over the exchange leaf
    gather_columns = (
        shard_plan.columns
        if not upper_nodes or not isinstance(upper_nodes[0], tuple)
        else upper_nodes[0][1].columns
    )
    upper: L.LogicalPlan | None = None
    current: L.LogicalPlan = L.Gather(gather_key, tuple(gather_columns))
    if upper_nodes:
        for entry in upper_nodes:
            if isinstance(entry, tuple):
                current = _final_aggregate(entry[1], current)
            else:
                current = entry.replace_children([current])
        upper = current

    return ScatterPlan(
        shard_plan=shard_plan,
        upper=upper,
        gather_key=gather_key,
    )


__all__ = [
    "ScatterPlan",
    "check_routable",
    "iter_subquery_plans",
    "partitioned_scans",
    "split_plan",
]
