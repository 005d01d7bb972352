"""The physical audit operator (§IV-A.2).

A pass-through "data viewer": for every row flowing by, it probes slot
``id_slot`` against the audit expression's materialized sensitive-ID set
(a hash probe, like the build side of a hash join) and records hits in the
context's ACCESSED state. It outputs every input row unchanged — as far as
the rest of the plan is concerned it is a no-op — which is what guarantees
the instrumented plan returns exactly the original query result.

When the operator sits directly above a :class:`TableScan` of the
sensitive table (leaf placement, or any single-table plan where the
commutative pull-up leaves it there), it fuses with the scan's block
stream: for each block it first consults the block's sensitive-ID sketch
(zone-range shortcut, then a Bloom membership test per sensitive ID) and
skips the per-row membership pass entirely when the block provably holds
no sensitive value. The consult is conservative — a skipped block cannot
contain any probe-set member — so ACCESSED is byte-identical with and
without skipping; only the probe count drops (Claim 3.6 must survive
skipping).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container

from repro.exec.batch import ColumnBatch
from repro.exec.operators.base import PhysicalOperator
from repro.exec.operators.scan import TableScan

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext

#: skip the sketch consult when the sensitive-ID set is larger than this
#: (the consult is O(|ids|) per block; past this point probing the rows
#: directly is no slower and always exact)
MAX_CONSULT_IDS = 2048


class AuditOperator(PhysicalOperator):
    """No-op row viewer that records sensitive partition-by IDs."""

    def __init__(
        self,
        child: PhysicalOperator,
        audit_name: str,
        id_slot: int,
        sensitive_ids: Container,
    ) -> None:
        self._child = child
        self._audit_name = audit_name
        self._id_slot = id_slot
        self._sensitive_ids = sensitive_ids
        # probe against the raw underlying set when the container exposes
        # one (IdView does): the per-row check must be a bare hash lookup
        self._probe_set = getattr(sensitive_ids, "live_id_set", sensitive_ids)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    # ------------------------------------------------------------------
    # block-sketch fusion

    def _exact_ids(self) -> frozenset | None:
        """Enumerable exact sensitive-ID set, or None when unavailable.

        The sketch consult tests each sensitive ID against the block's
        Bloom filter, which requires enumerating the *exact* set — an
        ``IdView`` always maintains one, even under the bloom probe
        structure (the consult then being exact-relative keeps every
        truly sensitive value probed, so the bloom probe's one-sided
        ACCESSED superset is preserved).
        """
        source = self._sensitive_ids
        ids = getattr(source, "ids", None)
        if callable(ids):
            return ids()
        if isinstance(source, (set, frozenset)):
            return frozenset(source)
        return None

    def _fusion(self, context: "ExecutionContext"):
        """(scan, slot, ids, lo, hi) when block-level skipping applies."""
        if not context.data_skipping:
            return None
        child = self._child
        if not isinstance(child, TableScan):
            return None
        slot = self._id_slot
        if slot not in child.table.sketch_positions:
            return None
        ids = self._exact_ids()
        if ids is None or len(ids) > MAX_CONSULT_IDS:
            return None
        try:
            lo, hi = min(ids), max(ids)
        except (ValueError, TypeError):
            lo = hi = None
        return child, slot, ids, lo, hi

    # ------------------------------------------------------------------
    # execution

    def probe(self, batch: ColumnBatch, context: "ExecutionContext") -> None:
        """One bulk pass over the partition-by column of ``batch``.

        The probe is a single ``set.intersection`` between the
        sensitive-ID set and the selected slice of the ID column — ACCESSED
        grows by the whole hit set at once instead of per row. Every live
        row still counts as exactly one probe, and a NULL ID can never be
        in the sensitive set, so probe counts and ACCESSED contents are
        what a per-row probe would record (Claim 3.6). Probe structures
        without set semantics (the counting Bloom filter) keep a
        per-value membership loop.
        """
        sensitive = self._probe_set
        values = batch.column(self._id_slot)
        if isinstance(sensitive, (set, frozenset)):
            hits = sensitive.intersection(values)
        else:
            hits = {
                value
                for value in values
                if value is not None and value in sensitive
            }
        if hits:
            context.accessed.setdefault(self._audit_name, set()).update(hits)
        context.add_probes(self._audit_name, batch.row_count)

    def rows_columnar(self, context: "ExecutionContext"):
        """Probe each batch and pass it through unchanged; fused with a
        scan of the sensitive table, blocks whose sketch is disjoint from
        the sensitive IDs skip the probe."""
        fusion = self._fusion(context)
        if fusion is None:
            for batch in self._child.rows_columnar(context):
                self.probe(batch, context)
                yield batch
            return
        scan, slot, ids, lo, hi = fusion
        table = scan.table
        for block, batch, summary in scan.scan_column_blocks(context):
            if summary is None:
                summary = table.fresh_summary(block)
            if summary.may_contain_any(slot, ids, lo, hi):
                self.probe(batch, context)
            else:
                context.audit_blocks_skipped += 1
                context.audit_probes_skipped += batch.row_count
            yield batch

    def describe(self) -> str:
        return f"AuditOperator({self._audit_name}, slot={self._id_slot})"
