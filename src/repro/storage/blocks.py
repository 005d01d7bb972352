"""Fixed-capacity row blocks with zone maps and sensitive-ID sketches.

A :class:`~repro.storage.table.Table` partitions its heap into blocks of
at most ``capacity`` rows. Each block carries a :class:`BlockSummary`:

* per-column *zone maps* — min/max over the non-NULL values plus a NULL
  count — consulted by scans to skip blocks that provably cannot satisfy
  a sargable predicate conjunct;
* per-column *sensitive-ID sketches* — counting Bloom filters over the
  block's values of registered columns (the audit expressions'
  partition-by columns) — consulted by the audit operator to skip the
  set-membership pass for blocks provably free of sensitive rows (in the
  spirit of provenance-based data skipping).

The maintenance protocol keeps every consult **conservative** at all
times (false positives scan; false negatives are forbidden):

* INSERT widens the summary in place (min/max extend, NULL count and
  sketch grow) — a widened summary is exact if it was exact before;
* UPDATE adds the *new* row's contribution, then marks the summary
  stale — the old values linger as false positives until rebuild;
* DELETE only marks the summary stale — the remaining contents are a
  superset of the block;
* a stale summary is rebuilt lazily on the next consult. Rebuilds
  construct a fresh :class:`BlockSummary` aside and swap the reference
  atomically (one attribute store under the GIL), so readers racing a
  rebuild observe either the conservative stale summary or the exact
  fresh one — never a half-built sketch.
"""

from __future__ import annotations

from typing import Iterable

#: default rows per block (matches the executor's DEFAULT_BATCH_SIZE so a
#: block materializes as one batch)
DEFAULT_BLOCK_CAPACITY = 1024

#: sketch false-positive target per block; blocks are small, so this
#: costs ~10 bits per row of a sketched column
SKETCH_FALSE_POSITIVE_RATE = 0.01


def _make_sketch(capacity: int):
    # Imported lazily: repro.audit.__init__ imports modules that import
    # repro.storage.table, so a module-level import here would cycle.
    from repro.audit.bloom import CountingBloomFilter

    return CountingBloomFilter(
        expected_items=capacity,
        false_positive_rate=SKETCH_FALSE_POSITIVE_RATE,
    )


class BlockSummary:
    """Zone maps + sketches of one block's rows at some point in time."""

    __slots__ = ("mins", "maxs", "null_counts", "sketches", "row_count",
                 "stale", "dropped", "_capacity")

    def __init__(self, column_count: int, capacity: int,
                 sketch_positions: Iterable[int] = ()) -> None:
        self.mins: list[object] = [None] * column_count
        self.maxs: list[object] = [None] * column_count
        self.null_counts: list[int] = [0] * column_count
        #: columns whose zone map was abandoned (incomparable values);
        #: consults on them always answer "may match"
        self.dropped: set[int] = set()
        self.sketches = {
            position: _make_sketch(capacity)
            for position in sketch_positions
        }
        self.row_count = 0
        #: True once the summary may be a strict superset of the block
        #: (after UPDATE/DELETE); consults stay safe, rebuilds restore
        #: exactness
        self.stale = False
        self._capacity = capacity

    @classmethod
    def build(
        cls,
        rows: Iterable[tuple],
        column_count: int,
        capacity: int,
        sketch_positions: Iterable[int],
    ) -> "BlockSummary":
        """Exact summary of ``rows`` (the rebuild path)."""
        summary = cls(column_count, capacity, sketch_positions)
        for row in rows:
            summary.include_row(row)
        return summary

    # ------------------------------------------------------------------
    # maintenance

    def include_row(self, row: tuple) -> None:
        """Widen the summary to cover ``row`` (INSERT / UPDATE new image).

        Widening preserves the conservative invariant unconditionally:
        it can only add coverage, never remove it.
        """
        mins, maxs, nulls = self.mins, self.maxs, self.null_counts
        for position, value in enumerate(row):
            if value is None:
                nulls[position] += 1
                continue
            if position in self.dropped:
                continue
            low = mins[position]
            try:
                if low is None or value < low:
                    mins[position] = value
                if maxs[position] is None or value > maxs[position]:
                    maxs[position] = value
            except TypeError:
                # incomparable mix (should not happen post-coercion):
                # abandon the zone map for this column — every consult
                # on it answers "may match" from now on
                mins[position] = None
                maxs[position] = None
                self.dropped.add(position)
        for position, sketch in self.sketches.items():
            value = row[position]
            if value is not None:
                sketch.add(value)
        self.row_count += 1

    # ------------------------------------------------------------------
    # conservative consults

    def may_match(self, position: int, op: str, value: object) -> bool:
        """Could *some* row of the block satisfy ``col <op> value``?

        Must only return False when provably no row can — rows whose
        column is NULL never satisfy a comparison (three-valued logic),
        so the decision runs over the non-NULL zone [min, max]. Any
        doubt (incomparable types, unknown op) returns True.
        """
        if self.row_count == 0:
            return False
        if position in self.dropped:
            return True
        if op == "isnull":
            return self.null_counts[position] > 0
        low, high = self.mins[position], self.maxs[position]
        if op == "notnull":
            # satisfiable iff some non-NULL value exists in the block
            return low is not None
        if value is None:
            return False  # col <op> NULL is never True
        if low is None:
            return False  # column is all NULL: no row satisfies
        try:
            if op == "=":
                return not (value < low or value > high)
            if op == "<>":
                return not (low == high == value)
            if op == "<":
                return low < value
            if op == "<=":
                return low <= value
            if op == ">":
                return high > value
            if op == ">=":
                return high >= value
        except TypeError:
            return True
        return True

    def may_contain_any(
        self,
        position: int,
        values,
        values_min: object = None,
        values_max: object = None,
    ) -> bool:
        """Could the block hold *any* of ``values`` in ``position``?

        Zone-range shortcut first (two comparisons when the caller
        precomputed the probe set's min/max), then the per-value sketch
        consult. Absent sketch (column registered after this summary was
        built) or any comparison doubt returns True.
        """
        if self.row_count == 0:
            return False
        low, high = self.mins[position], self.maxs[position]
        if position in self.dropped:
            low = None
        if low is not None:
            try:
                if values_max is not None and values_max < low:
                    return False
                if values_min is not None and values_min > high:
                    return False
            except TypeError:
                pass
        elif position not in self.dropped:
            return False  # column is all NULL in this block
        sketch = self.sketches.get(position)
        if sketch is None:
            return True
        # Economics guard: a consult may probe every value, and a hit
        # only saves ``row_count`` downstream probes — once the probe
        # set outnumbers the block's rows the consult costs more than
        # the skip it could buy. "May contain" is always conservative.
        if len(values) > self.row_count:
            return True
        return any(value in sketch for value in values)


class Block:
    """One fixed-capacity partition of a table's heap."""

    __slots__ = ("index", "capacity", "rows", "summary")

    def __init__(self, index: int, capacity: int, column_count: int,
                 sketch_positions: Iterable[int]) -> None:
        self.index = index
        self.capacity = capacity
        #: rid -> row tuple (rid-addressed, like the flat heap it replaces)
        self.rows: dict[int, tuple] = {}
        self.summary = BlockSummary(column_count, capacity, sketch_positions)

    def rows_snapshot(self) -> list[tuple]:
        return list(self.rows.values())

    # ------------------------------------------------------------------
    # mutations (called under the owning table's lock)

    def insert(self, rid: int, row: tuple) -> None:
        self.rows[rid] = row
        # widening a stale summary keeps it a superset — always include
        self.summary.include_row(row)

    def remove(self, rid: int) -> None:
        del self.rows[rid]
        self.summary.stale = True

    def replace(self, rid: int, row: tuple) -> None:
        self.rows[rid] = row
        self.summary.include_row(row)
        self.summary.stale = True

    def rebuild_summary(self, column_count: int,
                        sketch_positions: Iterable[int]) -> BlockSummary:
        """Fresh exact summary, swapped in atomically (GIL store)."""
        summary = BlockSummary.build(
            self.rows.values(), column_count, self.capacity,
            sketch_positions,
        )
        self.summary = summary
        return summary
