"""Cluster topology: which tables are partitioned, and where rows live.

Partitioning is *audit-driven*: a table becomes hash-partitioned on its
audit partition-by column the moment a ``CREATE AUDIT EXPRESSION`` names
it as the sensitive table — the paper's partition-by key doubles as the
distribution key, which is what makes per-shard audit probes sound (a
sensitive ID and every base row carrying it live on the same shard, so
the shard-local ID view answers exactly the global membership question
for the rows that shard scans). Every other table is *replicated*: DDL
and DML broadcast to all shards, reads route to shard 0.

The hash must be stable across processes (Python's ``hash()`` is
randomized per process, and a subprocess shard backend must route
identically), so rows route by CRC-32 over the journal's canonical ID
encoding — the same codec that makes partition IDs recoverable.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from repro.durability.journal import encode_id
from repro.errors import DurabilityError


def _canonical_bytes(value: object) -> bytes:
    """Deterministic byte encoding of a partition-key value."""
    try:
        encoded = encode_id(value)
    except DurabilityError:
        # values outside the journal codec still need a stable home;
        # repr is deterministic for the engine's remaining value types
        encoded = repr(value)
    return repr(encoded).encode("utf-8")


def shard_of(value: object, shard_count: int) -> int:
    """Owning shard of a partition-key value (stable across processes)."""
    if shard_count <= 1:
        return 0
    return zlib.crc32(_canonical_bytes(value)) % shard_count


@dataclass(frozen=True)
class PartitionedTable:
    """One hash-partitioned table: name plus its distribution column."""

    table: str
    column: str
    position: int  # ordinal of ``column`` in the table schema


class Topology:
    """Shard count plus the table -> partition-column map, versioned.

    The version bumps on any change that can invalidate a compiled
    scatter plan's routing (a table becoming partitioned, a reshard);
    the coordinator's plan cache includes it in every entry's tag tuple,
    mirroring the stats-epoch mechanism single-node plans use.
    """

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count
        self.version = 0
        self._partitioned: dict[str, PartitionedTable] = {}
        self._lock = threading.Lock()

    def is_partitioned(self, table: str) -> bool:
        return table.lower() in self._partitioned

    def partitioned(self, table: str) -> PartitionedTable | None:
        return self._partitioned.get(table.lower())

    def owner(self, table: str, value: object) -> int:
        """Owning shard for a row of ``table`` with partition key ``value``."""
        if not self.is_partitioned(table):
            raise KeyError(f"table {table!r} is not partitioned")
        return shard_of(value, self.shard_count)

    def partition_rows(
        self, table: str, rows
    ) -> dict[int, list[tuple]] | None:
        """Group full rows of ``table`` by owning shard.

        Returns ``None`` when the table is replicated (or the cluster has
        one shard) — i.e. when there is nothing to route. Used by INSERT
        routing, bulk loading, and the quarantine refusal check (an
        INSERT is refused only when a row's *owner* is down).
        """
        entry = self.partitioned(table)
        if entry is None or self.shard_count <= 1:
            return None
        owned: dict[int, list[tuple]] = {}
        for row in rows:
            owned.setdefault(
                shard_of(row[entry.position], self.shard_count), []
            ).append(row)
        return owned

    def add_partitioned(
        self, table: str, column: str, position: int
    ) -> None:
        """Mark ``table`` as hash-partitioned on ``column``.

        Idempotent for the same column; a second audit expression on the
        same table must share its partition-by column — two distribution
        keys cannot both co-locate rows with their sensitive IDs.
        """
        key = table.lower()
        with self._lock:
            existing = self._partitioned.get(key)
            if existing is not None:
                if existing.column != column.lower():
                    from repro.errors import ClusterRoutingError

                    raise ClusterRoutingError(
                        f"table {table!r} is already partitioned by "
                        f"{existing.column!r}; cannot repartition by "
                        f"{column!r} (audit expressions on one table must "
                        "share a partition-by column)"
                    )
                return
            self._partitioned[key] = PartitionedTable(
                key, column.lower(), position
            )
            self.version += 1

    def drop_table(self, table: str) -> None:
        """Forget a dropped table (keeps version monotonic on changes)."""
        with self._lock:
            if self._partitioned.pop(table.lower(), None) is not None:
                self.version += 1

    def reshard(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        with self._lock:
            self.shard_count = shard_count
            self.version += 1

    def describe(self) -> dict:
        """JSON-ready snapshot (the journal manifest and tests read it)."""
        return {
            "shards": self.shard_count,
            "version": self.version,
            "partitioned": {
                name: entry.column
                for name, entry in sorted(self._partitioned.items())
            },
        }


__all__ = ["PartitionedTable", "Topology", "shard_of"]
