"""Horizontally sharded engine: scatter-gather over embedded shards.

``ClusterDatabase`` hash-partitions sensitive tables on their audit
partition-by column across N embedded :class:`~repro.database.Database`
shards and exposes the single-node facade (``execute`` /
``offline_audit`` / ``attach_journal`` / ``recover`` / ``serve``). The
coordinator parses and optimizes once, splits the instrumented plan into
per-shard fragments plus a merge stage, executes the fragments one
after another on the caller's thread, and unions per-shard ACCESSED sets at the gather so trigger
firings and audit attribution match a single-node run exactly.

The layer is fault-tolerant (DESIGN.md §12): each fragment runs
under its own deadline, checked at cooperative checkpoints, transient failures
retry with jittered backoff, a per-shard circuit breaker
(:class:`~repro.cluster.health.HealthTracker`) quarantines failing
shards, reads degrade or refuse by audit policy, and
``rejoin_shard`` repairs and readmits a shard online.
"""

from repro.cluster.coordinator import ClusterDatabase
from repro.cluster.health import (
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    HealthTracker,
    backoff_delay,
)
from repro.cluster.topology import Topology, shard_of

__all__ = [
    "HEALTHY",
    "QUARANTINED",
    "SUSPECT",
    "ClusterDatabase",
    "HealthTracker",
    "Topology",
    "backoff_delay",
    "shard_of",
]
