"""Seeded request streams and the fixed data they run against.

The data (``DATA_SEED``) never changes with ``--seed``; the request
stream does. Every block is drawn from its own generator seeded with
(seed, workload, client, block index), so block *n* is the same however
many blocks a window had time for. Each block holds exactly the same
number of operations of each kind for every seed: seeds change keys and
order, never the amount of work.

An op is ``(kind, sql, parameters, expectation)``.
"""

from __future__ import annotations

import hashlib
import random

import constants as C

TPCH_NAMES = (
    "micro01", "micro50", "q3", "q5", "q7", "q8", "q10", "q18", "q22",
)

PK_LOOKUP = "SELECT name, age FROM patients WHERE pid = {pid}"
#: visits first, so the seek on ``vid`` drives an index nested-loop join
#: into patients and hcn has a join to pull the audit operator through
JOIN_LOOKUP = (
    "SELECT p.name, v.day, v.cost FROM visits v, patients p "
    "WHERE v.pid = p.pid AND v.vid = {vid}"
)

WIRE_SELECT = "SELECT name, age FROM patients WHERE pid = :pid"
WIRE_UPDATE = "UPDATE patients SET age = :age WHERE pid = :pid"
WIRE_INSERT = "INSERT INTO patients VALUES (:pid, :name, :ward, :age, :zip)"
WIRE_DELETE = "DELETE FROM patients WHERE pid = :pid"


def block_rng(seed: int, workload: str, index: int, client: int = 0
              ) -> random.Random:
    return random.Random(f"{seed}/{workload}/{client}/{index}")


# ----------------------------------------------------------------------
# data

def patient_rows(count: int) -> list[tuple]:
    rng = random.Random(f"{C.DATA_SEED}/patients")
    return [
        (pid, f"P{pid}", pid % C.WARDS, 18 + rng.randrange(70),
         str(98000 + rng.randrange(200)))
        for pid in range(1, count + 1)
    ]


def visit_rows(count: int, patients: int) -> list[tuple]:
    rng = random.Random(f"{C.DATA_SEED}/visits")
    return [
        (vid, rng.randrange(1, patients + 1), rng.randrange(365),
         round(rng.uniform(10.0, 900.0), 2))
        for vid in range(1, count + 1)
    ]


def is_sensitive(ward: int) -> bool:
    return ward < C.SENSITIVE_WARDS


# ----------------------------------------------------------------------
# tpch_armed / cluster_scan: the seed orders a fixed statement set

def tpch_round(seed: int, index: int) -> list[str]:
    names = list(TPCH_NAMES)
    block_rng(seed, "tpch_armed", index).shuffle(names)
    return names


def cluster_block(seed: int, index: int, names: tuple[str, ...]) -> list[str]:
    rng = block_rng(seed, "cluster_scan", index)
    order: list[str] = []
    for _ in range(C.CLUSTER_BLOCK_ROUNDS):
        one_round = list(names)
        rng.shuffle(one_round)
        order.extend(one_round)
    return order


# ----------------------------------------------------------------------
# point_cold: inlined literals from a key space far above the plan cache

def point_block(seed: int, index: int, ops: int = C.POINT_BLOCK_OPS
                ) -> list[tuple]:
    rng = block_rng(seed, "point_cold", index)
    joins = round(ops * C.POINT_JOIN_SHARE)
    kinds = ["join"] * joins + ["pk"] * (ops - joins)
    rng.shuffle(kinds)
    block = []
    for kind in kinds:
        if kind == "pk":
            key = rng.randrange(1, C.POINT_PATIENTS + 1)
            block.append((kind, PK_LOOKUP.format(pid=key), None, key))
        else:
            key = rng.randrange(1, C.POINT_VISITS + 1)
            block.append((kind, JOIN_LOOKUP.format(vid=key), None, key))
    return block


# ----------------------------------------------------------------------
# wire_mixed: one stateful stream per client

def _mix_counts(ops: int) -> dict[str, int]:
    counts = {kind: round(ops * share) for kind, share in C.WIRE_MIX}
    counts["select"] += ops - sum(counts.values())
    return counts


class WireClientStream:
    """The statements of one wire client, and its model of their effect.

    A client only ever writes rows it owns — base rows with
    ``pid % clients == client`` and the rows it inserted itself — so the
    final table is the same whatever the interleaving with other clients,
    and the client knows the exact current value of every row it owns.
    Blocks must be drawn in order: a DELETE removes an earlier INSERT.
    """

    def __init__(self, seed: int, client: int,
                 patients: int = C.WIRE_PATIENTS,
                 clients: int = C.WIRE_CLIENTS) -> None:
        self.seed = seed
        self.client = client
        self.patients = patients
        self.clients = clients
        #: current age of every base row this client has updated
        self.ages: dict[int, int] = {}
        #: rows this client inserted and has not deleted: pid -> row
        self.live: dict[int, tuple] = {}
        self._next_pid = 1_000_000 * (client + 1)
        #: ACCESSED IDs the SELECTs drawn so far must disclose in total
        self.expected_disclosures = 0

    def _owns(self, pid: int) -> bool:
        return pid % self.clients == self.client

    def _own_base_pid(self, rng: random.Random) -> int:
        pid = rng.randrange(1, self.patients + 1)
        pid -= (pid - self.client) % self.clients
        return pid if pid >= 1 else pid + self.clients

    def block(self, index: int, ops: int = C.WIRE_BLOCK_OPS) -> list[tuple]:
        rng = block_rng(self.seed, "wire_mixed", index, self.client)
        kinds = [
            kind for kind, count in _mix_counts(ops).items()
            for _ in range(count)
        ]
        rng.shuffle(kinds)
        live = len(self.live)
        for position, kind in enumerate(kinds):
            if kind == "delete" and live == 0:
                # nothing of ours to delete yet: pull the next INSERT
                # forward (one always follows, the counts are equal)
                swap = kinds.index("insert", position)
                kinds[position], kinds[swap] = "insert", "delete"
                kind = "insert"
            live += {"insert": 1, "delete": -1}.get(kind, 0)
        return [self._draw(kind, rng) for kind in kinds]

    def _draw(self, kind: str, rng: random.Random) -> tuple:
        if kind == "select":
            if self.live and rng.random() < C.WIRE_OWN_ROW_SHARE:
                pid = rng.choice(list(self.live))
                _, name, ward, age, _ = self.live[pid]
            else:
                pid = rng.randrange(1, self.patients + 1)
                name, ward = f"P{pid}", pid % C.WARDS
                # None: another client may be updating this row's age
                age = self.ages.get(pid) if self._owns(pid) else None
            sensitive = is_sensitive(ward)
            self.expected_disclosures += sensitive
            return (kind, WIRE_SELECT, {"pid": pid},
                    (pid, name, age, sensitive))
        if kind == "update":
            pid = self._own_base_pid(rng)
            age = 18 + rng.randrange(70)
            self.ages[pid] = age
            return (kind, WIRE_UPDATE, {"age": age, "pid": pid}, 1)
        if kind == "insert":
            self._next_pid += 1
            pid = self._next_pid
            row = (pid, f"N{pid}", rng.randrange(C.WARDS),
                   18 + rng.randrange(70), "98001")
            self.live[pid] = row
            return (kind, WIRE_INSERT,
                    dict(zip(("pid", "name", "ward", "age", "zip"), row)), 1)
        pid = next(iter(self.live))  # oldest insert first
        del self.live[pid]
        return (kind, WIRE_DELETE, {"pid": pid}, 1)


def wire_final_table(streams: list[WireClientStream], base: list[tuple]
                     ) -> set[tuple]:
    """The ``patients`` table after every client's stream has run."""
    ages: dict[int, int] = {}
    for stream in streams:
        ages.update(stream.ages)
    rows = {
        (pid, name, ward, ages.get(pid, age), zip_code)
        for pid, name, ward, age, zip_code in base
    }
    for stream in streams:
        rows.update(stream.live.values())
    return rows


# ----------------------------------------------------------------------

def stream_hash(ops) -> str:
    """Digest of a statement stream (kind, SQL text and parameters)."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(repr(tuple(op[:3])).encode("utf-8"))
    return digest.hexdigest()
