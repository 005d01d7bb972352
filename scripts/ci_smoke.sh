#!/usr/bin/env bash
# CI smoke: tier-1 test suite plus quick end-to-end differentials.
#
# Usage: scripts/ci_smoke.sh
# Runs from any working directory; exits non-zero on the first failure.

set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo
echo "== statement-template differential (hypothesis 'ci' profile) =="
# the shape memo lets a plan-cache hit skip the lexer; that is sound only
# while a memoized skeleton means the same lift decision the tokens would
# give, which this differential checks on generated adversarial texts
PYTHONPATH=src python -m pytest -q tests/test_statement_template.py \
    --hypothesis-profile=ci

echo
echo "== e2e benchmark: its own tests, then one traced workload =="
# the run's gate checks armed == unarmed rows and micro-join ACCESSED ==
# offline_audit; the traced pass goes through the staged driver, the one
# caller of Database.exec_mode / collect_rows(mode=)
PYTHONPATH=src python -m pytest -q benchmarks/e2e/tests
python3 benchmarks/e2e/run.py --workload tpch_armed --seed 1 --seconds 5 --trace 1
# the high-volume run of synchronous SELECT-trigger firing (cached trigger
# bodies): its gate checks the exact ACCESSED set of every lookup and
# that the audit log gained one row per disclosure
python3 benchmarks/e2e/run.py --workload point_cold --seed 1 --seconds 5 --trace 0
# the one end-to-end run of UPDATE/DELETE through server, journal and
# recover(apply_statements=True): its gate checks the recovered patients
# table against the model and the audit-log row count against prediction
python3 benchmarks/e2e/run.py --workload wire_mixed --seed 1 --seconds 5 --trace 0

echo
echo "== offline lineage-vs-deletion differential (--quick) =="
# exits non-zero if the one-pass lineage auditor and the deletion-test
# oracle disagree on any accessed-ID set (exactness regression)
PYTHONPATH=src python benchmarks/bench_offline_lineage.py --quick

echo
echo "== data-skipping on/off differential (--quick) =="
# small TPC-H load audited at several sensitive selectivities with the
# block-skipping knob on vs off; exits non-zero if ACCESSED sets or
# offline-audit verdicts differ (conservative-skip regression)
PYTHONPATH=src python benchmarks/bench_skipping.py --quick

echo
echo "== sharded-vs-single-node differential (--quick) =="
# 2-shard scatter-gather cluster vs a single-node run of the same armed
# workload; exits non-zero on any result, ACCESSED, or trigger-firing
# divergence (lost firings) across the shard boundary
PYTHONPATH=src python benchmarks/bench_cluster.py --quick

echo
echo "== cluster chaos differential =="
# flaky -> slow -> dead -> rejoin fault phases on one shard vs a serial
# ground truth; exits non-zero if fail-closed ever returns partial
# results, a degraded read skips a shard without recording an audit
# gap, a quarantined owner accepts DML, or rejoin loses/misattributes
# a trigger firing
PYTHONPATH=src python benchmarks/bench_cluster_chaos.py

echo
echo "== concurrent serving stress (--quick) =="
# 8 threads of mixed audited SELECT / DML traffic with async triggers;
# exits non-zero if the audit-log row count diverges from a serial
# replay (lost or spurious firings) or the thread-scaling floor breaks
PYTHONPATH=src python benchmarks/bench_concurrency.py --quick

echo
echo "== durability / fault-injection smoke (--quick) =="
# audit-journal overhead per fsync policy (batch must stay within 2x of
# the no-journal baseline) plus one injected-crash -> recover -> verify
# cycle; exits non-zero if recovery loses or duplicates audit rows
PYTHONPATH=src python benchmarks/bench_durability.py --quick

echo
echo "== network serving smoke =="
# boots python -m repro.server as a subprocess, runs a scripted
# multi-user client session (auth rejection, attributed point queries,
# one DENY-trigger rejection over the wire), then SIGTERMs it; exits
# non-zero unless shutdown is clean with zero uncommitted journal intents
PYTHONPATH=src python scripts/server_smoke.py

echo
echo "== front end + replica smoke (asyncio, then threaded) =="
# boots python -m repro.server --frontend <each> --replicate as a
# subprocess, pipelines a mixed DML/SELECT batch on one connection,
# attaches a live socket replica (token catch-up, read-your-writes,
# forwarded audit intents), then SIGTERMs the primary; exits non-zero
# unless shutdown is clean with zero uncommitted intents and a fresh
# journal replay reproduces the replica's tables and the exact log
PYTHONPATH=src python scripts/replication_smoke.py --frontend async
PYTHONPATH=src python scripts/replication_smoke.py --frontend threaded

echo
echo "== server benchmark (--quick) =="
# in-process vs over-TCP qps/latency grid with and without an armed
# audit trigger, plus the threaded-vs-asyncio high-concurrency sweep
# and the pipelining speedup bar (async execute_many >= 2x); exits
# non-zero if any armed cell loses firings or any cell drops requests
PYTHONPATH=src python benchmarks/bench_server.py --quick

echo
echo "== replication benchmark (--quick) =="
# replica read scaling under a write stream (paced and saturated), lag
# profile with catch-up, and the audit differential: a workload spread
# over two replicas must leave the primary's log identical to a serial
# single-node run; exits non-zero on any divergence or stalled replica
PYTHONPATH=src python benchmarks/bench_replication.py --quick
