#!/usr/bin/env bash
# CI smoke: tier-1 test suite plus quick end-to-end differentials.
#
# Usage: scripts/ci_smoke.sh
# Runs from any working directory; exits non-zero on the first failure.

set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
# the serving-layer gates are tier-1 tests, each in its subsystem's module:
#   tests/test_cluster.py         lost firings at every shard count
#   tests/test_cluster_faults.py  hung-shard latency bound; flaky -> slow
#                                 -> dead -> rejoin chaos differential
#   tests/test_concurrency.py     thread scaling, lost firings, stress parity
#   tests/test_durability.py      batch-fsync price, appends per query,
#                                 crash -> recover
#   tests/test_server.py          no dropped request, 64 open connections
#   tests/test_pipelining.py      execute_many speedup
#   tests/test_replication.py     stalled readers, starved primary, lag
#                                 catch-up, two-replica audit log
PYTHONPATH=src python -m pytest -x -q

echo
echo "== statement-template differential (hypothesis 'ci' profile) =="
# the shape memo lets a plan-cache hit skip the lexer; that is sound only
# while a memoized skeleton means the same lift decision the tokens would
# give, which this differential checks on generated adversarial texts
PYTHONPATH=src python -m pytest -q tests/test_statement_template.py \
    --hypothesis-profile=ci

echo
echo "== insert_many differential (hypothesis 'ci' profile) =="
# Table.insert_many batches validation, locking and converter lookup for
# bulk_load, INSERT ... SELECT, multi-row VALUES and trigger log appends;
# it must raise the per-row error at the first bad row, leave the same
# table after undo and show row triggers the same RowChange sequence as a
# loop of Table.insert, which this differential checks on generated
# batches
PYTHONPATH=src python -m pytest -q tests/test_insert_many.py \
    --hypothesis-profile=ci

echo
echo "== batch-kernel-vs-evaluator differential (hypothesis 'ci' profile) =="
# every operator's scalar work runs as a batch kernel that folds
# row-independent subtrees once per execution and narrows the selection
# under AND, OR and CASE; per batch (sizes 1, 3, 1024) it must give what
# the tree-walking evaluator gives row by row, or the same error class and
# message, which this differential checks on generated expressions with
# NULLs, parameters, IN lists, guarded divisions and subqueries
PYTHONPATH=src python -m pytest -q tests/test_expr_compiler.py \
    -k test_kernel_matches_evaluator --hypothesis-profile=ci

echo
echo "== executor-vs-reference differential (hypothesis 'ci' profile) =="
# the executor against a naive interpreter that shares no operator code;
# the profile raises the aggregate property's budget, which checks rows,
# group order and float bits of grouped, global, DISTINCT, HAVING and
# empty aggregates at batch sizes 1, 3 and 1024 (about 80 s on 2 CPUs)
PYTHONPATH=src python -m pytest -q tests/test_executor_reference.py \
    --hypothesis-profile=ci

echo
echo "== offline lineage differential (hypothesis 'ci' profile) =="
# the lineage auditor runs a rewritten plan whose rows carry their
# sensitive primary keys as extra columns; it must name exactly the IDs
# the per-tuple deletion test names, which this differential checks on
# generated tables over joins, DISTINCT, aggregates and top-k, also with
# index nested-loop joins forced
PYTHONPATH=src python -m pytest -q tests/test_offline_lineage.py \
    --hypothesis-profile=ci

echo
echo "== sharded-vs-single-node differential (hypothesis 'ci' profile) =="
# the coordinator re-sorts the concatenated fragment outputs of an ORDER
# BY; results, ACCESSED sets, the audit log and final tables must match
# one node's on generated statement mixes
PYTHONPATH=src python -m pytest -q tests/test_cluster_properties.py \
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
# the one run of the cluster scatter path (split, per-shard fragments on
# the caller's thread, gather, merge, coordinator-level firing): its gate
# checks cluster rows and ACCESSED sets against a single-node twin
python3 benchmarks/e2e/run.py --workload cluster_scan --seed 1 --seconds 5 --trace 0

echo
echo "== offline lineage-vs-deletion differential (--quick) =="
# times the auditor's two strategies, lineage and deletion, on the same
# TPC-H audits; exits non-zero if they disagree on any accessed-ID set
# (exactness regression)
PYTHONPATH=src python benchmarks/bench_offline_lineage.py --quick

echo
echo "== data-skipping on/off differential (--quick) =="
# small TPC-H load audited at several sensitive selectivities with the
# block-skipping knob on vs off; exits non-zero if ACCESSED sets or
# offline-audit verdicts differ (conservative-skip regression)
PYTHONPATH=src python benchmarks/bench_skipping.py --quick

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
echo "== committed benchmark results untouched =="
# --quick runs write nothing; a CI pass must leave the tree as it found it
dirty="$(git status --porcelain -- benchmarks/results)"
if [ -n "$dirty" ]; then
    echo "benchmarks/results modified by this run:"
    echo "$dirty"
    exit 1
fi
