"""The e2e benchmark: four workloads, one protocol, one command.

    python3 benchmarks/e2e/run.py                 every workload, untraced
                                                  then traced, full report
    python3 benchmarks/e2e/run.py --aa            the whole set twice; fails
                                                  if a gated metric disagrees
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T
                                                  one workload in this
                                                  process (the driver's form)

Each workload runs in a fresh process. The last line of a one-workload
run is the JSON object the driver reads; the full result document, with
its stamp, goes to ``benchmarks/e2e/out/``. Exit status is non-zero when
a correctness check fails. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time

import constants as C

if not (C.SRC_DIR / "repro").is_dir():
    sys.exit(f"run.py: the engine is not at {C.SRC_DIR / 'repro'}")
sys.path.insert(0, str(C.SRC_DIR))

import measure  # noqa: E402
import spans  # noqa: E402
from wl_cluster_scan import ClusterScan  # noqa: E402
from wl_point_cold import PointCold  # noqa: E402
from wl_tpch_armed import TpchArmed  # noqa: E402
from wl_wire_mixed import WireMixed  # noqa: E402

CHILD_TIMEOUT_S = 600
OUT_DIR = C.OUT_DIR
WORKLOADS = {
    cls.name: cls for cls in (TpchArmed, PointCold, WireMixed, ClusterScan)
}
METRICS = json.loads((C.HERE / "metrics.json").read_text(encoding="utf-8"))
END_TO_END = {entry["name"]: entry for entry in METRICS["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in METRICS["per_layer"]}


# ----------------------------------------------------------------------
# one workload, in this process

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure, check and tear down one workload.

    A traced run spends ``TRACED_WINDOW_SHARE`` of ``seconds`` on an
    untraced window (its end-to-end numbers are noisier for it) and then
    replays a fixed prefix of the stream through the staged driver.
    """
    began = time.perf_counter()
    workload = WORKLOADS[name]()
    tracer = spans.Tracer()
    setups: list[float] = []
    try:
        for repeat in range(1 if trace else C.SETUP_REPS):
            if repeat:
                workload.teardown()
            gc.collect()
            begin = time.perf_counter()
            workload.setup(seed)
            setups.append(time.perf_counter() - begin)
        gc.collect()  # GC stays enabled inside the window
        share = C.TRACED_WINDOW_SHARE if trace else 1.0
        metrics = workload.window(seed, seconds * share)
        if trace:
            metrics.update(workload.traced(seed, tracer))
        metrics.update(workload.finish(trace))
        metrics.setdefault("peak_rss_mb", measure.peak_rss_mb())
    finally:
        workload.teardown()

    window = metrics.pop("window")
    problems = window.mismatches + metrics.pop("problems", [])
    if metrics["triggers.lost_firings"]:
        problems.append(f"{metrics['triggers.lost_firings']} lost firings")
    # a failed check is a failed operation: failed_share is never
    # reported as 0 beside a mismatch
    failed = window.failed or len(problems)
    metrics.update({
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "failed_share": failed / window.attempted,
        "storage.load_rows_per_s": workload.load_rows / workload.load_s,
    })
    if trace:
        metrics["trace.overhead_ratio"] = (
            metrics["stmt_per_s"] / metrics.pop("trace.stmt_per_s")
        )
        spans.write_jsonl(
            OUT_DIR / f"trace-{name}.jsonl", tracer.spans, tracer.counters
        )
    document = {
        "workload": name,
        "trace": int(trace),
        "correct": not problems,
        "attempted": window.attempted,
        "failed": failed,
        "problems": problems,
        "blocks": len(window.blocks),
        "block_detail": window.detail(),
        "window_s": window.wall_s,
        "wall_s": time.perf_counter() - began,
        "metrics": metrics,
        "stamp": measure.stamp(C.ROOT, seed, seconds),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{name}-t{int(trace)}.json").write_text(
        json.dumps(document, indent=1, default=str), encoding="utf-8"
    )
    return document


def driver_line(document: dict) -> str:
    """The one JSON object the driver reads: every gated end-to-end
    metric of an untraced run, every per-layer metric of a traced one.
    A layer the workload does not exercise reads 0."""
    if document["trace"]:
        names = [
            *(n for n, e in END_TO_END.items() if e["gate"] != "driver"),
            *PER_LAYER,
        ]
    else:
        names = [n for n, e in END_TO_END.items() if e["gate"] == "driver"]
    units = {**END_TO_END, **PER_LAYER}
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {
                "value": float(document["metrics"].get(name, 0.0)),
                "unit": units[name]["unit"],
            }
            for name in names
        },
    })


# ----------------------------------------------------------------------
# reports

def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def print_report(document: dict) -> None:
    metrics = document["metrics"]
    stamp = document["stamp"]
    print(
        f"== {document['workload']} "
        f"({'traced' if document['trace'] else 'untraced'}, "
        f"seed {stamp['seed']}, {document['blocks']} blocks in "
        f"{document['window_s']:.1f} s, {document['attempted']} attempted, "
        f"{document['failed']} failed, run took {document['wall_s']:.1f} s) =="
    )
    print(
        f"   commit {stamp['commit'][:12]} dirty={stamp['dirty']} "
        f"python {stamp['python']} nproc={stamp['nproc']} {stamp['cpu']}"
    )
    samples = {
        "setup_s": "setup_samples", "select_p50_ms": "select_samples",
        "select_p99_ms": "select_samples", "write_p50_ms": "write_samples",
        "write_p99_ms": "write_samples",
    }
    def line(name: str, unit: str) -> None:
        note = ""
        count = metrics.get(samples.get(name, f"{name}#n"))
        if count is not None:
            note = f"  n={count}"
        if name.endswith("_p99_ms") and not metrics.get(name):
            stem = name.removesuffix("_p99_ms")
            note += (
                "  (fewer than 10 samples beyond p99; "
                f"p{metrics.get(f'{stem}_tail_pct')} = "
                f"{_format(metrics.get(f'{stem}_tail_ms', 0.0))} ms)"
            )
        stem = name.removesuffix("_ratio")
        for base in (f"{stem}_base_s", f"{stem}_base_ms"):
            if base in metrics:
                note += f"  base={_format(metrics[base])} {base[-2:].strip('_')}"
        print(f"  {name:<34}{_format(metrics.get(name, 0.0)):>12} "
              f"{unit:<6}{note}")

    print(" end-to-end")
    for name, entry in END_TO_END.items():
        if document["workload"] in entry["workloads"]:
            line(name, entry["unit"])
    if document["trace"]:
        print(" per-layer (staged, traced replay; counts are its totals)")
        for name, entry in PER_LAYER.items():
            if name in metrics:  # else: a layer this workload bypasses
                line(name, entry["unit"])
    for problem in document["problems"]:
        print(f"  CHECK FAILED: {problem}")


# ----------------------------------------------------------------------
# every workload, each in a fresh child process

def run_all(seed: int, seconds: float, traces: tuple[int, ...]) -> dict | None:
    """Returns {(workload, trace): document}, or None if a child failed."""
    documents = {}
    ok = True
    for name in C.WORKLOADS:
        for trace in traces:
            command = [
                sys.executable, str(C.HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--quiet",
            ]
            try:
                done = subprocess.run(command, timeout=CHILD_TIMEOUT_S)
                code = done.returncode
            except subprocess.TimeoutExpired:
                code = -1  # subprocess.run has killed and reaped it
            path = OUT_DIR / f"result-{name}-t{trace}.json"
            if code != 0 or not path.exists():
                print(f"{name} (trace {trace}) failed with status {code}")
                ok = False
                continue
            document = json.loads(path.read_text(encoding="utf-8"))
            print_report(document)
            documents[(name, trace)] = document
    return documents if ok else None


def compare(first: dict, second: dict) -> bool:
    """A/A: print both values of every end-to-end metric and fail on a
    gap beyond its bound."""
    agree = True
    print(f"{'metric':<22}{'workload':<14}{'first':>12}{'second':>12}"
          f"{'gap':>9}{'bound':>8}")
    for name, entry in END_TO_END.items():
        for workload in entry["workloads"]:
            a = first[(workload, 0)]["metrics"].get(name, 0.0)
            b = second[(workload, 0)]["metrics"].get(name, 0.0)
            gap = abs(b - a)
            if not entry.get("absolute") and a:
                gap /= a
            verdict = "" if gap <= entry["bound"] else "  DISAGREE"
            agree &= not verdict
            print(f"{name:<22}{workload:<14}{_format(a):>12}{_format(b):>12}"
                  f"{gap:>9.4f}{entry['bound']:>8}{verdict}")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=C.WORKLOADS)
    parser.add_argument("--seed", type=int, default=C.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=C.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced run")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads, traced pass only")
    parser.add_argument("--aa", action="store_true",
                        help="run the whole set twice and compare")
    parser.add_argument("--quiet", action="store_true",
                        help="one workload: print only the driver's line")
    arguments = parser.parse_args()
    if measure.cpu_count() < 2:
        print("run.py: needs at least 2 CPUs (the wire workload runs a "
              "server beside its clients); refusing to measure on "
              f"{measure.cpu_count()}", file=sys.stderr)
        return 2
    if arguments.workload:
        document = run_one(arguments.workload, arguments.seed,
                           arguments.seconds, bool(arguments.trace))
        if not arguments.quiet:
            print_report(document)
        print(driver_line(document), flush=True)
        return 0 if document["correct"] else 1
    if arguments.aa:
        first = run_all(arguments.seed, arguments.seconds, (0,))
        second = run_all(arguments.seed, arguments.seconds, (0,))
        if first is None or second is None:
            return 1
        return 0 if compare(first, second) else 1
    documents = run_all(arguments.seed, arguments.seconds,
                        (1,) if arguments.traced else (0, 1))
    if documents is None:
        return 1
    return 0 if all(d["correct"] for d in documents.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
