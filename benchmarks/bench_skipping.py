"""Data-skipping benchmark: block-sketch audit skipping on vs off.

Pytest usage (alongside the figure benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_skipping.py -q

Standalone usage (CI smoke runs this)::

    PYTHONPATH=src python benchmarks/bench_skipping.py [--quick]

The full run writes ``benchmarks/results/BENCH_skipping.json`` —
scan-under-audit and end-to-end times plus probe counts at several
sensitive selectivities, with the ``skipping`` knob on vs off. Every
timing is gated on the conservative-skip differential: ACCESSED sets and
offline-audit verdicts must be identical
under both knob settings (``--quick`` runs a smaller scale factor,
checks only the differential, not the speedup floor, and writes nothing).
"""

from __future__ import annotations

import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_FILE = RESULTS_DIR / "BENCH_skipping.json"


def run(scale_factor: float, repeats: int) -> dict:
    from repro.bench.skipping import skipping_benchmark

    return skipping_benchmark(scale_factor=scale_factor, repeats=repeats)


def write(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(results, indent=2, default=str) + "\n")
    print(f"  written to {RESULT_FILE}")


def _summarize(results: dict) -> str:
    lines = [
        f"data-skipping benchmark (SF {results['scale_factor']}, "
        f"{results['customer_rows']} customers in "
        f"{results['block_count']} blocks, best of {results['repeats']})"
    ]
    for fraction, entry in results["selectivities"].items():
        lines.append(
            f"  sel {fraction} ({entry['sensitive_ids']} ids): "
            f"scan-under-audit {entry['scan_under_audit_off_s'] * 1e3:.2f}"
            f" -> {entry['scan_under_audit_on_s'] * 1e3:.2f} ms "
            f"({entry['scan_under_audit_speedup']:.1f}x), "
            f"probes {entry['probes_off']} -> {entry['probes_on']}, "
            f"query {entry['query_speedup']:.2f}x, "
            f"accessed equal: {entry['accessed_equal']}, "
            f"verdicts equal: {entry['offline_verdicts_equal']}"
        )
    return "\n".join(lines)


def _differential_ok(results: dict) -> bool:
    return all(
        entry["accessed_equal"] and entry["offline_verdicts_equal"]
        for entry in results["selectivities"].values()
    )


def test_report_skipping():
    from repro.bench.skipping import DEFAULT_REPEATS, DEFAULT_SCALE_FACTOR

    results = run(DEFAULT_SCALE_FACTOR, DEFAULT_REPEATS)
    print()
    print(_summarize(results))
    write(results)
    assert _differential_ok(results)
    for entry in results["selectivities"].values():
        # skipping never probes more than the full pass
        assert entry["probes_on"] <= entry["probes_off"]
    # ISSUE acceptance: ≥3x scan-under-audit speedup at ≤1% sensitive
    # selectivity (with identical ACCESSED sets and verdicts, above)
    low_selectivity = [
        entry
        for fraction, entry in results["selectivities"].items()
        if float(fraction) <= 0.01
    ]
    assert low_selectivity
    assert max(
        entry["scan_under_audit_speedup"] for entry in low_selectivity
    ) >= 3.0


def main(argv: list[str]) -> int:
    from repro.bench.skipping import (
        DEFAULT_REPEATS,
        DEFAULT_SCALE_FACTOR,
        QUICK_REPEATS,
        QUICK_SCALE_FACTOR,
    )

    quick = "--quick" in argv
    results = run(
        QUICK_SCALE_FACTOR if quick else DEFAULT_SCALE_FACTOR,
        QUICK_REPEATS if quick else DEFAULT_REPEATS,
    )
    print(_summarize(results))
    if not quick:
        write(results)
    if not _differential_ok(results):
        print("FAIL: skipping on/off diverged (ACCESSED or verdicts)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
