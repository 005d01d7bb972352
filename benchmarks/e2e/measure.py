"""Statistics, the closed-loop block runner, and the result stamp."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import constants

#: percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: a percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """Nearest rank of the ``pct`` percentile among ``count`` samples
    (rounded first: 99.9 % of 10 000 is 9990, not 9990.000000000002)."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the ``pct`` percentile."""
    return count - _rank(count, pct)


def supported_tail(count: int) -> float | None:
    """Highest percentile of the ladder with enough samples beyond it."""
    for pct in TAIL_LADDER:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def p50_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def lower_quartile(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4)[0]


def p99_ms(samples: list[float]) -> float:
    """p99 in ms, or 0.0 when fewer than ten samples lie beyond it."""
    if samples_beyond(len(samples), 99.0) < MIN_SAMPLES_BEYOND:
        return 0.0
    return percentile(samples, 99.0) * 1e3


def tail_ms(samples: list[float]) -> tuple[float | None, float]:
    """(percentile, value in ms) at the highest supported percentile."""
    pct = supported_tail(len(samples))
    if pct is None:
        return None, 0.0
    return pct, percentile(samples, pct) * 1e3


def latency_metrics(prefix: str, samples: list[float]) -> dict:
    """``<prefix>_p50_ms``, ``_p99_ms`` (0 when unsupported), the sample
    count, and the highest supported tail for the report."""
    pct, value = tail_ms(samples)
    return {
        f"{prefix}_p50_ms": p50_ms(samples),
        f"{prefix}_p99_ms": p99_ms(samples),
        f"{prefix}_samples": len(samples),
        f"{prefix}_tail_pct": pct,
        f"{prefix}_tail_ms": value,
    }


# ----------------------------------------------------------------------
# closed-loop block runner

@dataclass
class Window:
    """Latencies of one closed-loop window, grouped by block."""

    #: one list per block of (kind, latency in seconds)
    blocks: list[list[tuple[str, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: correctness-check mismatches (first few, as text)
    mismatches: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    def mismatch(self, text: str) -> None:
        if len(self.mismatches) < 5:
            self.mismatches.append(text)
        else:
            self.mismatches[-1] = "... more mismatches"

    def latencies(self, *kinds: str) -> list[float]:
        return [
            latency
            for block in self.blocks
            for kind, latency in block
            if kind in kinds
        ]

    def block_seconds(self, *kinds: str) -> list[float]:
        """Per block, the summed latency of the ops of ``kinds`` (all
        ops when none is named). Closed loop, one client: the sum is the
        block's wall time minus the harness's own checking."""
        return [
            sum(lat for kind, lat in block if not kinds or kind in kinds)
            for block in self.blocks
        ]

    def rate(self, *kinds: str) -> float:
        """Median over blocks of operations per second."""
        rates = []
        for block in self.blocks:
            picked = [lat for kind, lat in block if not kinds or kind in kinds]
            if picked:
                rates.append(len(picked) / sum(picked))
        return statistics.median(rates) if rates else 0.0

    def detail(self) -> list[dict]:
        """Per block and kind: [ops, summed seconds, median seconds] —
        what tells drift inside a run from drift between runs."""
        detail = []
        for block in self.blocks:
            by_kind: dict[str, list[float]] = {}
            for kind, latency in block:
                by_kind.setdefault(kind, []).append(latency)
            detail.append({
                kind: [len(lat), sum(lat), statistics.median(lat)]
                for kind, lat in by_kind.items()
            })
        return detail

    def merge(self, other: "Window", blocks: bool = True) -> None:
        """Fold ``other`` in; ``blocks=False`` takes only its counts and
        mismatches (a warm-up's latencies are not measurements)."""
        if blocks:
            self.blocks.extend(other.blocks)
        self.attempted += other.attempted
        self.failed += other.failed
        for text in other.mismatches:
            self.mismatch(text)
        self.wall_s = max(self.wall_s, other.wall_s)


def run_blocks(make_block, call, verify, seconds: float,
               max_blocks: int | None = None) -> Window:
    """Run whole blocks until ``seconds`` have elapsed.

    ``make_block(index)`` returns the block's ops (built outside the
    timed region), ``call(op)`` runs one and returns its result, and
    ``verify(op, result)`` returns None or a mismatch description; an
    op's latency covers ``call`` alone. A raised exception counts the
    op as failed and the loop goes on. At least ``MIN_BLOCKS`` blocks
    run, and never more than ``max_blocks``.
    """
    window = Window()
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    while index < constants.MIN_BLOCKS or time.perf_counter() < deadline:
        if max_blocks is not None and index >= max_blocks:
            break
        block: list[tuple[str, float]] = []
        for op in make_block(index):
            window.attempted += 1
            begin = time.perf_counter()
            try:
                result = call(op)
            except Exception as error:  # noqa: BLE001 — counted and reported
                window.failed += 1
                window.mismatch(f"{op[0]}: {type(error).__name__}: {error}")
                continue
            block.append((op[0], time.perf_counter() - begin))
            problem = verify(op, result)
            if problem is not None:
                window.mismatch(problem)
        window.blocks.append(block)
        index += 1
    window.wall_s = time.perf_counter() - started
    return window


class Workload:
    """What ``run.py`` asks of a workload, in call order."""

    name = ""
    #: rows bulk-loaded by the last set-up and the seconds that took
    load_rows = 0
    load_s = 0.0

    def setup(self, seed: int) -> None:
        """Load, arm and warm up (all of it is ``setup_s``)."""
        raise NotImplementedError

    def window(self, seed: int, seconds: float) -> dict:
        """The untraced closed loop; metrics plus its ``window``."""
        raise NotImplementedError

    def traced(self, seed: int, tracer) -> dict:
        """Replay a fixed prefix of the stream with spans; per-layer
        metrics plus ``trace.stmt_per_s``."""
        raise NotImplementedError

    def finish(self, traced: bool) -> dict:
        """Checks and metrics that need the window to be over."""
        return {}

    def teardown(self) -> None:
        """Release everything; safe after a failed set-up."""


def plancache_metrics(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio and invalidations between two ``PlanCache.stats()``."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return {
        "plancache.hit_ratio": hits / lookups if lookups else 0.0,
        "plancache.invalidations": (
            after["invalidations"] - before["invalidations"]
        ),
    }


# ----------------------------------------------------------------------
# process and machine facts

def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *arguments: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *arguments], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(root: Path, seed: int, seconds: float) -> dict:
    """What a reader needs to know to compare two result documents."""
    status = _git(root, "status", "--porcelain")
    return {
        "commit": _git(root, "rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "constants": constants.as_dict(),
    }
