"""Aggregate accumulators: COUNT / COUNT DISTINCT / SUM / AVG / MIN / MAX.

The hash-aggregate operator keeps one accumulator per (group, aggregate)
pair; accumulators follow SQL NULL rules (NULL inputs are ignored; an empty
group yields NULL for everything except COUNT, which yields 0).
"""

from __future__ import annotations

from repro.errors import ExecutionError

_AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate_name(name: str) -> bool:
    return name.lower() in _AGGREGATE_NAMES


class Accumulator:
    """Base accumulator interface."""

    def add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class CountAccumulator(Accumulator):
    """``COUNT(expr)``: counts non-NULL inputs (``COUNT(*)`` feeds 1s)."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: object) -> None:
        if value is not None:
            self._count += 1

    def result(self) -> int:
        return self._count


class CountDistinctAccumulator(Accumulator):
    """``COUNT(DISTINCT expr)``."""

    def __init__(self) -> None:
        self._seen: set = set()

    def add(self, value: object) -> None:
        if value is not None:
            self._seen.add(value)

    def result(self) -> int:
        return len(self._seen)


class SumAccumulator(Accumulator):
    def __init__(self) -> None:
        self._total: float | int | None = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"SUM over non-numeric value {value!r}")
        self._total = value if self._total is None else self._total + value

    def result(self) -> object:
        return self._total


class AvgAccumulator(Accumulator):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: object) -> None:
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"AVG over non-numeric value {value!r}")
        self._total += value
        self._count += 1

    def result(self) -> object:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAccumulator(Accumulator):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._best is None or value < self._best:
            self._best = value

    def result(self) -> object:
        return self._best


class MaxAccumulator(Accumulator):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._best is None or value > self._best:
            self._best = value

    def result(self) -> object:
        return self._best


_FACTORIES = {
    ("count", False): CountAccumulator,
    ("count", True): CountDistinctAccumulator,
    ("sum", False): SumAccumulator,
    ("avg", False): AvgAccumulator,
    ("min", False): MinAccumulator,
    ("max", False): MaxAccumulator,
}


def accumulator_factory(name: str, distinct: bool = False):
    """Resolve the named aggregate to a zero-argument constructor of
    fresh accumulators (a grouped fold calls it once per group)."""
    factory = _FACTORIES.get((name.lower(), distinct))
    if factory is not None:
        return factory
    if distinct:
        # SUM/AVG/MIN/MAX DISTINCT: deduplicate then delegate
        inner = accumulator_factory(name, False)
        return lambda: _DistinctWrapper(inner())
    raise ExecutionError(f"unknown aggregate {name!r}")


def make_accumulator(name: str, distinct: bool = False) -> Accumulator:
    """Create a fresh accumulator for the named aggregate."""
    return accumulator_factory(name, distinct)()


class _DistinctWrapper(Accumulator):
    """DISTINCT variant for any aggregate: buffer distinct values."""

    def __init__(self, inner: Accumulator) -> None:
        self._inner = inner
        self._seen: set = set()

    def add(self, value: object) -> None:
        if value is None or value in self._seen:
            return
        self._seen.add(value)
        self._inner.add(value)

    def result(self) -> object:
        return self._inner.result()
