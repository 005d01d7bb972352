"""Aggregate accumulators: COUNT / COUNT DISTINCT / SUM / AVG / MIN / MAX.

The hash-aggregate operator keeps one accumulator per (group, aggregate)
pair; accumulators follow SQL NULL rules (NULL inputs are ignored; an empty
group yields NULL for everything except COUNT, which yields 0).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ExecutionError

_AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate_name(name: str) -> bool:
    return name.lower() in _AGGREGATE_NAMES


def _check_numeric(value: object, aggregate: str) -> None:
    """SUM and AVG take ints and floats; ``bool`` is not a number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExecutionError(f"{aggregate} over non-numeric value {value!r}")


class Accumulator:
    """Base accumulator interface."""

    def add(self, value: object) -> None:
        raise NotImplementedError

    def add_many(self, values: Sequence) -> None:
        """Fold ``values`` in order; same result as ``add`` on each."""
        add = self.add
        for value in values:
            add(value)

    def result(self) -> object:
        raise NotImplementedError


class CountAccumulator(Accumulator):
    """``COUNT(expr)``: counts non-NULL inputs (``COUNT(*)`` is fed row
    positions, never NULL)."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: object) -> None:
        if value is not None:
            self._count += 1

    def add_many(self, values: Sequence) -> None:
        self._count += len(values) - values.count(None)

    def result(self) -> int:
        return self._count


class CountMergeAccumulator(Accumulator):
    """``count_merge``: the sum of partial ``COUNT`` results, which is 0
    when no partial arrives (a SUM over no rows is NULL; a COUNT never
    is). The cluster coordinator merges per-shard COUNTs with it; SQL
    text cannot name it."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: object) -> None:
        if value is not None:
            self._count += value

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
        _check_numeric(value, "SUM")
        self._total = value if self._total is None else self._total + value

    def add_many(self, values: Sequence) -> None:
        total = self._total
        for value in values:
            if value is None:
                continue
            if value.__class__ is not int and value.__class__ is not float:
                _check_numeric(value, "SUM")
            total = value if total is None else total + value
        self._total = total

    def result(self) -> object:
        return self._total


class AvgAccumulator(Accumulator):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: object) -> None:
        if value is None:
            return
        _check_numeric(value, "AVG")
        self._total += value
        self._count += 1

    def add_many(self, values: Sequence) -> None:
        total = self._total
        count = self._count
        for value in values:
            if value is None:
                continue
            if value.__class__ is not int and value.__class__ is not float:
                _check_numeric(value, "AVG")
            total += value
            count += 1
        self._total = total
        self._count = count

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
    ("count_merge", False): CountMergeAccumulator,
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
