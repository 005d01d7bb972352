"""Aggregate kernels: COUNT, COUNT(*), SUM, AVG, MIN, MAX, ``count_merge``
and the DISTINCT forms, each a fold over flat per-group state.

A kernel's state is one list indexed by group number, ``len(initial)``
slots per group (AVG keeps a total and a count side by side); ``fold``
folds ``column[i]`` into group ``groups[i]`` in row order, ``fold_all`` a
whole column into the one group of a global aggregate, and ``final`` is
the result column. The hash aggregate and the offline lineage auditor
both fold through these kernels, so the NULL rule (NULL inputs are
ignored; a group of none is NULL, or 0 for COUNT), the numeric check and
the fold order of each aggregate are defined here once.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

from repro.errors import ExecutionError

_AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate_name(name: str) -> bool:
    return name.lower() in _AGGREGATE_NAMES


def _check_numeric(value: object, aggregate: str) -> None:
    """SUM and AVG take ints and floats; ``bool`` is not a number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExecutionError(f"{aggregate} over non-numeric value {value!r}")


class Kernel:
    """Defaults: a global fold is a grouped fold into group 0, and the
    states are their own results."""

    initial: tuple = (None,)
    #: SUM / AVG: the name their numeric check reports
    numeric: str | None = None

    def fold(self, states: list, groups: Iterable, column: Sequence):
        raise NotImplementedError

    def fold_all(self, states: list, column: Sequence) -> None:
        self.fold(states, repeat(0), column)

    def final(self, states: list) -> list:
        return states


class Count(Kernel):
    """``COUNT(expr)``: counts non-NULL inputs."""

    initial = (0,)

    def fold(self, states, groups, column):
        for group, value in zip(groups, column):
            if value is not None:
                states[group] += 1

    def fold_all(self, states, column):
        states[0] += len(column) - column.count(None)


class CountStar(Count):
    """``COUNT(*)``: counts rows; its column is only measured."""

    def fold(self, states, groups, column):
        for group in groups:
            states[group] += 1

    def fold_all(self, states, column):
        states[0] += len(column)


class CountMerge(Kernel):
    """``count_merge``: the sum of partial ``COUNT`` results, which is 0
    when no partial arrives (a SUM over no rows is NULL; a COUNT never
    is). The cluster coordinator merges per-shard COUNTs with it; SQL
    text cannot name it."""

    initial = (0,)

    def fold(self, states, groups, column):
        for group, value in zip(groups, column):
            if value is not None:
                states[group] += value


class Sum(Kernel):
    numeric = "SUM"

    def fold(self, states, groups, column):
        for group, value in zip(groups, column):
            if value is None:
                continue
            if value.__class__ is not int and value.__class__ is not float:
                _check_numeric(value, "SUM")
            total = states[group]
            states[group] = value if total is None else total + value

    def fold_all(self, states, column):
        total = states[0]
        for value in column:
            if value is None:
                continue
            if value.__class__ is not int and value.__class__ is not float:
                _check_numeric(value, "SUM")
            total = value if total is None else total + value
        states[0] = total


class Avg(Kernel):
    """Group ``g``'s running total is slot ``2g``, its count ``2g + 1``."""

    initial = (0.0, 0)
    numeric = "AVG"

    def fold(self, states, groups, column):
        for group, value in zip(groups, column):
            if value is None:
                continue
            if value.__class__ is not int and value.__class__ is not float:
                _check_numeric(value, "AVG")
            slot = group + group
            states[slot] += value
            states[slot + 1] += 1

    def fold_all(self, states, column):
        total, count = states
        for value in column:
            if value is None:
                continue
            if value.__class__ is not int and value.__class__ is not float:
                _check_numeric(value, "AVG")
            total += value
            count += 1
        states[:] = total, count

    def final(self, states):
        return [
            None if count == 0 else total / count
            for total, count in zip(states[::2], states[1::2])
        ]


class Min(Kernel):
    def fold(self, states, groups, column):
        for group, value in zip(groups, column):
            if value is not None:
                best = states[group]
                if best is None or value < best:
                    states[group] = value


class Max(Kernel):
    def fold(self, states, groups, column):
        for group, value in zip(groups, column):
            if value is not None:
                best = states[group]
                if best is None or value > best:
                    states[group] = value


class Distinct(Kernel):
    """``agg(DISTINCT expr)``: each group keeps an insertion-ordered
    seen-dict, and the inner kernel folds its keys in first-seen order at
    the end. SUM/AVG check a value when it is first seen, so the error
    names the first offending value in input order."""

    def __init__(self, inner: Kernel) -> None:
        self._inner = inner

    def fold(self, states, groups, column):
        numeric = self._inner.numeric
        for group, value in zip(groups, column):
            if value is None:
                continue
            seen = states[group]
            if seen is None:
                seen = states[group] = {}
            elif value in seen:
                continue
            if numeric is not None:
                _check_numeric(value, numeric)
            seen[value] = None

    def final(self, states):
        inner = self._inner
        return [fold_group(inner, list(seen or ())) for seen in states]


_KERNELS = {
    "count": Count(), "count_merge": CountMerge(), "sum": Sum(),
    "avg": Avg(), "min": Min(), "max": Max(),
}
_COUNT_STAR = CountStar()


def aggregate_kernel(
    name: str, distinct: bool = False, star: bool = False
) -> Kernel:
    """The kernel of the named aggregate; ``star`` is ``COUNT(*)``."""
    kernel = _KERNELS.get(name.lower())
    if kernel is None:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if star:
        return _COUNT_STAR
    return Distinct(kernel) if distinct else kernel


def fold_group(kernel: Kernel, values: Sequence) -> object:
    """The kernel's result over one group's ``values``, folded in order."""
    states = list(kernel.initial)
    kernel.fold_all(states, values)
    return kernel.final(states)[0]
