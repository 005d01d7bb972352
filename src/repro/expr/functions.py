"""Scalar function registry.

Functions are looked up by lower-case name. Session functions — ``now()``,
``user_id()``, ``sql_text()`` — read the execution context; the paper's
trigger actions use them to stamp audit-log entries (§II-C). All functions
propagate NULL inputs to a NULL result unless noted.
"""

from __future__ import annotations

import datetime
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext

ScalarFunction = Callable[["ExecutionContext", tuple], object]


def _nulls_propagate(function: Callable[..., object]) -> ScalarFunction:
    def wrapper(context: "ExecutionContext", args: tuple) -> object:
        if None in args:
            return None
        return function(*args)

    return wrapper


def _substring(value: str, start: int, length: int | None = None) -> str:
    if not isinstance(value, str):
        raise ExecutionError("substring() requires a string")
    begin = max(int(start) - 1, 0)  # SQL substring is 1-based
    if length is None:
        return value[begin:]
    if length < 0:
        raise ExecutionError("substring() length must be non-negative")
    return value[begin:begin + int(length)]


def _extract_part(part: str) -> Callable[..., int]:
    def extract(value: object) -> int:
        if not isinstance(value, datetime.date):
            raise ExecutionError(f"extract_{part}() requires a date")
        return getattr(value, part)

    return extract


def _cast_int(value: object) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"cannot cast {value!r} to INTEGER") from exc


def _cast_float(value: object) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"cannot cast {value!r} to FLOAT") from exc


def _cast_varchar(value: object) -> str:
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def _cast_date(value: object) -> datetime.date:
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        try:
            return datetime.date.fromisoformat(value)
        except ValueError as exc:
            raise ExecutionError(f"cannot cast {value!r} to DATE") from exc
    raise ExecutionError(f"cannot cast {value!r} to DATE")


def _now(context: "ExecutionContext", args: tuple) -> object:
    return context.session.now()


def _user_id(context: "ExecutionContext", args: tuple) -> object:
    return context.session.user_id


def _sql_text(context: "ExecutionContext", args: tuple) -> object:
    return context.session.sql_text


_REGISTRY: dict[str, ScalarFunction] = {
    "substring": _nulls_propagate(_substring),
    "upper": _nulls_propagate(lambda v: str(v).upper()),
    "lower": _nulls_propagate(lambda v: str(v).lower()),
    "abs": _nulls_propagate(abs),
    "length": _nulls_propagate(len),
    "coalesce": lambda context, args: next(
        (argument for argument in args if argument is not None), None
    ),
    "extract_year": _nulls_propagate(_extract_part("year")),
    "extract_month": _nulls_propagate(_extract_part("month")),
    "extract_day": _nulls_propagate(_extract_part("day")),
    "cast_int": _nulls_propagate(_cast_int),
    "cast_integer": _nulls_propagate(_cast_int),
    "cast_bigint": _nulls_propagate(_cast_int),
    "cast_float": _nulls_propagate(_cast_float),
    "cast_decimal": _nulls_propagate(_cast_float),
    "cast_varchar": _nulls_propagate(_cast_varchar),
    "cast_char": _nulls_propagate(_cast_varchar),
    "cast_date": _nulls_propagate(_cast_date),
    "now": _now,
    "current_date": _now,
    "user_id": _user_id,
    "userid": _user_id,
    "sql_text": _sql_text,
    "sql": _sql_text,
}


def lookup_function(name: str) -> ScalarFunction:
    """Resolve a scalar function; raises for unknown names."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ExecutionError(f"unknown function {name!r}") from None


def is_scalar_function(name: str) -> bool:
    return name.lower() in _REGISTRY


def is_session_function(name: str) -> bool:
    """True for the functions that read the session: live per call."""
    return _REGISTRY.get(name.lower()) in (_now, _user_id, _sql_text)
