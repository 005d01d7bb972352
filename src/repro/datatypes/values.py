"""NULL-aware value operations: SQL three-valued logic and comparisons.

SQL truth values are represented as ``True``, ``False``, and ``None``
(UNKNOWN). Every helper here treats ``None`` as SQL NULL and propagates it
the way the standard requires: comparisons with NULL yield UNKNOWN, AND/OR
follow Kleene logic, and predicates only accept rows whose condition is
exactly ``True``.
"""

from __future__ import annotations

import datetime
import re
from functools import lru_cache
from typing import Callable

from repro.datatypes.types import (
    DataType,
    BOOLEAN,
    DATE,
    FLOAT,
    INTEGER,
    DECIMAL,
    VARCHAR,
    type_of_value,
)
from repro.errors import ExecutionError

#: canonical NULL value (aliased for readability at call sites)
NULL = None


def is_null(value: object) -> bool:
    """True iff ``value`` is SQL NULL."""
    return value is None


def sql_equals(left: object, right: object) -> bool | None:
    """SQL ``=``: UNKNOWN if either side is NULL."""
    if left is None or right is None:
        return None
    return left == right


def sql_compare(left: object, right: object) -> int | None:
    """Three-way comparison: -1/0/+1, or None if either side is NULL."""
    if left is None or right is None:
        return None
    try:
        if left < right:
            return -1
        if left > right:
            return 1
    except TypeError:
        raise ExecutionError(
            f"cannot compare {_typed(left)} with {_typed(right)}"
        ) from None
    return 0


#: Python values a column compares with, by type name; numeric and
#: BOOLEAN columns compare with ``int`` and ``float`` (``bool`` included)
_COMPARES_WITH = {VARCHAR.name: str, DATE.name: datetime.date}


def check_comparable(column: str, data_type: DataType, value: object) -> None:
    """Raise unless ``value`` compares with the ``data_type`` ``column``."""
    if not isinstance(value, _COMPARES_WITH.get(data_type.name, (int, float))):
        raise ExecutionError(
            f"cannot compare {data_type} column {column!r} with "
            f"{_typed(value)}"
        )


def _typed(value: object) -> str:
    return f"{type_of_value(value)} value {value!r}"


def sql_and(left: bool | None, right: bool | None) -> bool | None:
    """Kleene AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: bool | None, right: bool | None) -> bool | None:
    """Kleene OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: bool | None) -> bool | None:
    """Kleene NOT."""
    if value is None:
        return None
    return not value


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL LIKE pattern (``%`` and ``_`` wildcards) to a regex."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.DOTALL)


def sql_like(value: object, pattern: object) -> bool | None:
    """SQL ``LIKE``: UNKNOWN if either operand is NULL."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExecutionError("LIKE requires string operands")
    return _like_regex(pattern).fullmatch(value) is not None


def coerce_value(value: object, target: DataType) -> object:
    """Coerce a Python value to the representation of ``target``.

    NULL passes through. Numeric widening converts int to float for FLOAT
    columns; DECIMAL is stored as float for simplicity (documented in
    DESIGN.md). Strings are kept verbatim; dates must already be
    :class:`datetime.date` or an ISO string.
    """
    return value_converter(target)(value)


def value_converter(target: DataType) -> Callable[[object], object]:
    """``coerce_value(·, target)`` with the type dispatch done once: a
    table looks up one converter per column, not one per stored value."""
    return _CONVERTERS.get(target.name, _unchanged)


def _to_integer(value: object) -> object:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"cannot store {value!r} in INTEGER column")
    return int(value)


def _float_converter(target: DataType) -> Callable[[object], object]:
    def to_float(value: object) -> object:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(
                f"cannot store {value!r} in {target} column"
            )
        return float(value)

    return to_float


def _to_varchar(value: object) -> object:
    if value is None or isinstance(value, str):
        return value
    raise ExecutionError(f"cannot store {value!r} in VARCHAR column")


def _to_date(value: object) -> object:
    if value is None or isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        try:
            return datetime.date.fromisoformat(value)
        except ValueError as exc:
            raise ExecutionError(f"invalid DATE literal: {value!r}") from exc
    raise ExecutionError(f"cannot store {value!r} in DATE column")


def _to_boolean(value: object) -> object:
    if value is None or isinstance(value, bool):
        return value
    raise ExecutionError(f"cannot store {value!r} in BOOLEAN column")


def _unchanged(value: object) -> object:
    return value


#: type name -> converter; any other type stores values unchanged
_CONVERTERS = {
    INTEGER.name: _to_integer,
    FLOAT.name: _float_converter(FLOAT),
    DECIMAL.name: _float_converter(DECIMAL),
    VARCHAR.name: _to_varchar,
    DATE.name: _to_date,
    BOOLEAN.name: _to_boolean,
}

#: type name -> the Python types its converter takes without a check
#: that can fail (an INTEGER column's int, not float: ``int(inf)`` fails)
_TAKES = {
    INTEGER.name: int,
    FLOAT.name: float,
    DECIMAL.name: float,
    VARCHAR.name: str,
    DATE.name: datetime.date,
    BOOLEAN.name: bool,
}


def converts_all(target: DataType, kinds: set) -> bool:
    """True when ``coerce_value(·, target)`` cannot raise on a value whose
    exact Python type is one of ``kinds``."""
    taken = _TAKES.get(target.name)
    return taken is None or kinds <= {taken, type(None)}


#: sort rank that places NULLs first, mirroring "NULLS FIRST" ascending order
_NULL_RANK = 0
_VALUE_RANK = 1


def value_sort_key(value: object) -> tuple[int, object]:
    """Total-order sort key over nullable values (NULLs sort first)."""
    if value is None:
        return (_NULL_RANK, False)
    return (_VALUE_RANK, value)
