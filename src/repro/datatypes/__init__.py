"""SQL data types, NULL-aware value semantics, and date/interval arithmetic."""

from repro.datatypes.types import (
    DataType,
    BOOLEAN,
    INTEGER,
    FLOAT,
    DECIMAL,
    VARCHAR,
    DATE,
    NULL_TYPE,
    type_from_name,
    common_type,
)
from repro.datatypes.values import (
    NULL,
    is_null,
    sql_equals,
    sql_compare,
    sql_and,
    sql_or,
    sql_not,
    sql_like,
    coerce_value,
    value_converter,
    value_sort_key,
)
from repro.datatypes.intervals import Interval, add_interval

__all__ = [
    "DataType",
    "BOOLEAN",
    "INTEGER",
    "FLOAT",
    "DECIMAL",
    "VARCHAR",
    "DATE",
    "NULL_TYPE",
    "type_from_name",
    "common_type",
    "NULL",
    "is_null",
    "sql_equals",
    "sql_compare",
    "sql_and",
    "sql_or",
    "sql_not",
    "sql_like",
    "coerce_value",
    "value_converter",
    "value_sort_key",
    "Interval",
    "add_interval",
]
