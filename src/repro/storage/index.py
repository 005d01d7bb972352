"""Secondary index structures: hash (equality) and ordered (range).

Both index kinds map a key — the tuple of indexed column values — to the
set of row identifiers (rids) carrying that key. The ordered index keeps a
sorted key list for range scans, maintained incrementally with ``bisect``.
NULL keys are excluded from indexes, as in most engines: an equality or
range seek can never match NULL.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from repro.datatypes import value_sort_key


def _has_null(key: tuple) -> bool:
    return None in key


class HashIndex:
    """Equality index: key tuple -> set of rids."""

    def __init__(self, name: str, positions: tuple[int, ...]) -> None:
        self.name = name
        self.positions = positions
        self._buckets: dict[tuple, set[int]] = {}

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[position] for position in self.positions)

    def insert(self, rid: int, row: tuple) -> None:
        key = self.key_of(row)
        if _has_null(key):
            return
        self._buckets.setdefault(key, set()).add(rid)

    def delete(self, rid: int, row: tuple) -> None:
        key = self.key_of(row)
        if _has_null(key):
            return
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rid)
            if not bucket:
                del self._buckets[key]

    def seek(self, key: tuple) -> Iterator[int]:
        """Yield rids whose indexed columns equal ``key``."""
        if _has_null(key):
            return iter(())
        return iter(self._buckets.get(key, ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class OrderedIndex:
    """Ordered index supporting equality and range scans.

    Maintains a sorted list of distinct keys in parallel with the hash map
    so that range scans are a bisect plus a slice walk.
    """

    def __init__(self, name: str, positions: tuple[int, ...]) -> None:
        self.name = name
        self.positions = positions
        self._buckets: dict[tuple, set[int]] = {}
        self._sorted_keys: list[tuple] = []

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[position] for position in self.positions)

    def _sortable(self, key: tuple) -> tuple:
        return tuple(value_sort_key(part) for part in key)

    def insert(self, rid: int, row: tuple) -> None:
        key = self.key_of(row)
        if _has_null(key):
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {rid}
            sortable = self._sortable(key)
            position = bisect.bisect_left(
                self._sorted_keys, sortable, key=self._sortable
            )
            self._sorted_keys.insert(position, key)
        else:
            bucket.add(rid)

    def delete(self, rid: int, row: tuple) -> None:
        key = self.key_of(row)
        if _has_null(key):
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(rid)
        if not bucket:
            del self._buckets[key]
            sortable = self._sortable(key)
            position = bisect.bisect_left(
                self._sorted_keys, sortable, key=self._sortable
            )
            if (position < len(self._sorted_keys)
                    and self._sorted_keys[position] == key):
                del self._sorted_keys[position]

    def seek(self, key: tuple) -> Iterator[int]:
        if _has_null(key):
            return iter(())
        return iter(self._buckets.get(key, ()))

    def range_scan(
        self,
        low: tuple | None,
        high: tuple | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterable[int]:
        """Yield rids with ``low <= key <= high`` (bounds optional).

        Bounds are single-column prefixes compared lexicographically on the
        sortable form; a ``None`` bound means unbounded on that side.
        """
        keys = self._sorted_keys
        if low is None:
            start = 0
        else:
            sortable = self._sortable(low)
            if low_inclusive:
                start = bisect.bisect_left(keys, sortable, key=self._sortable)
            else:
                start = bisect.bisect_right(keys, sortable, key=self._sortable)
        if high is None:
            stop = len(keys)
        else:
            sortable = self._sortable(high)
            if high_inclusive:
                stop = bisect.bisect_right(keys, sortable, key=self._sortable)
            else:
                stop = bisect.bisect_left(keys, sortable, key=self._sortable)
        for key in keys[start:stop]:
            yield from self._buckets[key]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
