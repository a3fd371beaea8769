"""Global dictionaries — Section 2.3's value <-> global-id mapping.

A global dictionary holds all distinct values of one column, sorted, and
maps them to dense integer *global-ids* (their ranks) and back. NULL,
when present, always sorts first and takes global-id 0, so ids of
non-null values remain ranks within the sorted value list.

Implementations:

- :class:`SortedStringDictionary` -- the "canonical" sorted array of
  strings; rank lookup by binary search (Section 2.3).
- :class:`NumericDictionary` -- sorted numeric values; in *optimized*
  mode integer payloads are offset+bit-packed to the minimal byte width.
- :class:`repro.storage.trie.TrieDictionary` -- the Section 3 nibble
  trie (the import builds it for strings with ``optimized_dicts``).
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterable, Sequence
from itertools import islice, repeat
from typing import Any

import numpy as np

from repro.errors import DictionaryError

#: Byte cost charged per value for the offset array of string payloads.
_OFFSET_BYTES = 4

#: Below this many queries the per-value path wins over batch setup.
_BULK_LOOKUP_MIN = 8


def _utf8(values: Iterable[str]) -> list[bytes]:
    """The UTF-8 encoding of each string; a lone surrogate has none."""
    try:
        return list(map(str.encode, values))
    except UnicodeEncodeError as exc:
        raise DictionaryError(
            f"dictionary string {exc.object!r} cannot be encoded as UTF-8"
        ) from None


def _bulk_ranks(
    sorted_values: np.ndarray,
    queries: list[Any],
    accepted: type | tuple[type, ...],
    has_null: bool,
) -> list[int | None]:
    """Batched global-id lookup over a sorted object array.

    One ``np.searchsorted`` over every query of an accepted type, then
    an elementwise equality check to separate hits from misses. Queries
    of other types miss (None), and None maps to global-id 0 exactly
    when the dictionary holds NULL — mirroring ``Dictionary.global_id``.
    """
    out: list[int | None] = [None] * len(queries)
    comparable: list[int] = []
    for i, value in enumerate(queries):
        if value is None:
            if has_null:
                out[i] = 0
        elif isinstance(value, accepted) and not isinstance(value, bool):
            comparable.append(i)
    if not comparable or not sorted_values.size:
        return out
    offset = 1 if has_null else 0
    probe = np.empty(len(comparable), dtype=object)
    probe[:] = [queries[i] for i in comparable]
    positions = np.searchsorted(sorted_values, probe)
    clipped = np.minimum(positions, sorted_values.size - 1)
    hits = (sorted_values[clipped] == probe) & (positions < sorted_values.size)
    for k, i in enumerate(comparable):
        if hits[k]:
            out[i] = int(positions[k]) + offset
    return out


class Dictionary:
    """Base class: null-aware global-id <-> value mapping."""

    kind = "abstract"

    def __init__(self, has_null: bool) -> None:
        self._has_null = has_null

    # -- abstract payload interface ------------------------------------
    @property
    def _n_non_null(self) -> int:
        raise NotImplementedError

    def _value_at(self, index: int) -> Any:
        raise NotImplementedError

    def _rank_of(self, value: Any) -> int | None:
        raise NotImplementedError

    def _payload_size(self) -> int:
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    @property
    def has_null(self) -> bool:
        """Whether NULL is a member (always global-id 0 when present)."""
        return self._has_null

    def __len__(self) -> int:
        return self._n_non_null + (1 if self._has_null else 0)

    @property
    def n_values(self) -> int:
        return len(self)

    def value(self, global_id: int) -> Any:
        """The value with rank ``global_id``."""
        if not 0 <= global_id < len(self):
            raise DictionaryError(
                f"global-id {global_id} out of range [0, {len(self)})"
            )
        if self._has_null:
            if global_id == 0:
                return None
            return self._value_at(global_id - 1)
        return self._value_at(global_id)

    def global_id(self, value: Any) -> int | None:
        """Rank of ``value``, or None if absent."""
        if value is None:
            return 0 if self._has_null else None
        rank = self._rank_of(value)
        if rank is None:
            return None
        return rank + (1 if self._has_null else 0)

    def __contains__(self, value: Any) -> bool:
        return self.global_id(value) is not None

    def values(self) -> list[Any]:
        """All values in global-id (sorted) order."""
        return [self.value(gid) for gid in range(len(self))]

    def global_ids(self, values: Iterable[Any]) -> list[int | None]:
        """Rank of each value (None for misses), preserving input order."""
        return [self.global_id(v) for v in values]

    def size_bytes(self) -> int:
        """Analytic encoded size of the dictionary payload."""
        return self._payload_size() + (1 if self._has_null else 0)

    def to_bytes(self) -> bytes:
        """Serialized payload for compression experiments."""
        raise NotImplementedError

    # -- order/rank queries ------------------------------------------------
    def _rank_lower_bound(self, value: Any) -> int:
        """Number of non-null values strictly smaller than ``value``.

        Subclasses with sorted payloads override this with binary
        search / trie walks; the base implementation scans.
        """
        count = 0
        for index in range(self._n_non_null):
            if self._value_at(index) < value:
                count += 1
            else:
                break
        return count

    def gid_range(self, op: str, value: Any) -> tuple[int, int]:
        """Half-open global-id interval matching ``<op> value``.

        Because global-ids are ranks, every range predicate maps to one
        id interval over the non-null ids. NULL never matches a
        comparison, so the interval starts at the first non-null id.
        """
        offset = 1 if self._has_null else 0
        lower = self._rank_lower_bound(value)
        present = self._rank_of(value) is not None
        if op == "<":
            return offset, offset + lower
        if op == "<=":
            return offset, offset + lower + (1 if present else 0)
        if op == ">":
            return offset + lower + (1 if present else 0), len(self)
        if op == ">=":
            return offset + lower, len(self)
        raise DictionaryError(f"gid_range does not handle operator {op!r}")


class SortedStringDictionary(Dictionary):
    """Sorted array of strings; binary search for rank lookups."""

    kind = "string"

    def __init__(self, values: Sequence[str], has_null: bool = False) -> None:
        super().__init__(has_null)
        self._values = list(values)
        self._sorted_cache: np.ndarray | None = None
        # Each check is one pass in C: ``map`` calls the builtin per value
        # without a Python frame.
        if not all(map(isinstance, self._values, repeat(str))):
            raise DictionaryError("string dictionary requires str values")
        if not all(map(operator.lt, self._values, islice(self._values, 1, None))):
            raise DictionaryError("dictionary values must be strictly sorted")

    @property
    def _n_non_null(self) -> int:
        return len(self._values)

    def values(self) -> list[Any]:
        if self._has_null:
            return [None, *self._values]
        return list(self._values)

    def global_ids(self, values: Iterable[Any]) -> list[int | None]:
        query = list(values)
        if len(query) < _BULK_LOOKUP_MIN:
            return [self.global_id(value) for value in query]
        if self._sorted_cache is None:
            cache = np.empty(len(self._values), dtype=object)
            cache[:] = self._values
            self._sorted_cache = cache
        return _bulk_ranks(self._sorted_cache, query, str, self._has_null)

    def _value_at(self, index: int) -> str:
        return self._values[index]

    def _rank_of(self, value: Any) -> int | None:
        if not isinstance(value, str):
            return None
        index = bisect.bisect_left(self._values, value)
        if index < len(self._values) and self._values[index] == value:
            return index
        return None

    def _rank_lower_bound(self, value: Any) -> int:
        if not isinstance(value, str):
            raise DictionaryError(
                f"cannot order-compare str dictionary with {type(value).__name__}"
            )
        return bisect.bisect_left(self._values, value)

    def _payload_size(self) -> int:
        return sum(map(len, _utf8(self._values))) + (
            _OFFSET_BYTES * len(self._values)
        )

    def to_bytes(self) -> bytes:
        out = bytearray()
        for raw in _utf8(self._values):
            out += len(raw).to_bytes(4, "little")
            out += raw
        return bytes(out)


class NumericDictionary(Dictionary):
    """Sorted numeric values (int64 or float64).

    In *optimized* mode integer payloads are stored offset from their
    minimum at the smallest sufficient byte width, so a dictionary of
    values clustered in a narrow range costs ~1-2 bytes per entry
    instead of 8.
    """

    kind = "numeric"

    def __init__(
        self,
        values: np.ndarray,
        has_null: bool = False,
        optimized: bool = False,
    ) -> None:
        super().__init__(has_null)
        if values.ndim != 1:
            raise DictionaryError("numeric dictionary requires a 1-d array")
        if values.size > 1 and not np.all(values[:-1] < values[1:]):
            raise DictionaryError("dictionary values must be strictly sorted")
        self._values = values
        self._is_int = np.issubdtype(values.dtype, np.integer)
        self._optimized = optimized and self._is_int

    @property
    def optimized(self) -> bool:
        """Whether integer payloads offset-pack in ``to_bytes``."""
        return self._optimized

    def raw_values(self) -> np.ndarray:
        """The sorted value array itself (callers must treat as read-only).

        Flat-buffer stores (:mod:`repro.storage.arena`) persist this
        array verbatim so attaches can wrap it zero-copy; a rebuilt
        dictionary round-trips ``optimized`` separately, keeping
        ``to_bytes`` byte-identical across the trip.
        """
        return self._values

    @property
    def _n_non_null(self) -> int:
        return int(self._values.size)

    def _value_at(self, index: int) -> Any:
        value = self._values[index]
        return int(value) if self._is_int else float(value)

    def _rank_of(self, value: Any) -> int | None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        index = int(np.searchsorted(self._values, value))
        if index < self._values.size and self._values[index] == value:
            return index
        return None

    def values(self) -> list[Any]:
        non_null = self._values.tolist()
        if self._has_null:
            return [None, *non_null]
        return non_null

    def global_ids(self, values: Iterable[Any]) -> list[int | None]:
        query = list(values)
        if len(query) < _BULK_LOOKUP_MIN or not self._values.size:
            return [self.global_id(value) for value in query]
        out: list[int | None] = [None] * len(query)
        offset = 1 if self._has_null else 0
        # Ints and floats are batched separately so each batch keeps the
        # exact dtype-promotion behaviour of the scalar searchsorted.
        batches: dict[type, tuple[list[int], list[Any]]] = {
            int: ([], []),
            float: ([], []),
        }
        for i, value in enumerate(query):
            if value is None:
                if self._has_null:
                    out[i] = 0
            elif not isinstance(value, bool) and isinstance(value, (int, float)):
                positions, probe = batches[int if isinstance(value, int) else float]
                positions.append(i)
                probe.append(value)
        for dtype, (positions, probe) in (
            (np.int64, batches[int]),
            (np.float64, batches[float]),
        ):
            if not positions:
                continue
            try:
                probe_array = np.asarray(probe, dtype=dtype)
            except OverflowError:
                # Ints outside int64: defer to the scalar path per value.
                for i in positions:
                    out[i] = self.global_id(query[i])
                continue
            found = np.searchsorted(self._values, probe_array)
            clipped = np.minimum(found, self._values.size - 1)
            hits = (self._values[clipped] == probe_array) & (
                found < self._values.size
            )
            for k, i in enumerate(positions):
                if hits[k]:
                    out[i] = int(found[k]) + offset
        return out

    def _rank_lower_bound(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DictionaryError(
                f"cannot order-compare numeric dictionary with "
                f"{type(value).__name__}"
            )
        return int(np.searchsorted(self._values, value, side="left"))

    def _int_width(self) -> int:
        if not self._values.size:
            return 1
        span = int(self._values[-1]) - int(self._values[0])
        for width in (1, 2, 4, 8):
            if span < 1 << (8 * width):
                return width
        return 8

    def _payload_size(self) -> int:
        if not self._optimized:
            return 8 * int(self._values.size)
        # Offset encoding: 8-byte base + packed deltas.
        return 8 + self._int_width() * int(self._values.size)

    def to_bytes(self) -> bytes:
        if self._optimized and self._values.size:
            base = int(self._values[0])
            width = self._int_width()
            deltas = (self._values.astype(np.int64) - base).astype(np.uint64)
            dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}[width]
            return base.to_bytes(8, "little", signed=True) + deltas.astype(
                dtype
            ).tobytes()
        return np.ascontiguousarray(self._values).tobytes()


def _null_safe_key(value: Any):
    """Sort key placing None first, usable inside tuples too."""
    if isinstance(value, tuple):
        return tuple(_null_safe_key(v) for v in value)
    return (value is not None, value)


class SortedTupleDictionary(Dictionary):
    """Dictionary over tuples — the combined multi-group-by column.

    The paper (footnote 5) combines multiple group-by fields into one
    materialized "virtual" column; its values are tuples of the member
    fields' values. Tuples sort with NULL-first semantics per element.
    """

    kind = "tuple"

    def __init__(self, values: Sequence[tuple], has_null: bool = False) -> None:
        super().__init__(has_null)
        self._values = list(values)
        self._keys = [_null_safe_key(v) for v in self._values]
        self._sorted_cache: np.ndarray | None = None
        if any(
            self._keys[i] >= self._keys[i + 1]
            for i in range(len(self._keys) - 1)
        ):
            raise DictionaryError("tuple dictionary must be strictly sorted")

    @property
    def _n_non_null(self) -> int:
        return len(self._values)

    def values(self) -> list[Any]:
        if self._has_null:
            return [None, *self._values]
        return list(self._values)

    def global_ids(self, values: Iterable[Any]) -> list[int | None]:
        query = list(values)
        if len(query) < _BULK_LOOKUP_MIN or not self._keys:
            return [self.global_id(value) for value in query]
        if self._sorted_cache is None:
            cache = np.empty(len(self._keys), dtype=object)
            cache[:] = self._keys
            self._sorted_cache = cache
        keyed = [
            _null_safe_key(value) if isinstance(value, tuple) else value
            for value in query
        ]
        # Key equality is equivalent to value equality (the null-safe
        # key wrapping is injective), so ranks over keys are ranks over
        # values.
        return _bulk_ranks(self._sorted_cache, keyed, tuple, self._has_null)

    def _value_at(self, index: int) -> tuple:
        return self._values[index]

    def _rank_of(self, value: Any) -> int | None:
        if not isinstance(value, tuple):
            return None
        key = _null_safe_key(value)
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._values[index] == value:
            return index
        return None

    def _rank_lower_bound(self, value: Any) -> int:
        return bisect.bisect_left(self._keys, _null_safe_key(value))

    def _payload_size(self) -> int:
        total = 0
        for value in self._values:
            for member in value:
                if isinstance(member, str):
                    total += len(member.encode("utf-8")) + _OFFSET_BYTES
                else:
                    total += 8
        return total

    def to_bytes(self) -> bytes:
        out = bytearray()
        for value in self._values:
            raw = repr(value).encode("utf-8")
            out += len(raw).to_bytes(4, "little")
            out += raw
        return bytes(out)
