"""Factorizing raw columns into dense sorted integer codes.

Both the partitioner and the reordering heuristics work on *codes*: a
column's values mapped to their ranks among the sorted distinct values
(NULL first). Ranks preserve order, so a range split on codes is a
range split on values — and codes are exactly the global-ids the
datastore will assign later.

A dictionary-coded column already holds its codes: :func:`factorize`
only drops the distinct values no row uses. For a list-backed column it
scans the value types once and dispatches
to the fastest kernel per column type: ``np.unique`` over typed numpy
arrays for int and float columns (NULLs handled by masking), and the
hashed set+dict path for strings — numpy's fixed-width 'U'/'S' sorts
scale with the *longest* string in the column and measure 3-20x slower
than hashing on realistic data. Anything the typed paths cannot
reproduce bit-for-bit (bools, exotic types, NaN, negative zero,
integers beyond the float64-exact range) falls back to
:func:`factorize_scalar` — the original implementation, kept
behaviour-frozen as the equivalence oracle. Equivalence between the
paths is enforced by property tests, not assumed.

One deliberate exception to exact Python semantics: a column mixing
floats with integers beyond the float64-exact range is deduplicated by
*float64 image* (see :func:`_factorize_quotient_by_float64`), because
that is the space its dictionary stores — exact dedup used to emit
dictionaries with equal adjacent floats, which the strictly-sorted
invariant rejects at import time.

:func:`distinct_tuples` is the one way rows are counted by the tuples
of several code columns they hold: the partitioner's cell histogram,
the generator's key ranks and the datastore's virtual fields use it.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.table import Column

# Integers with |v| >= 2**53 are not exactly representable as float64,
# so the mixed int/float fast path must not round-trip them.
_FLOAT64_EXACT_INT_BOUND = 2**53


#: A composite key space of at most this many keys per row is counted in
#: one ``bincount`` table; a sparser one is sorted (``np.unique``).
_DENSE_KEYS_PER_ROW = 4


def code_dtype(n_distinct: int) -> np.dtype:
    """The smallest unsigned dtype that holds every code of ``n_distinct`` values."""
    return np.min_scalar_type(max(n_distinct - 1, 0))


def distinct_tuples(
    field_codes: Sequence[np.ndarray], n_rows: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The distinct tuples of per-row non-negative codes that the rows hold.

    Tuples are numbered in lexicographic order. Returns each row's
    tuple number, each tuple's row count, and per field each tuple's
    code. Fields fold in one at a time — key = tuple so far * field
    width + code, compacted back to dense tuple numbers — so a key
    never exceeds rows * width and no row-by-field matrix is built.
    Zero fields hold one tuple, the empty one, whatever ``n_rows`` is.
    """
    counts = np.array([n_rows], dtype=np.int64)
    if not field_codes:
        return np.zeros(n_rows, dtype=np.int64), counts, []
    tuples: list[np.ndarray] = []
    for codes in field_codes:
        width = int(codes.max(initial=0)) + 1
        if tuples:
            keys = numbers * width
            keys += codes
        else:  # one tuple so far: a key is a code
            keys = codes.astype(np.int64, copy=False)
        space = counts.size * width
        if space <= _DENSE_KEYS_PER_ROW * n_rows:
            counts = np.bincount(keys, minlength=space)
            occupied = np.flatnonzero(counts > 0)
            counts = counts[occupied]
            rank = np.empty(space, dtype=np.int64)
            rank[occupied] = np.arange(occupied.size)
            numbers = rank[keys]
        else:
            occupied, numbers, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
        if tuples:
            parent, code = np.divmod(occupied, width)
            tuples = [column[parent] for column in tuples] + [code]
        else:
            tuples = [occupied]
    return numbers, counts, tuples


def factorize(column: Column) -> tuple[np.ndarray, list[Any] | np.ndarray]:
    """Map a column to (codes, sorted_distinct_values).

    ``codes[i]`` is the rank of row i's value among the sorted distinct
    values; NULL sorts first. Codes come back in :func:`code_dtype` of
    the distinct count — one or two bytes a row for most columns, which
    is what lets the reorder radix-sort them and every later pass read
    an eighth of an int64 array. A dictionary-coded column already is
    that pair up to the distinct values no row uses: a presence scatter
    finds those and a remap renumbers the rest — no cell is touched, a
    typed ``distinct`` array comes back as a typed array, and codes
    that need neither remap nor narrowing are returned as they are.
    """
    codes, distinct = column.codes, column.distinct
    if codes is None or (
        isinstance(distinct, list) and _mixes_floats_with_inexact_ints(distinct)
    ):
        codes, distinct = factorize_list(column.values)
        return codes.astype(code_dtype(len(distinct))), distinct
    present = column.presence()
    if present.all():
        return codes.astype(code_dtype(len(distinct)), copy=False), distinct
    kept = np.flatnonzero(present)
    if isinstance(distinct, list):
        distinct = [distinct[index] for index in kept.tolist()]
    else:
        distinct = distinct[kept]
    remap = (np.cumsum(present) - 1).astype(code_dtype(kept.size))
    # Narrow index arrays gather slowly: widen the codes first.
    return remap[codes.astype(np.intp, copy=False)], distinct


def depends_on_row_order(column: Column) -> bool:
    """Whether :func:`factorize` of ``column`` can change with its row order.

    Of cells that compare equal yet differ — ``2`` and ``2.0``, ``1``
    and ``True``, ``0.0`` and ``-0.0`` — the dictionary keeps the first
    seen, so permuting the rows can change it; so can NaN (``sorted``
    does not order it) and the float64-image dedup, which merges more
    values the earlier a float is seen. A list-backed column of one
    plain type is safe; a dictionary-coded one holds each value once,
    so only the float64-image dedup can merge two of them.
    """
    if column.codes is not None:
        return isinstance(
            column.distinct, list
        ) and _mixes_floats_with_inexact_ints(column.distinct)
    values = column.values
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if len(kinds) != 1:
        return bool(kinds)
    (kind,) = kinds
    if kind is float:
        floats = np.array(values, dtype=np.float64)  # NULL reads as NaN
        return bool(
            np.isnan(floats).sum() > values.count(None)
            or np.signbit(floats[floats == 0.0]).any()
        )
    return kind not in (str, int, bool)


def factorize_scalar(column: Column) -> tuple[np.ndarray, list[Any]]:
    """Reference scalar implementation (pre-vectorization behaviour)."""
    return _factorize_scalar_list(column.values)


def factorize_list(values: Sequence[Any]) -> tuple[np.ndarray, list[Any]]:
    """Vectorized :func:`factorize` over any sequence of cell values."""
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    first = None
    for first in values:
        if first is not None:
            break
    if first is None:
        return np.zeros(n, dtype=np.int64), [None]
    if type(first) is str:
        # Hashed dedup + one dict probe per row is the fast path for
        # strings: numpy would pad every element to the column's widest
        # string before sorting, which measures 3-20x slower here. The
        # hash path handles any value mix, so no full type scan needed
        # (mixed str/number columns raise TypeError there exactly as
        # the pre-vectorization code did).
        return _factorize_scalar_list(values)
    kinds = {type(v) for v in values}
    has_null = type(None) in kinds
    kinds.discard(type(None))
    if kinds == {int}:
        result = _factorize_ints(values, has_null)
    elif kinds == {float} or kinds == {int, float}:
        result = _factorize_numeric(values, has_null)
    else:
        result = None
    if result is None:
        return _factorize_scalar_list(values)
    return result


def _assemble_codes(
    n: int,
    null_mask: np.ndarray | None,
    inverse: np.ndarray,
    ordered_non_null: list[Any],
) -> tuple[np.ndarray, list[Any]]:
    """Merge a non-null inverse with NULL rows (code 0, value ``None``)."""
    if null_mask is None:
        return inverse.astype(np.int64, copy=False), ordered_non_null
    codes = np.empty(n, dtype=np.int64)
    codes[null_mask] = 0
    codes[~null_mask] = inverse.astype(np.int64, copy=False) + 1
    return codes, [None, *ordered_non_null]


def _factorize_ints(
    values: Sequence[Any], has_null: bool
) -> tuple[np.ndarray, list[Any]] | None:
    n = len(values)
    try:
        if has_null:
            null_mask = np.fromiter(
                (v is None for v in values), dtype=bool, count=n
            )
            arr = np.fromiter(
                (v for v in values if v is not None),
                dtype=np.int64,
                count=n - int(null_mask.sum()),
            )
        else:
            null_mask = None
            arr = np.fromiter(values, dtype=np.int64, count=n)
    except OverflowError:
        return None
    uniq, inverse = np.unique(arr, return_inverse=True)
    return _assemble_codes(n, null_mask, inverse, uniq.tolist())


def _factorize_numeric(
    values: Sequence[Any], has_null: bool
) -> tuple[np.ndarray, list[Any]] | None:
    n = len(values)
    if has_null:
        null_mask = np.fromiter((v is None for v in values), dtype=bool, count=n)
        non_null_list = [v for v in values if v is not None]
    else:
        null_mask = None
        non_null_list = list(values)
    non_null = np.empty(len(non_null_list), dtype=object)
    non_null[:] = non_null_list
    try:
        as_float = non_null.astype(np.float64)
    except OverflowError:
        return None
    if np.isnan(as_float).any():
        return None
    if np.signbit(as_float[as_float == 0.0]).any():
        return None
    float_mask = np.fromiter(
        (type(v) is float for v in non_null_list),
        dtype=bool,
        count=non_null.size,
    )
    int_values = as_float[~float_mask]
    if int_values.size and np.abs(int_values).max() >= _FLOAT64_EXACT_INT_BOUND:
        return None
    uniq, inverse = np.unique(as_float, return_inverse=True)
    # The scalar path keeps the first-inserted representative of values
    # that compare equal (e.g. 2 vs 2.0); mirror that by typing each
    # distinct value after its first occurrence in the column.
    first_index = np.full(uniq.size, non_null.size, dtype=np.int64)
    np.minimum.at(first_index, inverse, np.arange(non_null.size))
    rep_is_float = float_mask[first_index]
    ordered = [
        float(v) if is_float else int(v)
        for v, is_float in zip(uniq.tolist(), rep_is_float.tolist())
    ]
    return _assemble_codes(n, null_mask, inverse, ordered)


def _factorize_quotient_by_float64(
    values: Sequence[Any],
) -> tuple[np.ndarray, list[Any]] | None:
    """Factorize a mixed int/float column by its *float64 image*.

    A column that mixes floats with integers beyond the float64-exact
    range is stored as a float64 dictionary, so values whose float64
    images collide (e.g. ``2**61`` and ``float(2**61)``, or ``2**61``
    and ``2**61 + 1``) are one storable value. Deduplicating them
    exactly used to produce a dictionary array with equal adjacent
    floats, which :class:`NumericDictionary` rejects — distinctness
    must be decided in the space the dictionary stores. The first
    occurrence in the column supplies the representative (mirroring
    how ``set`` keeps the first of ``2`` vs ``2.0``). Returns None for
    inputs with NaN or non-float-representable ints, which keep the
    exact semantics.
    """
    rep: dict[float, Any] = {}
    has_null = False
    try:
        for v in values:
            if v is None:
                has_null = True
                continue
            image = float(v)
            if image != image:  # NaN: exact path handles it
                return None
            if image not in rep:
                rep[image] = v
    except OverflowError:  # int beyond float64 range
        return None
    images = sorted(rep)
    offset = 1 if has_null else 0
    rank = {image: code + offset for code, image in enumerate(images)}
    codes = np.fromiter(
        (0 if v is None else rank[float(v)] for v in values),
        dtype=np.int64,
        count=len(values),
    )
    ordered = ([None] if has_null else []) + [rep[image] for image in images]
    return codes, ordered


def _mixes_floats_with_inexact_ints(distinct: Iterable[Any]) -> bool:
    """Whether exact dedup and dedup by float64 image can disagree."""
    kinds = {type(v) for v in distinct}
    kinds.discard(type(None))
    return kinds == {int, float} and any(
        type(v) is int and abs(v) >= _FLOAT64_EXACT_INT_BOUND for v in distinct
    )


def _factorize_scalar_list(values: Sequence[Any]) -> tuple[np.ndarray, list[Any]]:
    distinct = set(values)
    has_null = None in distinct
    distinct.discard(None)
    if _mixes_floats_with_inexact_ints(distinct):
        result = _factorize_quotient_by_float64(values)
        if result is not None:
            return result
    ordered: list[Any] = ([None] if has_null else []) + sorted(distinct)
    rank = {value: code for code, value in enumerate(ordered)}
    # map(rank.__getitem__, ...) probes the dict without a Python frame
    # per row; exceptions (KeyError, unhashable TypeError) are the same
    # as the ``rank[value]`` spelling.
    codes = np.fromiter(
        map(rank.__getitem__, values),
        dtype=np.int64,
        count=len(values),
    )
    return codes, ordered
