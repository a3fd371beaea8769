"""Deterministic value hashing shared by sketches and backends.

All backends (column-store and row-store baselines) must produce
identical APPROX_COUNT_DISTINCT results, so they share this single
hash: BLAKE2b over a canonical byte rendering, reduced to 64 bits and
optionally normalized to [0, 1).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import Any

import numpy as np

_SCALE = float(1 << 64)

#: ``_canonical_bytes`` of a type whose every value takes the same branch.
_TAGGED = {
    str: lambda value: b"s" + value.encode("utf-8"),
    int: lambda value: b"i%d" % value,
}


def _canonical_bytes(value: Any) -> bytes:
    """A type-tagged byte rendering so 1 and '1' hash differently."""
    if value is None:
        return b"N"
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bool):
        return b"b" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        # Integral floats hash like ints so 3 == 3.0 across backends.
        if value.is_integer():
            return b"i" + str(int(value)).encode("ascii")
        return b"f" + repr(value).encode("ascii")
    return b"o" + repr(value).encode("utf-8")


def hash_value(value: Any) -> int:
    """A 64-bit hash of ``value``."""
    digest = hashlib.blake2b(_canonical_bytes(value), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hash_to_unit(value: Any) -> float:
    """Hash ``value`` into [0, 1)."""
    return hash_value(value) / _SCALE


def hash_units(values: Sequence[Any]) -> np.ndarray:
    """``hash_to_unit`` of every value as one float64 array, bit for bit.

    A dictionary holds one type besides NULL, so the type tag is picked
    once and the digests are read as little-endian uint64 in one pass
    (numpy's uint64 -> float64 rounds as Python's int -> float does).
    """
    kinds = set(map(type, values)) - {type(None)}
    encode = _TAGGED.get(kinds.pop() if len(kinds) == 1 else None, _canonical_bytes)
    blake2b = hashlib.blake2b
    digests = b"".join(
        [
            blake2b(b"N" if value is None else encode(value), digest_size=8).digest()
            for value in values
        ]
    )
    return np.frombuffer(digests, dtype="<u8") / _SCALE
