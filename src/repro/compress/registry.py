"""Codec registry: look up compressors and cascade pipelines by name.

The column-io backend and the PDS2 serializer reference codecs by name
so that the codec choice is a configuration knob, mirroring Section 5's
"Other Compression Algorithms" evaluation.

Two kinds of entries share one namespace:

- **atomic codecs** (``zippy``, ``rle``, ``delta``, ...) wrap a single
  compress/decompress function pair, and
- **cascades** (``delta+varint``, ``rle+zippy``, ...) compose already
  registered atomic stages left-to-right on encode and right-to-left
  on decode. Framing is per stage: every stage's encoded form is
  self-delimiting (length prefixes where the payload is padded or
  tabled), so a chain round-trips byte-exactly, and the pipeline
  *identity* travels out-of-band in whichever container header
  recorded the name (PDS2 field meta, column-io column meta, the
  hybrid layer's blob map). :func:`register_cascade` is public —
  the encoding advisor (:mod:`repro.compress.advisor`) scores the
  registered pipelines per column.

Every registry-level call is instrumented (PR 5): each codec — cascade
or atomic — carries a :class:`CompressionStats` record of bytes in/out,
call counts and wall time per direction, and the same quantities are
mirrored into the process-wide :data:`repro.monitoring.counters`
registry under ``compress.<codec>.*``. Cascades are measured as one
unit (their stages' raw functions are composed uninstrumented), so
their stats read like any atomic codec's. Callers that import a codec
function directly (for example the column-io block kernels) bypass the
wrappers by design — the stats describe named-codec usage.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.compress.huffman import huffman_compress, huffman_decompress
from repro.compress.lzo_like import lzo_compress, lzo_decompress
from repro.compress.rle import rle_decode_bytes, rle_encode_bytes
from repro.compress.transforms import (
    bytedict_decode_bytes,
    bytedict_encode_bytes,
    delta_decode_bytes,
    delta_encode_bytes,
    wordpack_decode_bytes,
    wordpack_encode_bytes,
)
from repro.compress.zippy import zippy_compress, zippy_decompress
from repro.errors import CompressionError
from repro.monitoring import counters


@dataclass
class CompressionStats:
    """Cumulative per-codec activity, split by direction.

    ``*_seconds`` is wall time inside the codec function; errors count
    calls that raised (their bytes are *not* added to ``*_bytes_in``).
    """

    name: str
    encode_calls: int = 0
    encode_bytes_in: int = 0
    encode_bytes_out: int = 0
    encode_seconds: float = 0.0
    encode_errors: int = 0
    decode_calls: int = 0
    decode_bytes_in: int = 0
    decode_bytes_out: int = 0
    decode_seconds: float = 0.0
    decode_errors: int = 0

    @property
    def compression_ratio(self) -> float:
        """Uncompressed bytes per compressed byte on the encode path."""
        if not self.encode_bytes_out:
            return 0.0
        return self.encode_bytes_in / self.encode_bytes_out

    @property
    def encode_mb_per_s(self) -> float:
        if self.encode_seconds <= 0.0:
            return 0.0
        return self.encode_bytes_in / self.encode_seconds / (1 << 20)

    @property
    def decode_mb_per_s(self) -> float:
        """Throughput in *decompressed* megabytes per second."""
        if self.decode_seconds <= 0.0:
            return 0.0
        return self.decode_bytes_out / self.decode_seconds / (1 << 20)

    def as_dict(self) -> dict[str, float | int | str]:
        """A JSON-friendly snapshot including the derived rates."""
        return {
            "name": self.name,
            "encode_calls": self.encode_calls,
            "encode_bytes_in": self.encode_bytes_in,
            "encode_bytes_out": self.encode_bytes_out,
            "encode_seconds": self.encode_seconds,
            "encode_errors": self.encode_errors,
            "decode_calls": self.decode_calls,
            "decode_bytes_in": self.decode_bytes_in,
            "decode_bytes_out": self.decode_bytes_out,
            "decode_seconds": self.decode_seconds,
            "decode_errors": self.decode_errors,
            "compression_ratio": self.compression_ratio,
            "encode_mb_per_s": self.encode_mb_per_s,
            "decode_mb_per_s": self.decode_mb_per_s,
        }


@dataclass(frozen=True)
class Codec:
    """A named pair of compress/decompress functions over bytes.

    ``stages`` is empty for atomic codecs; for cascades it names the
    registered stages applied left-to-right on the encode path.
    """

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]
    stats: CompressionStats = field(compare=False, default=None)  # type: ignore[assignment]
    stages: tuple[str, ...] = ()


_STATS: dict[str, CompressionStats] = {}
_CODECS: dict[str, Codec] = {}
#: Uninstrumented (compress, decompress) pairs — cascades compose these
#: so one cascade call is measured as one unit, not once per stage.
_RAW: dict[
    str, tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]
] = {}


def _instrumented(
    name: str, fn: Callable[[bytes], bytes], direction: str
) -> Callable[[bytes], bytes]:
    """Wrap a codec function with stats and monitoring counters."""
    prefix = f"compress.{name}.{direction}"

    def wrapper(data: bytes) -> bytes:
        stats = _STATS[name]
        start = time.perf_counter()
        try:
            out = fn(data)
        except CompressionError:
            counters.increment(f"{prefix}_errors")
            if direction == "encode":
                stats.encode_errors += 1
            else:
                stats.decode_errors += 1
            raise
        elapsed = time.perf_counter() - start
        if direction == "encode":
            stats.encode_calls += 1
            stats.encode_bytes_in += len(data)
            stats.encode_bytes_out += len(out)
            stats.encode_seconds += elapsed
        else:
            stats.decode_calls += 1
            stats.decode_bytes_in += len(data)
            stats.decode_bytes_out += len(out)
            stats.decode_seconds += elapsed
        counters.increment(f"{prefix}_calls")
        counters.increment(f"{prefix}_bytes_in", len(data))
        counters.increment(f"{prefix}_bytes_out", len(out))
        counters.increment(f"{prefix}_micros", int(elapsed * 1_000_000))
        return out

    wrapper.__name__ = f"{name}_{direction}"
    return wrapper


def _identity(data: bytes) -> bytes:
    return data


def _register(
    name: str,
    compress_fn: Callable[[bytes], bytes],
    decompress_fn: Callable[[bytes], bytes],
    stages: tuple[str, ...] = (),
) -> Codec:
    if name in _CODECS:
        raise CompressionError(f"codec {name!r} is already registered")
    _RAW[name] = (compress_fn, decompress_fn)
    _STATS[name] = CompressionStats(name=name)
    codec = Codec(
        name,
        _instrumented(name, compress_fn, "encode"),
        _instrumented(name, decompress_fn, "decode"),
        _STATS[name],
        stages,
    )
    _CODECS[name] = codec
    return codec


def register_cascade(name: str, stages: Sequence[str]) -> Codec:
    """Register a named pipeline composing already registered stages.

    ``stages`` apply left-to-right on encode; decode applies each
    stage's inverse right-to-left. Stages must be atomic codecs (no
    nesting — a nested cascade is just a longer stage list). The
    cascade gets its own :class:`CompressionStats` entry and behaves
    like any atomic codec from the caller's side.
    """
    if len(stages) < 2:
        raise CompressionError(
            f"cascade {name!r} needs at least 2 stages, got {len(stages)}"
        )
    resolved = []
    for stage in stages:
        raw = _RAW.get(stage)
        if raw is None:
            raise CompressionError(
                f"cascade {name!r}: unknown stage {stage!r}; available: "
                f"{', '.join(available_codecs())}"
            )
        if _CODECS[stage].stages:
            raise CompressionError(
                f"cascade {name!r}: stage {stage!r} is itself a cascade; "
                "list its stages directly"
            )
        resolved.append(raw)

    def cascade_compress(data: bytes) -> bytes:
        for encode_fn, __ in resolved:
            data = encode_fn(data)
        return data

    def cascade_decompress(data: bytes) -> bytes:
        for __, decode_fn in reversed(resolved):
            data = decode_fn(data)
        return data

    return _register(
        name, cascade_compress, cascade_decompress, tuple(stages)
    )


_register("none", _identity, _identity)
_register("zippy", zippy_compress, zippy_decompress)
_register("lzo", lzo_compress, lzo_decompress)
_register("huffman", huffman_compress, huffman_decompress)
_register("rle", rle_encode_bytes, rle_decode_bytes)
_register("delta", delta_encode_bytes, delta_decode_bytes)
_register("varint", wordpack_encode_bytes, wordpack_decode_bytes)
_register("dict", bytedict_encode_bytes, bytedict_decode_bytes)

#: The built-in pipelines the encoding advisor scores. ``zippy+huffman``
#: predates the cascade layer (PR 5 registered it as a hand-rolled
#: composite); expressing it as a cascade keeps its bytes identical.
DEFAULT_CASCADES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("zippy+huffman", ("zippy", "huffman")),
    ("delta+varint", ("delta", "varint")),
    ("delta+rle", ("delta", "rle")),
    ("delta+zippy", ("delta", "zippy")),
    ("rle+zippy", ("rle", "zippy")),
    ("dict+rle+varint", ("dict", "rle", "varint")),
)

for _name, _stages in DEFAULT_CASCADES:
    register_cascade(_name, _stages)


def available_codecs() -> list[str]:
    """Names of all registered codecs (atomic and cascades)."""
    return sorted(_CODECS)


def cascade_stages(name: str) -> tuple[str, ...]:
    """The named codec's stage list (empty for atomic codecs)."""
    return get_codec(name).stages


def get_codec(name: str) -> Codec:
    """Return the codec registered under ``name``.

    Raises :class:`~repro.errors.CompressionError` for unknown names.
    """
    try:
        return _CODECS[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        ) from None


def compress(name: str, data: bytes) -> bytes:
    """Compress ``data`` with the named codec."""
    return get_codec(name).compress(data)


def decompress(name: str, data: bytes) -> bytes:
    """Decompress ``data`` with the named codec."""
    return get_codec(name).decompress(data)


def compression_stats(name: str) -> CompressionStats:
    """The live :class:`CompressionStats` for the named codec."""
    get_codec(name)  # raise the usual error for unknown names
    return _STATS[name]


def all_compression_stats() -> dict[str, CompressionStats]:
    """Name -> live stats for every registered codec, sorted by name."""
    return {name: _STATS[name] for name in available_codecs()}


def reset_compression_stats() -> None:
    """Zero every codec's stats (the monitoring counters are unaffected;
    reset those via :func:`repro.monitoring.counters.reset`)."""
    for name, stats in _STATS.items():
        # Update in place: Codec.stats references stay live.
        stats.__dict__.update(CompressionStats(name=name).__dict__)
