"""The compression-kernel benchmark: frozen scalar oracles vs numpy kernels.

One reusable implementation behind both surfaces that run it:

- ``repro bench compress`` (the CLI) for ad-hoc runs, and
- ``benchmarks/bench_compress_kernels.py``, which records the repo's
  perf trajectory point (``BENCH_PR5.json``) so codec regressions are
  visible PR over PR.

Each codec is measured against its frozen scalar twin in
:mod:`repro.compress.reference` on a corpus that plays to its role in
the store: a zigzag-varint value stream for the bulk varint kernels, a
run-heavy byte buffer for RLE, serialized PDS2 store bytes for the LZ
codecs (Zippy, LZO), and skewed text for Huffman. Byte identity and
round-trips are checked on every run — speed without identical output
is a bug, not a result.

The Huffman corpus is deliberately small (``huffman_bytes``): the
frozen scalar encoder accumulates its bitstream in one big int and is
accidentally quadratic, so large corpora time the oracle's pathology,
not the codec.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compress import reference
from repro.compress.registry import (
    all_compression_stats,
    get_codec,
    reset_compression_stats,
)
from repro.compress.varint import decode_zigzag_stream, encode_zigzag_array
from repro.core.datastore import DataStore, DataStoreOptions
from repro.storage.serde import save_store
from repro.workload.generator import LogsConfig, generate_query_logs


@dataclass(frozen=True)
class CompressBenchConfig:
    """Knobs for one compression-benchmark run."""

    rows: int = 200_000
    repeats: int = 3
    seed: int = 2012
    #: LZ corpus cap: serialized store bytes, sliced to keep the scalar
    #: oracles' runtime bounded.
    lz_bytes: int = 1 << 20
    #: Huffman corpus cap — the scalar oracle encoder is quadratic.
    huffman_bytes: int = 1 << 17
    #: Rows in the store whose serialization feeds the LZ codecs.
    store_rows: int = 24_000
    #: Longest run in the RLE corpus.
    max_run: int = 24


def _best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for __ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- corpora -----------------------------------------------------------------


def _varint_corpus(config: CompressBenchConfig) -> np.ndarray:
    """``rows`` int64 values: mostly small deltas, a tail of big jumps."""
    rng = np.random.default_rng(config.seed)
    small = rng.integers(-(1 << 7), 1 << 7, size=config.rows)
    mid = rng.integers(-(1 << 20), 1 << 20, size=config.rows)
    big = rng.integers(-(1 << 40), 1 << 40, size=config.rows)
    roll = rng.random(config.rows)
    return np.where(
        roll < 0.70, small, np.where(roll < 0.95, mid, big)
    ).astype(np.int64)


def _run_heavy_corpus(config: CompressBenchConfig) -> bytes:
    """``rows`` bytes of few-symbol runs, lengths 1..``max_run``."""
    rng = np.random.default_rng(config.seed + 1)
    n_runs = 2 * config.rows // max(1, config.max_run) + 16
    lengths = rng.integers(1, config.max_run + 1, size=n_runs)
    symbols = rng.integers(0, 8, size=n_runs).astype(np.uint8)
    data = np.repeat(symbols, lengths)
    return data[: config.rows].tobytes()


def _store_corpus(config: CompressBenchConfig) -> bytes:
    """Serialized PDS2 store bytes — the LZ codecs' real workload."""
    table = generate_query_logs(
        LogsConfig(
            n_rows=config.store_rows,
            n_days=min(92, max(14, config.store_rows // 4000)),
            n_teams=min(40, max(8, config.store_rows // 3000)),
            seed=config.seed,
        )
    )
    store = DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=max(256, config.store_rows // 24),
            reorder_rows=True,
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "store.pds")
        save_store(store, path)
        with open(path, "rb") as handle:
            return handle.read(config.lz_bytes)


def _text_corpus(config: CompressBenchConfig) -> bytes:
    """Skewed word soup: a Huffman-friendly byte-frequency profile."""
    words = [
        b"select", b"count", b"from", b"logs", b"where", b"country",
        b"group", b"by", b"table_name", b"latency", b"timestamp", b"and",
    ]
    rng = np.random.default_rng(config.seed + 2)
    weights = 1.0 / np.arange(1, len(words) + 1)
    picks = rng.choice(len(words), size=config.huffman_bytes // 4,
                       p=weights / weights.sum())
    return b" ".join(words[int(i)] for i in picks)[: config.huffman_bytes]


# -- the run ----------------------------------------------------------------


def _entry(
    raw_bytes: int,
    encoded_bytes: int,
    times: dict[str, float],
    byte_identical: bool,
    round_trip: bool,
) -> dict[str, Any]:
    kernel_encode = times["kernel_encode_seconds"]
    kernel_decode = times["kernel_decode_seconds"]
    return {
        "raw_bytes": raw_bytes,
        "encoded_bytes": encoded_bytes,
        "ratio": raw_bytes / encoded_bytes if encoded_bytes else 0.0,
        **times,
        "encode_speedup": (
            times["scalar_encode_seconds"] / kernel_encode
            if kernel_encode > 0
            else 0.0
        ),
        "decode_speedup": (
            times["scalar_decode_seconds"] / kernel_decode
            if kernel_decode > 0
            else 0.0
        ),
        "encode_mb_per_s": (
            raw_bytes / kernel_encode / (1 << 20) if kernel_encode > 0 else 0.0
        ),
        "decode_mb_per_s": (
            raw_bytes / kernel_decode / (1 << 20) if kernel_decode > 0 else 0.0
        ),
        "byte_identical": byte_identical,
        "round_trip": round_trip,
    }


def _scalar_zigzag_encode(values: np.ndarray) -> bytes:
    return b"".join(reference.encode_zigzag(int(v)) for v in values.tolist())


def _scalar_zigzag_decode(blob: bytes, count: int) -> list[int]:
    out: list[int] = []
    pos = 0
    for __ in range(count):
        value, pos = reference.decode_zigzag(blob, pos)
        out.append(value)
    return out


def _bench_varint(config: CompressBenchConfig) -> dict[str, Any]:
    values = _varint_corpus(config)
    kernel_blob = encode_zigzag_array(values)
    scalar_blob = _scalar_zigzag_encode(values)
    decoded, consumed = decode_zigzag_stream(kernel_blob, values.size, 0)
    times = {
        "scalar_encode_seconds": _best_seconds(
            lambda: _scalar_zigzag_encode(values), config.repeats
        ),
        "kernel_encode_seconds": _best_seconds(
            lambda: encode_zigzag_array(values), config.repeats
        ),
        "scalar_decode_seconds": _best_seconds(
            lambda: _scalar_zigzag_decode(kernel_blob, values.size),
            config.repeats,
        ),
        "kernel_decode_seconds": _best_seconds(
            lambda: decode_zigzag_stream(kernel_blob, values.size, 0),
            config.repeats,
        ),
    }
    return _entry(
        raw_bytes=values.size * 8,
        encoded_bytes=len(kernel_blob),
        times=times,
        byte_identical=kernel_blob == scalar_blob,
        round_trip=(
            consumed == len(kernel_blob) and np.array_equal(decoded, values)
        ),
    )


def _bench_codec(
    name: str,
    raw: bytes,
    scalar_encode: Callable[[bytes], bytes],
    scalar_decode: Callable[[bytes], bytes],
    repeats: int,
) -> dict[str, Any]:
    codec = get_codec(name)
    kernel_blob = codec.compress(raw)
    scalar_blob = scalar_encode(raw)
    times = {
        "scalar_encode_seconds": _best_seconds(
            lambda: scalar_encode(raw), repeats
        ),
        "kernel_encode_seconds": _best_seconds(
            lambda: codec.compress(raw), repeats
        ),
        "scalar_decode_seconds": _best_seconds(
            lambda: scalar_decode(kernel_blob), repeats
        ),
        "kernel_decode_seconds": _best_seconds(
            lambda: codec.decompress(kernel_blob), repeats
        ),
    }
    return _entry(
        raw_bytes=len(raw),
        encoded_bytes=len(kernel_blob),
        times=times,
        byte_identical=kernel_blob == scalar_blob,
        round_trip=codec.decompress(kernel_blob) == raw,
    )


def run_compress_bench(
    config: CompressBenchConfig | None = None,
) -> dict[str, Any]:
    """Run the codec bench; returns the JSON-ready trajectory point."""
    config = config or CompressBenchConfig()
    reset_compression_stats()

    codecs: dict[str, dict[str, Any]] = {
        "varint-stream": _bench_varint(config)
    }
    store_blob = _store_corpus(config)
    specs = [
        (
            "rle",
            _run_heavy_corpus(config),
            reference.rle_encode_bytes,
            reference.rle_decode_bytes,
        ),
        (
            "zippy",
            store_blob,
            reference.zippy_compress,
            reference.zippy_decompress,
        ),
        ("lzo", store_blob, reference.lzo_compress, reference.lzo_decompress),
        (
            "huffman",
            _text_corpus(config),
            reference.huffman_compress,
            reference.huffman_decompress,
        ),
    ]
    for name, raw, scalar_encode, scalar_decode in specs:
        codecs[name] = _bench_codec(
            name, raw, scalar_encode, scalar_decode, config.repeats
        )

    return {
        "bench": "compress",
        "rows": config.rows,
        "repeats": config.repeats,
        "lz_corpus_bytes": len(store_blob),
        "huffman_corpus_bytes": codecs["huffman"]["raw_bytes"],
        "codecs": codecs,
        "codec_stats": {
            name: stats.as_dict()
            for name, stats in sorted(all_compression_stats().items())
            if stats.encode_calls or stats.decode_calls
        },
    }


def render_compress_report(report: dict[str, Any]) -> list[str]:
    """Human-readable summary for a :func:`run_compress_bench` result."""
    lines = [
        f"compress bench — {report['rows']} rows/bytes per corpus, "
        f"best of {report['repeats']}",
        "",
        f"{'codec':<14} {'raw':>9} {'ratio':>6} "
        f"{'enc MB/s':>9} {'dec MB/s':>9} {'enc x':>7} {'dec x':>7}  checks",
    ]
    for name, entry in report["codecs"].items():
        checks = []
        checks.append("bytes=" + ("ok" if entry["byte_identical"] else "BUG"))
        checks.append("rt=" + ("ok" if entry["round_trip"] else "BUG"))
        lines.append(
            f"{name:<14} {entry['raw_bytes']:>9} {entry['ratio']:>6.2f} "
            f"{entry['encode_mb_per_s']:>9.1f} "
            f"{entry['decode_mb_per_s']:>9.1f} "
            f"{entry['encode_speedup']:>6.1f}x "
            f"{entry['decode_speedup']:>6.1f}x  {' '.join(checks)}"
        )
    lines.append("")
    lines.append("per-codec registry stats (this run):")
    for name, stats in report["codec_stats"].items():
        lines.append(
            f"  {name:<10} encode {stats['encode_calls']:>3} calls "
            f"{stats['encode_bytes_in']:>9} B in -> "
            f"{stats['encode_bytes_out']:>9} B out, decode "
            f"{stats['decode_calls']:>3} calls, "
            f"ratio {stats['compression_ratio']:.2f}"
        )
    return lines
