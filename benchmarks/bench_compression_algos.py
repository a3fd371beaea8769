"""Section 5 "Other Compression Algorithms".

Paper: besides Zippy, the authors "tested 4 other commodity compression
algorithms, including variants provided by the standard libraries ZLIB
and LZO. For ZLIB we tested settings with and without additional
Huffman coding. The latter gave a perhaps surprising gain of additional
20-30% in experiments, but came with the expected cost of being up to
an order of magnitude slower. [...] we chose a variant of LZO for
production, since it gave an about 10% better compression ratio [than
Zippy] and was up to twice as fast when decompressing."

Shape asserted on the store's own chunk payloads:

- adding Huffman on top of the LZ stage improves the ratio by a
  further 10+% and costs several times the CPU. Here the cost shows on
  the decode side: the Huffman encoder is one table gather plus
  ``np.packbits``, while decoding walks sequential symbol boundaries;
- the LZO-like codec compresses at least as well as Zippy.
"""

from __future__ import annotations

import time

from benchmarks.helpers import emit_report, fmt_bytes
from repro.compress.registry import get_codec


def _payloads(store) -> list[bytes]:
    """One buffer per field: all chunk payloads plus the dictionary.

    Codecs are compared on field-sized buffers (as in the paper's
    column compression), not per tiny chunk — per-chunk framing would
    drown Huffman's fixed 256-byte code table.
    """
    payloads = []
    for name in ("country", "table_name", "latency", "user_name"):
        field = store.field(name)
        buffer = b"".join(chunk.to_bytes() for chunk in field.chunks)
        payloads.append(buffer + field.dictionary.to_bytes())
    return payloads


def test_codec_comparison(benchmark, chunks_store):
    payloads = _payloads(chunks_store)
    raw = sum(len(p) for p in payloads)

    measured = {}
    for codec_name in ("zippy", "lzo", "zippy+huffman"):
        codec = get_codec(codec_name)
        started = time.perf_counter()
        blobs = [codec.compress(p) for p in payloads]
        compress_seconds = time.perf_counter() - started
        started = time.perf_counter()
        for blob, original in zip(blobs, payloads):
            assert codec.decompress(blob) == original
        decompress_seconds = time.perf_counter() - started
        measured[codec_name] = (
            sum(len(b) for b in blobs),
            compress_seconds,
            decompress_seconds,
        )

    zippy_codec = get_codec("zippy")
    benchmark(lambda: zippy_codec.compress(payloads[0]))

    lines = [
        "Section 5 codecs — compressing the store's chunk payloads "
        f"({len(payloads)} payloads, {fmt_bytes(raw).strip()} raw)",
        "",
        f"{'codec':<15} {'size':>12} {'ratio':>7} {'comp s':>8} {'decomp s':>9}",
    ]
    for codec_name, (size, cs, ds) in measured.items():
        lines.append(
            f"{codec_name:<15} {fmt_bytes(size):>12} {raw / size:>6.2f}x "
            f"{cs:>8.3f} {ds:>9.3f}"
        )
    emit_report("compression_algos", lines)

    zippy_size, __, zippy_ds = measured["zippy"]
    lzo_size, __, __ = measured["lzo"]
    huff_size, __, huff_ds = measured["zippy+huffman"]
    # Huffman on top gains extra ratio but decodes several times slower.
    assert huff_size < zippy_size * 0.9
    assert huff_ds > zippy_ds * 2
    # The LZO-like variant compresses at least as well as zippy.
    assert lzo_size <= zippy_size * 1.01
