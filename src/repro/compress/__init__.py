"""Compression codecs used by the column-store.

The paper compresses its encodings with Google's Zippy (released as
Snappy) and evaluates ZLIB/LZO variants in Section 5. This package
provides from-scratch, pure-Python equivalents:

- :mod:`repro.compress.zippy` -- an LZ77 byte codec with Snappy-style
  literal/copy tags (the workhorse codec).
- :mod:`repro.compress.lzo_like` -- an LZ77 variant with lazy matching
  and a larger window: ~10% better ratio, cheap decompression
  (the "variant of LZO" chosen for production in Section 5).
- :mod:`repro.compress.huffman` -- canonical Huffman coding; stacked on
  zippy it plays the role of "ZLIB with additional Huffman coding".
- :mod:`repro.compress.rle` -- run-length encodings, including the
  simplified bit-column RLE of Figure 3.

All codecs round-trip arbitrary ``bytes`` and are registered in
:mod:`repro.compress.registry` under stable names. Hot paths are numpy
bulk kernels, byte-identical to the scalar implementations frozen in
``tests/compress_oracle.py``; registry-level calls accumulate
per-codec :class:`~repro.compress.registry.CompressionStats` mirrored
into :data:`repro.monitoring.counters`.
"""

from repro.compress.huffman import huffman_compress, huffman_decompress
from repro.compress.lzo_like import lzo_compress, lzo_decompress
from repro.compress.registry import (
    CompressionStats,
    available_codecs,
    compress,
    compression_stats,
    decompress,
    get_codec,
)
from repro.compress.rle import (
    bit_rle_counter_count,
    rle_decode_bytes,
    rle_encode_bytes,
)
from repro.compress.zippy import zippy_compress, zippy_decompress

__all__ = [
    "CompressionStats",
    "available_codecs",
    "bit_rle_counter_count",
    "compress",
    "compression_stats",
    "decompress",
    "get_codec",
    "huffman_compress",
    "huffman_decompress",
    "lzo_compress",
    "lzo_decompress",
    "rle_decode_bytes",
    "rle_encode_bytes",
    "zippy_compress",
    "zippy_decompress",
]
