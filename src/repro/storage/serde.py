"""Persisting a DataStore to disk and loading it back.

The paper's production system keeps data in memory but loads it from
disk on first access ("the data is loaded dynamically to a machine the
first time it receives a query for it"). This module provides that disk
representation: a single self-describing file holding every original
field's global dictionary and per-chunk (chunk-dictionary, elements)
pairs, exactly as encoded in memory — the encodings are "ready to use
without any preprocessing", so loading is a structural parse, not a
re-import.

Virtual fields are intentionally not persisted: they re-materialize
lazily from the originals (Section 5's "computed once on first
access"), and their canonical-SQL keys are environment-independent.

File layout (format 2)::

    magic 'PDS2'
    crc32(everything after this word)  # 4 bytes little-endian
    varint(header_len) header-JSON     # options, schema, per-field meta
    per field, in header order, one *section*:
        varint(dict_payload_len) dict_payload
        per chunk:
            chunk-dict: varint(n) then n delta varints
            elements:   tag(1) varint(n_rows) varint(payload_len) payload

When the encoding advisor chose a codec for a field (its header meta
carries ``"codec"``), that field's section is instead stored as
``varint(compressed_len) compressed_section`` where
``compressed_section`` is the section above run through the named
registry codec; the meta also records the advisor's ``codec_choice``
(predicted vs. actual ratio, sample size, scoring mode) for
``repro describe`` and FSCK012. Fields without a recorded codec are
byte-identical to files written before the advisor existed.

The checksum makes corruption detection exact: any bit flip or
truncation after the magic word fails the CRC before parsing begins,
so :func:`load_store` raises :class:`~repro.errors.StorageError`
instead of returning silently wrong data. Every parse failure — bad
magic, checksum mismatch, truncated payloads, malformed headers —
surfaces as ``StorageError`` so callers (and ``repro fsck``) can rely
on one exception family.

The per-piece codecs (:func:`encode_chunk_dict`,
:func:`encode_elements`, :func:`encode_dictionary` and their decode
twins) are public: :mod:`repro.analysis.fsck` uses them to round-trip
every chunk of a live store when verifying the invariant catalog.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Sequence

import numpy as np

from repro.compress.registry import compress, decompress
from repro.compress.varint import (
    MAX_VARINT_LEN,
    decode_varint,
    decode_varint_stream,
    encode_varint,
    encode_varint_array,
    encode_varint_spans,
    gather_varints,
)
from repro.core.datastore import DataStore, DataStoreOptions, FieldStore
from repro.errors import CompressionError, StorageError
from repro.storage.bitset import BitSet
from repro.storage.chunk import ChunkDictIndex, ColumnChunk
from repro.storage.dictionary import (
    Dictionary,
    NumericDictionary,
    SortedStringDictionary,
)
from repro.storage.elements import (
    BitsetElements,
    ConstantElements,
    Elements,
    PackedElements,
)
from repro.storage.trie import TrieDictionary

_MAGIC = b"PDS2"

_ELEMENT_TAGS = {"constant": 0, "bitset": 1, "packed": 2}
_TAG_TO_NAME = {tag: name for name, tag in _ELEMENT_TAGS.items()}


# -- element payloads -----------------------------------------------------------


def encode_elements(elements: Elements) -> bytes:
    """Serialize one elements array (tag + row count + payload)."""
    name = elements.encoding_name
    out = bytearray([_ELEMENT_TAGS[name]])
    out += encode_varint(elements.n_rows)
    if isinstance(elements, PackedElements):
        out.append(elements.width)
        payload = elements.to_bytes()
    elif isinstance(elements, ConstantElements):
        out.append(0)
        payload = encode_varint(elements.chunk_id)
    else:
        out.append(0)
        payload = elements.to_bytes()
    out += encode_varint(len(payload))
    out += payload
    return bytes(out)


def decode_elements(data: bytes, pos: int) -> tuple[Elements, int]:
    """Parse one elements array; returns it and the next read position."""
    tag = data[pos]
    pos += 1
    n_rows, pos = decode_varint(data, pos)
    width = data[pos]
    pos += 1
    payload_len, pos = decode_varint(data, pos)
    if pos + payload_len > len(data):
        raise StorageError(
            f"elements payload truncated: need {payload_len} bytes, "
            f"{len(data) - pos} left"
        )
    payload = bytes(data[pos : pos + payload_len])
    pos += payload_len
    name = _TAG_TO_NAME.get(tag)
    if name == "constant":
        chunk_id, __ = decode_varint(payload, 0)
        return ConstantElements(n_rows, chunk_id), pos
    if name == "bitset":
        return BitsetElements(BitSet.from_bytes(payload, n_rows)), pos
    if name == "packed":
        dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32}.get(width)
        if dtype is None:
            raise StorageError(f"bad packed width {width} in store file")
        ids = np.frombuffer(payload, dtype=dtype)
        if ids.size != n_rows:
            raise StorageError(
                f"elements payload holds {ids.size} rows, header says {n_rows}"
            )
        return PackedElements(ids, width), pos
    raise StorageError(f"unknown elements tag {tag} in store file")


# -- chunk dictionaries -----------------------------------------------------------


def encode_chunk_dict(chunk_dict: np.ndarray) -> bytes:
    """Serialize a chunk-dictionary as delta varints.

    One bulk pass: ``np.diff`` for the deltas, then the vectorized
    varint encoder — byte-identical to encoding each delta with
    :func:`encode_varint` (which also means unsorted input still raises
    :class:`~repro.errors.CompressionError` on the negative delta).
    """
    head = encode_varint(int(chunk_dict.size))
    if not chunk_dict.size:
        return head
    deltas = np.diff(chunk_dict.astype(np.int64, copy=False), prepend=0)
    return head + encode_varint_array(deltas)


def encode_chunk_dicts(chunk_dicts: Sequence[np.ndarray]) -> list[bytes]:
    """:func:`encode_chunk_dict` of every dictionary of a field, at once.

    Sizes and per-chunk deltas of all the dictionaries form one value
    array (each size ahead of its chunk's deltas), encoded in one pass
    of the varint kernel and sliced at the chunk byte bounds — byte-
    identical to a call per chunk, and a descending dictionary still
    raises :class:`~repro.errors.CompressionError`.
    """
    if not chunk_dicts:
        return []
    sizes = np.fromiter(map(len, chunk_dicts), dtype=np.int64, count=len(chunk_dicts))
    gids = np.concatenate(chunk_dicts, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    deltas = np.diff(gids, prepend=0)
    firsts = starts[sizes > 0]
    deltas[firsts] = gids[firsts]
    encoded, offsets = encode_varint_spans(np.insert(deltas, starts, sizes))
    bounds = [*offsets[starts + np.arange(sizes.size)].tolist(), len(encoded)]
    return [encoded[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def decode_chunk_dict(data: bytes, pos: int) -> tuple[np.ndarray, int]:
    """Parse a chunk-dictionary; returns it and the next read position."""
    count, pos = decode_varint(data, pos)
    if not count:
        return np.empty(0, dtype=np.uint32), pos
    # Bound the kernel's terminator scan to this dictionary's bytes
    # (a varint is at most 10 bytes) — the store body continues after.
    window = memoryview(data)[pos : pos + 10 * count]
    deltas, consumed = decode_varint_stream(window, count, 0)
    pos += consumed
    if int(deltas.max()) > 0xFFFFFFFF:
        raise StorageError("chunk-dict delta beyond uint32 range")
    # deltas <= 2**32 and count <= len(data), so the uint64 sum is exact.
    gids = np.cumsum(deltas)
    if int(gids[-1]) > 0xFFFFFFFF:
        raise StorageError("chunk-dict global-id beyond uint32 range")
    return gids.astype(np.uint32), pos


# -- global dictionaries ------------------------------------------------------------


def dictionary_meta(dictionary: Dictionary) -> dict:
    """Header metadata needed to decode ``dictionary``'s payload."""
    meta = {"kind": dictionary.kind, "has_null": dictionary.has_null}
    if isinstance(dictionary, NumericDictionary):
        meta["n_values"] = dictionary._n_non_null
        meta["is_int"] = dictionary._is_int
        meta["optimized"] = dictionary._optimized
    elif isinstance(dictionary, TrieDictionary):
        meta["n_values"] = dictionary._n_non_null
    return meta


def encode_dictionary(dictionary: Dictionary) -> bytes:
    """Serialize a global dictionary's payload."""
    return dictionary.to_bytes()


def decode_dictionary(meta: dict, payload: bytes) -> Dictionary:
    """Rebuild a global dictionary from header meta + payload bytes."""
    kind = meta["kind"]
    has_null = meta["has_null"]
    if kind == "string":
        values = []
        pos = 0
        while pos < len(payload):
            length = int.from_bytes(payload[pos : pos + 4], "little")
            pos += 4
            if pos + length > len(payload):
                raise StorageError("string dictionary payload truncated")
            values.append(payload[pos : pos + length].decode("utf-8"))
            pos += length
        return SortedStringDictionary(values, has_null=has_null)
    if kind == "trie":
        return TrieDictionary(payload, meta["n_values"], has_null=has_null)
    if kind == "numeric":
        n = meta["n_values"]
        if meta.get("optimized") and n:
            base = int.from_bytes(payload[:8], "little", signed=True)
            deltas = np.frombuffer(payload[8:], dtype=_width_dtype(payload, n))
            values = deltas.astype(np.int64) + base
            return NumericDictionary(values, has_null=has_null, optimized=True)
        dtype = np.int64 if meta.get("is_int", True) else np.float64
        values = np.frombuffer(payload, dtype=dtype)
        if values.size != n:
            raise StorageError(
                f"numeric dictionary holds {values.size}, header says {n}"
            )
        return NumericDictionary(
            values.copy(), has_null=has_null, optimized=False
        )
    raise StorageError(f"cannot load dictionary kind {kind!r}")


def _width_dtype(payload: bytes, n: int) -> type:
    width = (len(payload) - 8) // max(n, 1)
    dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}.get(width)
    if dtype is None:
        raise StorageError(f"bad packed numeric width {width}")
    return dtype


# -- checksums ---------------------------------------------------------------------


def crc32_tag(body: bytes) -> bytes:
    """The PDS2 whole-body checksum: CRC32 as 4 little-endian bytes.

    Public because corruption detection is not only a file concern —
    :mod:`repro.distributed.faults` seals simulated sub-query responses
    with the same tag so a corrupted response fails verification before
    its partial is merged.
    """
    return zlib.crc32(body).to_bytes(4, "little")


def verify_crc32_tag(tag: bytes, body: bytes) -> bool:
    """True when ``body`` hashes to the 4-byte ``tag`` (PDS2 layout)."""
    return crc32_tag(body) == tag


# -- whole store ------------------------------------------------------------------------


def options_to_dict(options: DataStoreOptions) -> dict:
    """The encoding options, as the JSON header mapping all formats share.

    Public because the chunk arena (:mod:`repro.storage.arena`) embeds
    the same options block in its own header; one codec keeps the two
    formats from drifting. The runtime knobs (executor, workers, cache
    policy and capacity, degrade) are the loading process's choice, not
    the file's, so they are not written. ``cache_chunk_results`` is:
    nothing turns the chunk cache off after a load, so a store saved
    uncached (``parallel_scan``'s) reopens uncached.
    """
    return {
        "table_name": options.table_name,
        "partition_fields": options.partition_fields,
        "max_chunk_rows": options.max_chunk_rows,
        "reorder_rows": options.reorder_rows,
        "optimized_columns": options.optimized_columns,
        "optimized_dicts": options.optimized_dicts,
        "cache_chunk_results": options.cache_chunk_results,
        "codec": options.codec,
        "advisor_mode": options.advisor_mode,
    }


def options_from_dict(raw_options: dict) -> DataStoreOptions:
    """Inverse of :func:`options_to_dict`, tolerant of older headers.

    Keys an older writer recorded that are no longer options of the
    file (the runtime and supervision knobs) are ignored.
    """
    partition = raw_options["partition_fields"]
    return DataStoreOptions(
        table_name=raw_options["table_name"],
        partition_fields=tuple(partition) if partition else None,
        max_chunk_rows=raw_options["max_chunk_rows"],
        reorder_rows=raw_options["reorder_rows"],
        optimized_columns=raw_options["optimized_columns"],
        optimized_dicts=raw_options["optimized_dicts"],
        cache_chunk_results=raw_options["cache_chunk_results"],
        # Advisor knobs: absent in files written before PR 9.
        codec=raw_options.get("codec"),
        advisor_mode=raw_options.get("advisor_mode", "stats"),
    )


def encode_field_section(field: FieldStore) -> bytes:
    """One field's complete body section (dictionary + all chunks).

    This is the unit the encoding advisor samples, the unit the
    per-field codec compresses, and — for codec-less fields — exactly
    the bytes :func:`save_store` has always written.
    """
    dict_payload = encode_dictionary(field.dictionary)
    section = bytearray(encode_varint(len(dict_payload)))
    section += dict_payload
    chunk_dicts = encode_chunk_dicts([chunk.chunk_dict for chunk in field.chunks])
    for chunk, chunk_dict in zip(field.chunks, chunk_dicts):
        section += chunk_dict
        section += encode_elements(chunk.elements)
    return bytes(section)


def save_store(store: DataStore, path: str) -> int:
    """Write all original fields of ``store`` to ``path``.

    Returns the file size in bytes.
    """
    field_names = [
        name for name, field in store.fields.items() if not field.virtual
    ]
    field_metas = []
    sections = []
    for name in field_names:
        field = store.field(name)
        meta = {
            "name": name,
            "dictionary": dictionary_meta(field.dictionary),
        }
        section = encode_field_section(field)
        if field.codec is not None:
            compressed = compress(field.codec, section)
            meta["codec"] = field.codec
            choice = dict(field.codec_choice or {})
            choice.pop("scores", None)  # too bulky for a file header
            choice["actual_ratio"] = (
                len(section) / len(compressed) if compressed else 0.0
            )
            meta["codec_choice"] = choice
            section = encode_varint(len(compressed)) + compressed
        field_metas.append(meta)
        sections.append(section)
    header = {
        "options": options_to_dict(store.options),
        "n_rows": store.n_rows,
        "chunk_row_counts": store.chunk_row_counts,
        "fields": field_metas,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    pieces = [encode_varint(len(header_bytes)), header_bytes, *sections]
    # The checksum is folded piece by piece and the pieces written in
    # order behind it: the store's bytes are never joined in memory.
    checksum = 0
    for piece in pieces:
        checksum = zlib.crc32(piece, checksum)
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(checksum.to_bytes(4, "little"))
        for piece in pieces:
            handle.write(piece)
    return 8 + sum(map(len, pieces))


def load_store(path: str) -> DataStore:
    """Load a store written by :func:`save_store`.

    Raises :class:`~repro.errors.StorageError` on any corruption: bad
    magic, checksum mismatch, truncation, or malformed payloads.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    magic = data[:4]
    if magic != _MAGIC:
        raise StorageError(f"not a datastore file: magic {magic!r}")
    if len(data) < 8:
        raise StorageError("store file truncated before checksum")
    expected_crc = int.from_bytes(data[4:8], "little")
    actual_crc = zlib.crc32(memoryview(data)[8:])
    if actual_crc != expected_crc:
        raise StorageError(
            f"store file checksum mismatch: header says "
            f"{expected_crc:#010x}, contents hash to {actual_crc:#010x} "
            "— the file is corrupt or truncated"
        )
    try:
        return _parse_store_body(data, 8)
    except (
        IndexError,
        ValueError,
        KeyError,
        UnicodeDecodeError,
        CompressionError,
    ) as error:
        raise StorageError(
            f"store file is structurally corrupt: {type(error).__name__}: "
            f"{error}"
        ) from error


def _parse_store_body(data: bytes, pos: int) -> DataStore:
    header_len, pos = decode_varint(data, pos)
    if pos + header_len > len(data):
        raise StorageError("store header truncated")
    header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    pos += header_len

    options = options_from_dict(header["options"])
    chunk_row_counts = list(header["chunk_row_counts"])

    fields: dict[str, FieldStore] = {}
    for field_meta in header["fields"]:
        name = field_meta["name"]
        codec_name = field_meta.get("codec")
        if codec_name is None:
            field, pos = _parse_field_section(
                data, pos, field_meta, chunk_row_counts
            )
        else:
            blob_len, pos = decode_varint(data, pos)
            if pos + blob_len > len(data):
                raise StorageError(
                    f"field {name!r}: compressed section truncated"
                )
            section = decompress(codec_name, bytes(data[pos : pos + blob_len]))
            pos += blob_len
            field, end = _parse_field_section(
                section, 0, field_meta, chunk_row_counts
            )
            if end != len(section):
                raise StorageError(
                    f"field {name!r}: {len(section) - end} stray byte(s) "
                    "after the decompressed section"
                )
            field.codec = codec_name
            field.codec_choice = field_meta.get("codec_choice")
        fields[name] = field
    return DataStore(options, header["n_rows"], chunk_row_counts, fields)


#: Bytes per terminator scan of the field decoder: enough to cover tens
#: of small chunks in one numpy pass, and a bound on what a pass
#: materialises however large the file is.
_SCAN_BLOCK_BYTES = 1 << 16


class _ChunkDictReader:
    """Decodes a field's chunk-dictionaries a scanned block at a time.

    In a varint stream the top bit alone marks where values end, so one
    comparison over a block of the buffer locates the varints of every
    dictionary that lies in it. :meth:`skip` only records where a
    dictionary's varints are; the dictionaries of a block are decoded,
    summed and validated together when the walk leaves the block — the
    mirror of :func:`encode_chunk_dicts`, a handful of numpy passes per
    block instead of per chunk, and never more than a block's worth of
    index arrays alive.
    """

    def __init__(self, data: bytes, name: str) -> None:
        self._name = name
        self._bytes = np.frombuffer(data, dtype=np.uint8)
        self._ends = np.empty(0, dtype=np.int64)  # of the scanned block
        self._heads: list[int] = []  # first delta of each pending dictionary
        self._spans: list[np.ndarray] = []  # where its varints end
        self._decoded: list[np.ndarray] = []

    def skip(self, pos: int, count: int) -> int:
        """Note the dictionary of ``count`` deltas at ``pos``; where it ends."""
        at = int(self._ends.searchsorted(pos))
        if at + count > self._ends.size:
            # Rescan from ``pos``: a block, or what ``count`` ten-byte
            # varints span if that is more.
            self._decode_pending()
            stop = pos + max(_SCAN_BLOCK_BYTES, MAX_VARINT_LEN * count)
            self._ends = np.flatnonzero(self._bytes[pos:stop] < 0x80) + pos
            at = 0
            if count > self._ends.size:
                problem = (
                    "a varint longer than ten bytes"
                    if stop < self._bytes.size
                    else "delta stream truncated"
                )
                raise StorageError(
                    f"field {self._name!r}: chunk-dict of {count} entries "
                    f"at offset {pos}: {problem}"
                )
        span = self._ends[at : at + count]
        self._heads.append(pos)
        self._spans.append(span)
        return int(span[-1]) + 1

    def _decode_pending(self) -> None:
        if not self._heads:
            return
        name = self._name
        sizes = np.fromiter(map(len, self._spans), np.int64, len(self._spans))
        ends = np.concatenate(self._spans)
        # A varint starts where the one before it ended; a dictionary's
        # first starts where the walk found it.
        first = np.cumsum(sizes) - sizes
        starts = np.empty_like(ends)
        starts[1:] = ends[:-1] + 1
        starts[first] = self._heads
        self._heads, self._spans = [], []
        lengths = ends - starts + 1
        if int(lengths.max()) > MAX_VARINT_LEN:
            raise StorageError(
                f"field {name!r}: chunk-dict varint longer than ten bytes"
            )
        deltas = gather_varints(self._bytes, starts, lengths)
        if int(deltas.max()) > 0xFFFFFFFF:
            raise StorageError(
                f"field {name!r}: chunk-dict delta beyond uint32 range"
            )
        ascending = deltas > 0
        ascending[first] = True
        if not ascending.all():
            raise StorageError(
                f"field {name!r}: chunk dictionary must be strictly ascending"
            )
        # Deltas are <= 2**32 and fewer than the block has bytes, so the
        # uint64 running sum is exact; each dictionary restarts from zero.
        running = np.cumsum(deltas)
        gids = running - np.repeat(running[first] - deltas[first], sizes)
        if int(gids.max()) > 0xFFFFFFFF:
            raise StorageError(
                f"field {name!r}: chunk-dict global-id beyond uint32 range"
            )
        self._decoded.append(gids.astype(np.uint32))

    def global_ids(self) -> np.ndarray:
        """Every dictionary noted so far, decoded and concatenated."""
        self._decode_pending()
        return np.concatenate([*self._decoded, np.empty(0, dtype=np.uint32)])


def _parse_field_section(
    data: bytes, pos: int, field_meta: dict, chunk_row_counts: list[int]
) -> tuple[FieldStore, int]:
    """Parse one field's section starting at ``pos``.

    One walk with scalar header reads parses every elements array and
    steps over every chunk-dictionary, which :class:`_ChunkDictReader`
    decodes in bulk. The chunks are slices of one uint32 array, which
    with the dictionary sizes is the field's :class:`ChunkDictIndex`
    already.
    """
    name = field_meta["name"]
    dict_len, pos = decode_varint(data, pos)
    if pos + dict_len > len(data):
        raise StorageError(f"field {name!r}: dictionary payload truncated")
    dictionary = decode_dictionary(
        field_meta["dictionary"], bytes(data[pos : pos + dict_len])
    )
    pos += dict_len
    reader = _ChunkDictReader(data, name)
    bounds = [0]
    all_elements = []
    for expected_rows in chunk_row_counts:
        count, pos = decode_varint(data, pos)
        bounds.append(bounds[-1] + count)
        if count:
            pos = reader.skip(pos, count)
        elements, pos = decode_elements(data, pos)
        if elements.n_rows != expected_rows:
            raise StorageError(
                f"field {name!r}: chunk has {elements.n_rows} rows, "
                f"store header says {expected_rows}"
            )
        all_elements.append(elements)
    gids = reader.global_ids()
    chunks = [
        ColumnChunk.from_trusted_parts(gids[low:high], elements)
        for low, high, elements in zip(bounds, bounds[1:], all_elements)
    ]
    index = ChunkDictIndex.from_csr(gids, np.diff(bounds))
    return FieldStore(name, dictionary, chunks, chunk_dict_index=index), pos
