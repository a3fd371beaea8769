"""The shared-memory chunk arena — decoded columns in one flat buffer.

The paper's engine fans partial aggregations out over thousands of
workers; our :class:`~repro.core.executor.ProcessExecutor` mirrors that
across OS processes. Processes share nothing by default, and pickling a
column store per worker would copy the very arrays the executor exists
to scan. The arena solves this the way Rozenberg's columnar-computation
model suggests (PAPERS.md): materialize the *decoded* columnar state —
element arrays, chunk dictionaries, dictionary value buffers — once
into a page-aligned flat buffer, and hand every reader zero-copy
``np.frombuffer`` views into it.

Layout (format ``PDA1``)::

    preamble: magic 'PDA1' + u32 header_len + u64 total_size  (16 bytes)
    header:   JSON — store options, chunking, per-field buffer table
    data:     page-aligned region of 64-byte-aligned buffers

The buffer table is laid out from the PDS2 vocabulary
(:mod:`repro.storage.serde` metas describe dictionaries; element
encodings keep their PDS2 tags), but payloads are stored *decoded* at
fixed width — raw ``uint8/16/32`` element ids, raw ``uint32`` chunk
dictionaries, raw ``int64/float64`` numeric dictionary values — so a
reader attaches by wrapping offsets, never by parsing varints. Each
field's section starts on a 4096-byte page boundary and every buffer on
a 64-byte boundary (cache-line aligned vector loads; page-granular
residency for the mmap cold store).

Three backings share the format:

- ``shm``  — ``multiprocessing.shared_memory``; attachable by name,
  the transport under ``--executor process``.
- ``mmap`` — a file-backed map; the same bytes double as a cold store
  (:func:`save_arena` / :func:`load_arena_store`): chunks page in on
  access instead of staying resident.
- ``local``— an anonymous in-process buffer for verification
  (``repro fsck`` FSCK011) and tests; it creates no kernel object.

Read-only contract: every array handed out by an attach is a
``np.frombuffer`` view with ``writeable`` cleared, so an in-place
write is a runtime ``ValueError`` at the offending line; the test
suite's sanitizer (``tests/sanitizer.py``) additionally hashes the
arena bytes around every fan-out, so a cross-process write fails tests
by attribute path.

Lifecycle: creating processes own their segments. ``close()`` releases
the local mapping, ``unlink()`` removes the kernel object (shm only —
an mmap arena is a file the caller keeps). Owners register in a
module-level table that an ``atexit`` hook drains, so no ``shm``
segment survives the interpreter even on crash-y test paths;
:meth:`repro.core.executor.ProcessExecutor.close` releases the arenas
it adopted eagerly.
"""

from __future__ import annotations

import atexit
import itertools
import json
import mmap
import os
import struct
import tempfile
import uuid
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.core.datastore import DataStore, FieldStore
from repro.errors import StorageError
from repro.monitoring import counters
from repro.storage.bitset import BitSet
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import Dictionary, NumericDictionary
from repro.storage.elements import (
    BitsetElements,
    ConstantElements,
    Elements,
    PackedElements,
)
from repro.storage.serde import (
    decode_dictionary,
    dictionary_meta,
    encode_dictionary,
    options_from_dict,
    options_to_dict,
)

_MAGIC = b"PDA1"
_PREAMBLE = struct.Struct("<4sIQ")  # magic, header_len, total_size

#: Every buffer starts on a cache-line boundary …
BUFFER_ALIGN = 64
#: … and every field section on a page boundary.
SECTION_ALIGN = 4096

#: All shm segments are named with this prefix — leak checks scan for it.
SEGMENT_PREFIX = "repro_arena_"

_PACKED_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32}

_arena_counter = itertools.count()

#: Owner arenas by segment identity, drained by the atexit hook.
_LIVE_ARENAS: dict[str, "ChunkArena"] = {}

#: Per-process attach cache: one DataStore per arena, shared by every
#: task a worker unpickles (virtual-field rematerialization then
#: happens once per worker, not once per task).
_ATTACHED_STORES: dict["ArenaHandle", DataStore] = {}


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _segment_name() -> str:
    return (
        f"{SEGMENT_PREFIX}{os.getpid()}_{next(_arena_counter)}_"
        f"{uuid.uuid4().hex[:8]}"
    )


def _ignore_tracker_registration(name: str, rtype: str) -> None:
    """Stand-in for ``resource_tracker.register`` during shm attach."""


@dataclass(frozen=True)
class ArenaHandle:
    """A picklable, hashable reference to an attachable arena.

    ``kind`` is ``"shm"`` (attach by segment name) or ``"mmap"``
    (attach by file path). ``local`` arenas are process-private and
    have no handle.
    """

    kind: str
    name: str

    @property
    def shareable(self) -> bool:
        """Whether another process can attach through this handle."""
        return self.kind in ("shm", "mmap")


# -- backings ---------------------------------------------------------------


class _ShmBacking:
    """A POSIX shared-memory segment (attachable by name)."""

    kind = "shm"

    def __init__(self, segment: shared_memory.SharedMemory, owner: bool) -> None:
        self._segment = segment
        self.name = segment.name
        self.owner = owner
        self.closed = False
        self.unlinked = False

    @classmethod
    def create(cls, size: int) -> "_ShmBacking":
        segment = shared_memory.SharedMemory(
            name=_segment_name(), create=True, size=size
        )
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "_ShmBacking":
        # Python 3.11 registers *attached* segments with the resource
        # tracker as if this process owned them (fixed by track=False
        # in 3.13). Forked workers share the creator's tracker, so the
        # spurious registrations would both strip the creator's
        # crash-cleanup entry on the first worker unregister and spam
        # KeyErrors on later ones; suppress registration entirely for
        # the attach instead.
        original_register = resource_tracker.register
        resource_tracker.register = _ignore_tracker_registration
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise StorageError(
                f"shared-memory arena {name!r} does not exist (unlinked?)"
            ) from None
        finally:
            resource_tracker.register = original_register
        return cls(segment, owner=False)

    @property
    def buffer(self) -> memoryview:
        return self._segment.buf

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._segment.close()
        except BufferError:
            # Live numpy views still reference the mapping; the map is
            # freed when the last view dies (mmap deallocation never
            # raises), and the *name* is what must not leak — unlink()
            # handles that independently. SharedMemory.__del__ would
            # retry this close and surface the BufferError as an
            # unraisable exception, so orphan the map to the GC
            # instead of leaving it on the segment.
            state = self._segment.__dict__
            self._orphaned_map = (state.pop("_mmap", None), state.pop("_buf", None))
            state["_mmap"] = None
            state["_buf"] = None
            fd = state.get("_fd", -1)
            if isinstance(fd, int) and fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
                state["_fd"] = -1

    def unlink(self) -> None:
        if self.unlinked or not self.owner:
            return
        self.unlinked = True
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass


class _MmapBacking:
    """A file-backed map — the arena as an on-disk cold store."""

    kind = "mmap"

    def __init__(self, path: str, handle: Any, mapped: mmap.mmap, owner: bool) -> None:
        self.path = path
        self.name = path
        self._handle = handle
        self._mmap = mapped
        self.owner = owner
        self.closed = False

    @classmethod
    def create(cls, path: str, size: int) -> "_MmapBacking":
        handle = open(path, "w+b")
        handle.truncate(size)
        mapped = mmap.mmap(handle.fileno(), size)
        return cls(os.path.abspath(path), handle, mapped, owner=True)

    @classmethod
    def attach(cls, path: str) -> "_MmapBacking":
        try:
            handle = open(path, "rb")
        except OSError as error:
            raise StorageError(f"cannot open arena file {path!r}: {error}") from error
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(os.path.abspath(path), handle, mapped, owner=False)

    @property
    def buffer(self) -> memoryview:
        return memoryview(self._mmap)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.owner:
            self._mmap.flush()
        try:
            self._mmap.close()
        except BufferError:
            self.closed = False
            return
        self._handle.close()

    def unlink(self) -> None:
        """No-op: an mmap arena is a file the caller owns."""


class _LocalBacking:
    """An anonymous in-process buffer (verification and tests)."""

    kind = "local"
    name = "<local>"
    owner = True

    def __init__(self, size: int) -> None:
        self._data = bytearray(size)

    @property
    def buffer(self) -> memoryview:
        return memoryview(self._data)

    def close(self) -> None:
        pass

    def unlink(self) -> None:
        pass


# -- layout: build ----------------------------------------------------------


def _dictionary_payload(dictionary: Dictionary) -> tuple[dict[str, Any], bytes]:
    """(header meta, payload bytes) for one global dictionary.

    Numeric dictionaries store their raw sorted value array so the
    attach side wraps it zero-copy; every other kind reuses its PDS2
    payload (string/trie payloads are variable-width byte structures a
    Python reader copies into objects anyway).
    """
    if isinstance(dictionary, NumericDictionary):
        raw = dictionary.raw_values()
        meta = {
            "kind": "numeric-raw",
            "dtype": str(raw.dtype),
            "count": int(raw.size),
            "has_null": dictionary.has_null,
            "optimized": dictionary.optimized,
        }
        return meta, np.ascontiguousarray(raw).tobytes()
    meta = dictionary_meta(dictionary)
    if meta["kind"] not in ("string", "trie"):
        raise StorageError(
            f"arena cannot hold a {meta['kind']!r} dictionary "
            "(only original table fields belong in the arena)"
        )
    return {"kind": "serde", "serde": meta}, encode_dictionary(dictionary)


def _elements_entry(
    elements: Elements, cursor: int
) -> tuple[dict[str, Any], bytes | memoryview | None, int]:
    """(header entry, payload, next cursor) for one elements array."""
    if isinstance(elements, ConstantElements):
        entry = {
            "kind": "constant",
            "n_rows": elements.n_rows,
            "chunk_id": elements.chunk_id,
        }
        return entry, None, cursor
    cursor = _align_up(cursor, BUFFER_ALIGN)
    payload = elements.payload_bytes()
    if isinstance(elements, BitsetElements):
        entry = {
            "kind": "bitset",
            "n_rows": elements.n_rows,
            "offset": cursor,
            "length": len(payload),
        }
    elif isinstance(elements, PackedElements):
        entry = {
            "kind": "packed",
            "n_rows": elements.n_rows,
            "width": elements.width,
            "offset": cursor,
            "length": len(payload),
        }
    else:
        raise StorageError(
            f"arena cannot hold {elements.encoding_name!r} elements"
        )
    return entry, payload, cursor + len(payload)


class ChunkArena:
    """A store's decoded columns in one attachable flat buffer."""

    def __init__(
        self,
        backing: Any,
        header: dict[str, Any],
        data_start: int,
        size: int,
    ) -> None:
        self._backing = backing
        self._header = header
        self._data_start = data_start
        self.size = size
        self.owner_pid = os.getpid() if backing.owner else -1
        self._released = False

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls, store: DataStore, kind: str = "shm", path: str | None = None
    ) -> "ChunkArena":
        """Materialize ``store``'s original fields into a new arena."""
        fields_meta: list[dict[str, Any]] = []
        payloads: list[tuple[int, bytes | memoryview]] = []
        cursor = 0
        for name in sorted(store.fields):
            field = store.fields[name]
            if field.virtual:
                continue
            cursor = _align_up(cursor, SECTION_ALIGN)
            dict_meta, dict_payload = _dictionary_payload(field.dictionary)
            entry: dict[str, Any] = {
                "name": name,
                "dictionary": {
                    "meta": dict_meta,
                    "offset": cursor,
                    "length": len(dict_payload),
                },
            }
            payloads.append((cursor, dict_payload))
            cursor += len(dict_payload)
            chunk_entries: list[dict[str, Any]] = []
            for chunk in field.chunks:
                cursor = _align_up(cursor, BUFFER_ALIGN)
                chunk_dict = np.ascontiguousarray(chunk.chunk_dict, dtype=np.uint32)
                chunk_entry: dict[str, Any] = {
                    "dict_offset": cursor,
                    "dict_count": int(chunk_dict.size),
                }
                payloads.append((cursor, chunk_dict.tobytes()))
                cursor += chunk_dict.nbytes
                element_entry, payload, cursor = _elements_entry(
                    chunk.elements, cursor
                )
                if payload is not None:
                    payloads.append((element_entry["offset"], payload))
                chunk_entry["elements"] = element_entry
                chunk_entries.append(chunk_entry)
            entry["chunks"] = chunk_entries
            fields_meta.append(entry)

        header = {
            "format": "ARENA1",
            "options": options_to_dict(store.options),
            "n_rows": store.n_rows,
            "chunk_row_counts": list(store.chunk_row_counts),
            "fields": fields_meta,
        }
        header_bytes = json.dumps(header).encode("utf-8")
        data_start = _align_up(_PREAMBLE.size + len(header_bytes), SECTION_ALIGN)
        total = data_start + _align_up(cursor, BUFFER_ALIGN)

        if kind == "shm":
            backing: Any = _ShmBacking.create(total)
        elif kind == "mmap":
            if path is None:
                raise StorageError("mmap arena needs a file path")
            backing = _MmapBacking.create(path, total)
        elif kind == "local":
            backing = _LocalBacking(total)
        else:
            raise StorageError(f"unknown arena backing {kind!r}")

        completed = False
        try:
            buffer = backing.buffer
            buffer[: _PREAMBLE.size] = _PREAMBLE.pack(
                _MAGIC, len(header_bytes), total
            )
            buffer[_PREAMBLE.size : _PREAMBLE.size + len(header_bytes)] = (
                header_bytes
            )
            for offset, payload in payloads:
                start = data_start + offset
                buffer[start : start + len(payload)] = payload
            arena = cls(backing, header, data_start, total)
            completed = True
        finally:
            if not completed:
                # A build that dies mid-write must not strand the
                # segment: reclaim it before the handle escapes (the
                # atexit hook only knows fully built arenas).
                backing.unlink()
                backing.close()
        if backing.kind == "shm":
            _LIVE_ARENAS[backing.name] = arena
            _sync_manifest()
        counters.increment("arena.builds")
        counters.increment("arena.bytes", total)
        return arena

    @classmethod
    def attach(cls, handle: ArenaHandle) -> "ChunkArena":
        """Open an existing arena through its handle (read-only use)."""
        if handle.kind == "shm":
            backing: Any = _ShmBacking.attach(handle.name)
        elif handle.kind == "mmap":
            backing = _MmapBacking.attach(handle.name)
        else:
            raise StorageError(f"cannot attach arena kind {handle.kind!r}")
        buffer = backing.buffer
        try:
            magic, header_len, total = _PREAMBLE.unpack_from(buffer, 0)
            if magic != _MAGIC:
                raise StorageError(f"not an arena: magic {bytes(magic)!r}")
            header = json.loads(
                bytes(buffer[_PREAMBLE.size : _PREAMBLE.size + header_len])
            )
        except (struct.error, ValueError, UnicodeDecodeError) as error:
            backing.close()
            raise StorageError(
                f"arena header is corrupt: {type(error).__name__}: {error}"
            ) from error
        data_start = _align_up(_PREAMBLE.size + header_len, SECTION_ALIGN)
        counters.increment("arena.attaches")
        return cls(backing, header, data_start, total)

    # -- identity ----------------------------------------------------------
    @property
    def kind(self) -> str:
        return self._backing.kind

    @property
    def name(self) -> str:
        return self._backing.name

    @property
    def is_owner(self) -> bool:
        return bool(self._backing.owner)

    def handle(self) -> ArenaHandle | None:
        """The attachable reference, or None for local backings."""
        if self._backing.kind in ("shm", "mmap"):
            return ArenaHandle(self._backing.kind, self._backing.name)
        return None

    @property
    def buffer(self) -> memoryview:
        """The raw arena bytes (writable only on the build path)."""
        return self._backing.buffer

    # -- attach-side reconstruction ---------------------------------------
    def _view(self, dtype: Any, offset: int, count: int) -> np.ndarray:
        view = np.frombuffer(
            self.buffer, dtype=dtype, count=count, offset=self._data_start + offset
        )
        if view.flags.writeable:
            view.flags.writeable = False
        return view

    def _payload(self, offset: int, length: int) -> bytes:
        start = self._data_start + offset
        return bytes(self.buffer[start : start + length])

    def _attach_dictionary(self, entry: dict[str, Any]) -> Dictionary:
        meta = entry["meta"]
        if meta["kind"] == "numeric-raw":
            values = self._view(
                np.dtype(meta["dtype"]), entry["offset"], meta["count"]
            )
            return NumericDictionary(
                values,
                has_null=meta["has_null"],
                optimized=meta["optimized"],
            )
        return decode_dictionary(
            meta["serde"], self._payload(entry["offset"], entry["length"])
        )

    def _attach_elements(self, entry: dict[str, Any]) -> Elements:
        kind = entry["kind"]
        if kind == "constant":
            return ConstantElements(entry["n_rows"], entry["chunk_id"])
        if kind == "bitset":
            payload = self._payload(entry["offset"], entry["length"])
            return BitsetElements(BitSet.from_bytes(payload, entry["n_rows"]))
        if kind == "packed":
            dtype = _PACKED_DTYPES.get(entry["width"])
            if dtype is None:
                raise StorageError(f"bad packed width {entry['width']} in arena")
            ids = self._view(dtype, entry["offset"], entry["n_rows"])
            return PackedElements(ids, entry["width"])
        raise StorageError(f"unknown elements kind {kind!r} in arena")

    def attached_store(self) -> DataStore:
        """A fresh :class:`DataStore` whose arrays view this arena.

        The returned store always starts with the *serial* runtime
        regardless of the options recorded at build time: attached
        stores live inside executor workers (a nested process pool
        would fork the fleet) or behind :func:`load_arena_store`, whose
        callers pick their own runtime via ``configure_runtime``.
        """
        options = options_from_dict(self._header["options"])
        options = replace(options, executor="serial", workers=None)
        fields: dict[str, FieldStore] = {}
        for field_meta in self._header["fields"]:
            name = field_meta["name"]
            dictionary = self._attach_dictionary(field_meta["dictionary"])
            chunks = []
            for chunk_meta in field_meta["chunks"]:
                chunk_dict = self._view(
                    np.uint32,
                    chunk_meta["dict_offset"],
                    chunk_meta["dict_count"],
                )
                elements = self._attach_elements(chunk_meta["elements"])
                chunks.append(ColumnChunk.from_trusted_parts(chunk_dict, elements))
            fields[name] = FieldStore(name, dictionary, chunks)
        store = DataStore(
            options,
            self._header["n_rows"],
            list(self._header["chunk_row_counts"]),
            fields,
        )
        store.adopt_arena(self, self.handle())
        return store

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (kernel object untouched)."""
        self._backing.close()

    def unlink(self) -> None:
        """Remove the kernel object (shm owners only; mmap keeps its file)."""
        self._backing.unlink()
        _LIVE_ARENAS.pop(self._backing.name, None)
        if self._backing.kind == "shm" and self._backing.owner:
            _sync_manifest()

    def release(self) -> None:
        """Owner teardown: unlink the segment, then drop the mapping.

        Safe to call on attached (non-owner) arenas — those only drop
        their mapping. Idempotent.
        """
        if self._released:
            return
        self._released = True
        self.unlink()
        self.close()

    def __enter__(self) -> "ChunkArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


# -- module-level lifecycle -------------------------------------------------


def _release_live_arenas() -> None:
    """atexit backstop: unlink every shm segment this process owns.

    Forked executor workers inherit the parent's registry; the pid
    check keeps a worker's exit from unlinking segments the parent is
    still serving.
    """
    for arena in list(_LIVE_ARENAS.values()):
        if arena.owner_pid == os.getpid():
            arena.release()


atexit.register(_release_live_arenas)


def live_segment_names() -> list[str]:
    """Names of shm segments this process currently owns (leak checks)."""
    return sorted(
        name
        for name, arena in _LIVE_ARENAS.items()
        if arena.owner_pid == os.getpid()
    )


# -- the janitor: crash-safe segment accounting -----------------------------
#
# atexit and close() cover every orderly exit, but a SIGKILLed owner
# (OOM killer, operator) runs neither, stranding its segments in
# /dev/shm until reboot. The janitor closes that hole: every owner
# process keeps a pidfile-tagged manifest of its live segment names on
# disk, rewritten atomically whenever a segment is created or
# unlinked, and sweep_orphaned_segments() reclaims the segments of any
# manifest whose owner pid no longer exists.

#: Environment override for the manifest directory (tests isolate it).
MANIFEST_DIR_ENV = "REPRO_ARENA_MANIFEST_DIR"


def manifest_dir() -> str:
    """The directory holding per-pid arena manifests (created lazily)."""
    root = os.environ.get(MANIFEST_DIR_ENV) or os.path.join(
        tempfile.gettempdir(), "repro_arena_manifests"
    )
    os.makedirs(root, exist_ok=True)
    return root


def _manifest_path(pid: int) -> str:
    return os.path.join(manifest_dir(), f"arenas_{pid}.json")


def _sync_manifest() -> None:
    """Rewrite this process's manifest to match its live segments.

    Atomic (tmp + rename) so a crash mid-write leaves the previous
    manifest, never a torn one; an empty manifest is removed. Manifest
    I/O failing must never fail a query — it only degrades the
    crash-sweep back to the pre-janitor behaviour.
    """
    pid = os.getpid()
    path = _manifest_path(pid)
    names = live_segment_names()
    try:
        if not names:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            return
        scratch = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump({"pid": pid, "segments": names}, handle)
        os.replace(scratch, path)
    except OSError:
        counters.increment("arena.manifest_errors")


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a process that still exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # be conservative: never sweep a maybe-live owner
    return True


def _unlink_segment_by_name(name: str) -> bool:
    """Unlink one shm segment by name; True when it existed.

    Attaches with resource-tracker registration suppressed (same 3.11
    wart as :meth:`_ShmBacking.attach`) purely to reach ``unlink``.
    """
    original_register = resource_tracker.register
    resource_tracker.register = _ignore_tracker_registration
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    finally:
        resource_tracker.register = original_register
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        return False
    return True


def sweep_orphaned_segments() -> list[str]:
    """Reclaim segments whose owner process is gone; returns their names.

    Scans every manifest in :func:`manifest_dir`; a manifest whose pid
    is dead has its listed ``repro_arena_*`` segments unlinked and the
    manifest removed. Live owners (including this process) are left
    alone. Safe to run concurrently: already-gone segments and
    manifests are tolerated.
    """
    reclaimed: list[str] = []
    try:
        entries = os.listdir(manifest_dir())
    except OSError:
        return reclaimed
    for entry in entries:
        if not (entry.startswith("arenas_") and entry.endswith(".json")):
            continue
        try:
            pid = int(entry[len("arenas_") : -len(".json")])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(manifest_dir(), entry)
        try:
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            segments = list(manifest.get("segments", []))
        except (OSError, ValueError):
            segments = []  # torn/corrupt manifest: still remove it
        for name in segments:
            if not isinstance(name, str) or not name.startswith(
                SEGMENT_PREFIX
            ):
                continue  # never unlink a segment we did not create
            if _unlink_segment_by_name(name):
                reclaimed.append(name)
        try:
            os.unlink(path)
        except OSError:
            pass
    counters.increment("arena.janitor_sweeps")
    if reclaimed:
        counters.increment("arena.segments_reclaimed", len(reclaimed))
    return sorted(reclaimed)


def attach_store(handle: ArenaHandle) -> DataStore:
    """The pickle target for arena-backed stores (cached per process).

    Every :class:`DataStore` whose arena is shareable reduces to
    ``(attach_store, (handle,))``; workers unpickling tasks all land on
    the same attached store, so zero-copy views and rematerialized
    virtual fields are shared across every task a worker runs.
    """
    store = _ATTACHED_STORES.get(handle)
    if store is None:
        store = ChunkArena.attach(handle).attached_store()
        _ATTACHED_STORES[handle] = store
    return store


# -- the cold-store surface -------------------------------------------------


def save_arena(store: DataStore, path: str) -> int:
    """Write ``store`` as an mmap-backed arena file; returns its size."""
    arena = ChunkArena.build(store, kind="mmap", path=path)
    size = arena.size
    arena.close()
    return size


def load_arena_store(path: str) -> DataStore:
    """Open an arena file as a store whose columns page in on demand.

    The mapping is ``ACCESS_READ``: every array is a read-only view
    into file-backed pages, so a store larger than memory answers
    queries with only the touched pages resident (the paper's "load
    dynamically on first access", at page rather than file granularity).
    The caller owns the store: every call maps the file anew, and the
    mapping goes when the store does (:func:`attach_store` keeps its
    per-process cache for executor workers only).
    """
    handle = ArenaHandle("mmap", os.path.abspath(path))
    return ChunkArena.attach(handle).attached_store()


# -- verification (FSCK011) -------------------------------------------------


def verify_arena(store: DataStore) -> list[str]:
    """Round-trip ``store`` through a local arena; returns problems.

    Builds an anonymous (non-kernel) arena from the store, attaches it,
    and compares every original field bit-for-bit: dictionary payload
    bytes, chunk-dictionary arrays, element arrays and encodings. Also
    checks the layout contract itself — buffer alignment, bounds, and
    that no two buffers overlap.
    """
    problems: list[str] = []
    arena = ChunkArena.build(store, kind="local")
    try:
        problems.extend(_verify_layout(arena))
        attached = arena.attached_store()
        if attached.n_rows != store.n_rows:
            problems.append(
                f"arena n_rows {attached.n_rows} != store {store.n_rows}"
            )
        if list(attached.chunk_row_counts) != list(store.chunk_row_counts):
            problems.append("arena chunk_row_counts differ from store")
        original = {
            name: field
            for name, field in store.fields.items()
            if not field.virtual
        }
        if sorted(attached.fields) != sorted(original):
            problems.append(
                f"arena fields {sorted(attached.fields)} != "
                f"store originals {sorted(original)}"
            )
            return problems
        for name, field in original.items():
            twin = attached.fields[name]
            if encode_dictionary(field.dictionary) != encode_dictionary(
                twin.dictionary
            ):
                problems.append(f"field {name!r}: dictionary bytes differ")
            for index, (chunk, chunk_twin) in enumerate(
                zip(field.chunks, twin.chunks)
            ):
                if not np.array_equal(chunk.chunk_dict, chunk_twin.chunk_dict):
                    problems.append(
                        f"field {name!r} chunk {index}: chunk-dict differs"
                    )
                if (
                    chunk.elements.encoding_name
                    != chunk_twin.elements.encoding_name
                ):
                    problems.append(
                        f"field {name!r} chunk {index}: encoding "
                        f"{chunk.elements.encoding_name!r} became "
                        f"{chunk_twin.elements.encoding_name!r}"
                    )
                elif not np.array_equal(
                    chunk.elements.as_array(), chunk_twin.elements.as_array()
                ):
                    problems.append(
                        f"field {name!r} chunk {index}: elements differ"
                    )
    finally:
        arena.release()
    return problems


def _verify_layout(arena: ChunkArena) -> list[str]:
    """Alignment / bounds / overlap checks over the arena's buffer table."""
    problems: list[str] = []
    spans: list[tuple[int, int, str]] = []
    for field_meta in arena._header["fields"]:
        name = field_meta["name"]
        entry = field_meta["dictionary"]
        spans.append((entry["offset"], entry["length"], f"{name}.dictionary"))
        if entry["offset"] % SECTION_ALIGN:
            problems.append(f"{name}: section offset not page-aligned")
        for index, chunk_meta in enumerate(field_meta["chunks"]):
            spans.append(
                (
                    chunk_meta["dict_offset"],
                    4 * chunk_meta["dict_count"],
                    f"{name}.chunk[{index}].dict",
                )
            )
            element_meta = chunk_meta["elements"]
            if "offset" in element_meta:
                spans.append(
                    (
                        element_meta["offset"],
                        element_meta["length"],
                        f"{name}.chunk[{index}].elements",
                    )
                )
    data_size = arena.size - arena._data_start
    previous_end = 0
    previous_label = "<start>"
    for offset, length, label in sorted(spans):
        if offset % BUFFER_ALIGN:
            problems.append(f"{label}: offset {offset} not 64-byte aligned")
        if offset < previous_end:
            problems.append(f"{label}: overlaps {previous_label}")
        if offset + length > data_size:
            problems.append(f"{label}: extends past the data region")
        previous_end = offset + length
        previous_label = label
    return problems
