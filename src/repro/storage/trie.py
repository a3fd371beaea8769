"""The nibble-trie global dictionary — Section 3 "Optimize Global-Dictionaries".

Strings are stored in a trie whose inner nodes represent 4-bit parts of
the UTF-8 bytes (high nibble first), "as opposed to the more standard
choice of characters". The whole trie is serialized into one
"handcrafted encoding stored in a large byte array"; lookups walk that
array directly, iterating over at most 16 children per node, exactly as
the paper describes.

Two properties make this compact and navigable:

- *path compression*: maximal single-child chains are collapsed into a
  per-node ``skip`` nibble sequence (packed two per byte), so unique
  suffixes cost their raw bytes while shared prefixes are stored once —
  this is where the paper's 67 MB -> 3.4 MB ``table_name`` reduction
  comes from;
- a nibble-order depth-first walk enumerates strings in byte-
  lexicographic (== code-point) order, so global-ids fall out of the
  walk: the id of a string is its pre-order terminal index. Both lookup
  directions work without auxiliary structures.

Node wire layout (recursive)::

    node  := flags(1) [varint(n_skip_nibbles) packed_nibbles]
             mask(2, little) varint(subtree_terminal_count) child*
    child := varint(len(node_bytes)) node

``flags``: bit 0 = terminal (a string ends after this node's skip),
bit 1 = node has a skip sequence. ``mask`` bit ``i`` marks a child edge
for nibble ``i``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.compress.varint import decode_varint, encode_varint
from repro.errors import DictionaryError
from repro.storage.dictionary import _BULK_LOOKUP_MIN, _bulk_ranks, Dictionary

_TERMINAL = 0x01
_HAS_SKIP = 0x02


class _BuildNode:
    """Transient trie node used only during construction."""

    __slots__ = ("children", "terminal", "count", "skip")

    def __init__(self) -> None:
        self.children: dict[int, _BuildNode] = {}
        self.terminal = False
        self.count = 0
        self.skip: list[int] = []


def _nibbles(value: str) -> list[int]:
    """The UTF-8 nibble sequence of ``value`` (high nibble first)."""
    out: list[int] = []
    for byte in value.encode("utf-8"):
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return out


def _pack_nibbles(nibbles: Sequence[int]) -> bytes:
    """Pack nibbles two per byte (high first), zero-padding the tail."""
    out = bytearray()
    for i in range(0, len(nibbles), 2):
        high = nibbles[i]
        low = nibbles[i + 1] if i + 1 < len(nibbles) else 0
        out.append((high << 4) | low)
    return bytes(out)


def _unpack_nibbles(data: bytes, count: int) -> list[int]:
    out: list[int] = []
    for byte in data:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return out[:count]


def _build(values: Sequence[str]) -> _BuildNode:
    root = _BuildNode()
    for value in values:
        node = root
        for nibble in _nibbles(value):
            child = node.children.get(nibble)
            if child is None:
                child = _BuildNode()
                node.children[nibble] = child
            node = child
        if node.terminal:
            raise DictionaryError(f"duplicate dictionary value {value!r}")
        node.terminal = True
    _compress(root)
    _finish(root)
    return root


def _compress(node: _BuildNode) -> None:
    """Collapse single-child non-terminal chains into skip sequences."""
    for nibble, child in list(node.children.items()):
        # Walk the maximal chain below this edge.
        skip: list[int] = []
        current = child
        while (
            not current.terminal
            and len(current.children) == 1
            and not current.skip
        ):
            (next_nibble, next_child), = current.children.items()
            skip.append(next_nibble)
            current = next_child
        if skip:
            current.skip = skip
            node.children[nibble] = current
        _compress(current)


def _finish(node: _BuildNode) -> int:
    count = 1 if node.terminal else 0
    for child in node.children.values():
        count += _finish(child)
    node.count = count
    return count


def reference_trie_bytes(values: Sequence[str]) -> bytes:
    """Serialize via the original per-string insert builder.

    Kept as the equivalence oracle for the bulk constructor: property
    tests assert :func:`_bulk_trie_bytes` matches this byte-for-byte.
    """
    out = bytearray()
    _serialize(_build(values), out)
    return bytes(out)


def _nibble_views(
    values: Sequence[str],
) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """Per-string nibble sequences plus both packed phase views.

    Returns ``(seqs, even, odd)``: ``seqs[i]`` is string i's nibble
    sequence one nibble per byte; ``even[i]`` is its UTF-8 encoding
    (packing the nibbles from any even offset is pure slicing of it);
    ``odd[i]`` packs the same nibbles shifted by one (so packing from
    any odd offset is pure slicing too). All three come from single
    vectorized passes over the concatenated encodings instead of
    per-character Python loops.
    """
    encoded = [value.encode("utf-8") for value in values]
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    nibbles = np.empty(blob.size * 2 + 2, dtype=np.uint8)
    nibbles[0:-2:2] = blob >> 4
    nibbles[1:-2:2] = blob & 0x0F
    nibbles[-2:] = 0
    packed = nibbles[:-2].tobytes()
    shifted = ((nibbles[1:-1:2] << 4) | nibbles[2::2]).tobytes() + b"\x00"
    seqs: list[bytes] = []
    odd: list[bytes] = []
    pos = 0
    for item in encoded:
        size = len(item)
        seqs.append(packed[2 * pos : 2 * (pos + size)])
        odd.append(shifted[pos : pos + size + 1])
        pos += size
    return seqs, encoded, odd


def _nibble_sequences(values: Sequence[str]) -> list[bytes]:
    """Nibble sequences (one nibble per byte) for a batch of strings."""
    return _nibble_views(values)[0]


#: Above this padded-matrix size the LCP precompute falls back to a
#: per-pair Python scan (one pathologically long string would otherwise
#: allocate rows x longest-string bytes).
_MAX_LCP_MATRIX_BYTES = 1 << 26


def _adjacent_lcp(seqs: list[bytes]) -> list[int]:
    """``lcp[i]`` = nibbles shared by ``seqs[i-1]`` and ``seqs[i]``.

    (``lcp[0]`` is a placeholder 0.) Computed with one vectorized pass
    over a zero-padded matrix: a sentinel column (16, not a nibble) at
    each sequence's end makes prefix pairs diverge there, so the first
    mismatch column is exactly the pair's common prefix length.
    """
    n = len(seqs)
    if n < 2:
        return [0] * n
    longest = max(map(len, seqs))
    if n * (longest + 1) <= _MAX_LCP_MATRIX_BYTES:
        # One fixed-width 'S' array: numpy packs the rows in a single C
        # pass; the appended sentinel (16, not a nibble) stops prefix
        # pairs at the shorter sequence's end, so the first mismatch
        # column is the exact nibble LCP. ('S' pads with 0x00, a valid
        # nibble — hence the explicit sentinel.)
        arr = np.array([s + b"\x10" for s in seqs])
        width = arr.dtype.itemsize
        mat = arr.view(np.uint8).reshape(n, width)
        lcp = np.argmax(mat[:-1] != mat[1:], axis=1)
        return [0, *lcp.tolist()]
    out = [0]
    for prev, cur in zip(seqs, seqs[1:]):
        bound = min(len(prev), len(cur))
        k = 0
        while k < bound and prev[k] == cur[k]:
            k += 1
        out.append(k)
    return out


def _bulk_trie_bytes(values: Sequence[str]) -> bytes:
    """Serialize the trie for strictly sorted distinct strings in one pass.

    Works on the sorted nibble sequences directly: for the group of
    strings sharing a prefix, the path-compressed skip is the longest
    common extension of the first and last members (sorted order means
    no intermediate member can diverge earlier), and the node is
    terminal exactly when the first member ends there. Child runs are
    looked up, not scanned: position ``i`` starts a new nibble run of
    the (unique) node whose prefix length equals ``lcp[i]``, so the
    boundaries of a node spanning ``[lo, hi)`` with prefix ``end`` are
    the precomputed ``lcp == end`` positions inside ``(lo, hi)``. This
    produces the same bytes as insert+compress+serialize without
    building per-nibble node objects or rescanning groups per level.
    """
    if not values:
        return reference_trie_bytes(values)
    seqs, even_views, odd_views = _nibble_views(values)
    by_lcp: dict[int, list[int]] = {}
    for pos, prefix_len in enumerate(_adjacent_lcp(seqs)):
        if pos:
            by_lcp.setdefault(prefix_len, []).append(pos)

    def packed_skip(index: int, depth: int, end: int) -> bytes:
        """``_pack_nibbles(seqs[index][depth:end])`` by pure slicing."""
        size = end - depth
        n_bytes = (size + 1) >> 1
        if depth & 1:
            start = (depth - 1) >> 1
            chunk = odd_views[index][start : start + n_bytes]
        else:
            start = depth >> 1
            chunk = even_views[index][start : start + n_bytes]
        if size & 1:
            return chunk[:-1] + bytes([chunk[-1] & 0xF0])
        return chunk

    def emit(lo: int, hi: int, depth: int, is_root: bool) -> bytearray:
        first = seqs[lo]
        if is_root:
            end = depth
        elif hi - lo == 1:
            # Single member: the skip runs to the string's end and the
            # node is a terminal leaf — no probing, no children.
            end = len(first)
            if end > depth:
                skip = end - depth
                out = bytearray([_TERMINAL | _HAS_SKIP])
                if skip < 0x80:
                    out.append(skip)
                else:
                    out += encode_varint(skip)
                out += packed_skip(lo, depth, end)
            else:
                out = bytearray([_TERMINAL])
            out += b"\x00\x00\x01"  # empty child mask, count 1
            return out
        else:
            end = depth
            limit = len(first)
            last = seqs[hi - 1]
            while end < limit and first[end] == last[end]:
                end += 1
        terminal = len(first) == end
        out = bytearray()
        flags = (_TERMINAL if terminal else 0) | (
            _HAS_SKIP if end > depth else 0
        )
        out.append(flags)
        if end > depth:
            skip = end - depth
            if skip < 0x80:
                out.append(skip)
            else:
                out += encode_varint(skip)
            out += packed_skip(lo, depth, end)
        positions = by_lcp.get(end)
        if positions:
            a = bisect_right(positions, lo)
            starts = positions[a : bisect_left(positions, hi, a)]
        else:
            starts = []
        if not terminal:
            starts = [lo, *starts]
        mask = 0
        for start in starts:
            mask |= 1 << seqs[start][end]
        out += mask.to_bytes(2, "little")
        out += encode_varint(hi - lo)
        for child_lo, child_hi in zip(starts, [*starts[1:], hi]):
            child_bytes = emit(child_lo, child_hi, end + 1, False)
            child_size = len(child_bytes)
            if child_size < 0x80:
                out.append(child_size)
            else:
                out += encode_varint(child_size)
            out += child_bytes
        return out

    return bytes(emit(0, len(seqs), 0, True))


def _serialize(node: _BuildNode, out: bytearray) -> None:
    flags = (_TERMINAL if node.terminal else 0) | (
        _HAS_SKIP if node.skip else 0
    )
    out.append(flags)
    if node.skip:
        out += encode_varint(len(node.skip))
        out += _pack_nibbles(node.skip)
    mask = 0
    for nibble in node.children:
        mask |= 1 << nibble
    out += mask.to_bytes(2, "little")
    out += encode_varint(node.count)
    for nibble in sorted(node.children):
        child_bytes = bytearray()
        _serialize(node.children[nibble], child_bytes)
        out += encode_varint(len(child_bytes))
        out += child_bytes


class TrieDictionary(Dictionary):
    """String dictionary backed by a serialized, path-compressed nibble trie."""

    kind = "trie"

    def __init__(self, buffer: bytes, n_values: int, has_null: bool = False) -> None:
        super().__init__(has_null)
        self._buffer = buffer
        self._count = n_values
        self._all_values: list[str] | None = None
        self._sorted_cache: np.ndarray | None = None
        # Ranks walked one at a time (top-k decode): filled one item
        # assignment at a time, never pickled nor written to an arena.
        self._walked: dict[int, str] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_walked", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._walked = {}

    @classmethod
    def from_sorted(
        cls, values: Sequence[str], has_null: bool = False
    ) -> "TrieDictionary":
        """Build from strictly sorted distinct strings."""
        if any(a >= b for a, b in zip(values, values[1:])):
            raise DictionaryError("trie dictionary requires strictly sorted input")
        return cls(_bulk_trie_bytes(values), len(values), has_null=has_null)

    @classmethod
    def from_values(
        cls, values: Sequence[Any], has_null: bool | None = None
    ) -> "TrieDictionary":
        """Build from arbitrary (unsorted, possibly null) values."""
        distinct = set(values)
        null_seen = None in distinct
        distinct.discard(None)
        return cls.from_sorted(
            sorted(distinct),
            has_null=null_seen if has_null is None else has_null,
        )

    # -- node parsing ----------------------------------------------------
    def _node(self, pos: int) -> tuple[bool, list[int], int, int, int]:
        """Parse a node; returns (terminal, skip, mask, count, body_pos)."""
        buf = self._buffer
        flags = buf[pos]
        pos += 1
        skip: list[int] = []
        if flags & _HAS_SKIP:
            n_skip, pos = decode_varint(buf, pos)
            n_bytes = (n_skip + 1) // 2
            skip = _unpack_nibbles(buf[pos : pos + n_bytes], n_skip)
            pos += n_bytes
        mask = int.from_bytes(buf[pos : pos + 2], "little")
        pos += 2
        count, pos = decode_varint(buf, pos)
        return bool(flags & _TERMINAL), skip, mask, count, pos

    def _children(self, mask: int, body: int):
        """Yield (nibble, node_pos, node_len) for each child, in order."""
        pos = body
        for nibble in range(16):
            if mask & (1 << nibble):
                length, node_pos = decode_varint(self._buffer, pos)
                yield nibble, node_pos, length
                pos = node_pos + length

    def _child_count(self, node_pos: int) -> int:
        """Subtree terminal count of the node at ``node_pos`` (header peek)."""
        buf = self._buffer
        flags = buf[node_pos]
        pos = node_pos + 1
        if flags & _HAS_SKIP:
            n_skip, pos = decode_varint(buf, pos)
            pos += (n_skip + 1) // 2
        count, __ = decode_varint(buf, pos + 2)
        return count

    # -- Dictionary interface ---------------------------------------------
    @property
    def _n_non_null(self) -> int:
        return self._count

    def _decode_all(self) -> list[str]:
        """Every stored string in rank order from one pre-order buffer walk.

        Decoding the whole trie once and caching the list turns repeated
        rank lookups (``values()``, bulk ``global_ids``) from per-value
        root-to-leaf walks into plain list/array indexing.
        """
        if self._all_values is None:
            terminal_paths: list[bytes] = []
            path = bytearray()
            # Explicit stack instead of recursion: compressed tries can
            # be deeper than the interpreter's recursion limit allows.
            stack: list[tuple[int, int, int]] = [(0, 0, -1)]
            while stack:
                pos, base_len, edge = stack.pop()
                del path[base_len:]
                if edge >= 0:
                    path.append(edge)
                terminal, skip, mask, __, body = self._node(pos)
                path.extend(skip)
                if terminal:
                    terminal_paths.append(bytes(path))
                prefix_len = len(path)
                for nibble, node_pos, __ in reversed(
                    list(self._children(mask, body))
                ):
                    stack.append((node_pos, prefix_len, nibble))
            if len(terminal_paths) != self._count:
                raise DictionaryError(
                    f"corrupt trie: decoded {len(terminal_paths)} values,"
                    f" expected {self._count}"
                )
            if any(len(path_bytes) & 1 for path_bytes in terminal_paths):
                raise DictionaryError("corrupt trie: odd-length nibble path")
            # Repack every terminal's nibbles into UTF-8 bytes in one
            # vectorized pass instead of a per-nibble loop per string.
            nibbles = np.frombuffer(b"".join(terminal_paths), dtype=np.uint8)
            packed = ((nibbles[0::2] << 4) | nibbles[1::2]).tobytes()
            out: list[str] = []
            offset = 0
            for path_bytes in terminal_paths:
                size = len(path_bytes) // 2
                out.append(packed[offset : offset + size].decode("utf-8"))
                offset += size
            self._all_values = out
        return self._all_values

    def values(self) -> list[Any]:
        decoded = self._decode_all()
        if self._has_null:
            return [None, *decoded]
        return list(decoded)

    def global_ids(self, values: Iterable[Any]) -> list[int | None]:
        query = list(values)
        if len(query) < _BULK_LOOKUP_MIN or self._count == 0:
            return [self.global_id(value) for value in query]
        if self._sorted_cache is None:
            cache = np.empty(self._count, dtype=object)
            cache[:] = self._decode_all()
            self._sorted_cache = cache
        return _bulk_ranks(self._sorted_cache, query, str, self._has_null)

    def _value_at(self, index: int) -> str:
        if not 0 <= index < self._count:
            raise DictionaryError(f"trie rank {index} out of range")
        if self._all_values is not None:
            return self._all_values[index]
        value = self._walked.get(index)
        if value is None:
            value = self._walked[index] = self._walk_to(index)
        return value

    def _walk_to(self, index: int) -> str:
        """The string of rank ``index``, by one root-to-leaf walk."""
        nibbles: list[int] = []
        pos = 0
        remaining = index
        while True:
            terminal, skip, mask, __, body = self._node(pos)
            nibbles.extend(skip)
            if terminal:
                if remaining == 0:
                    break
                remaining -= 1
            descended = False
            for nibble, node_pos, __ in self._children(mask, body):
                count = self._child_count(node_pos)
                if remaining < count:
                    nibbles.append(nibble)
                    pos = node_pos
                    descended = True
                    break
                remaining -= count
            if not descended:
                raise DictionaryError("corrupt trie: rank walk fell off")
        raw = bytes(
            (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
        )
        return raw.decode("utf-8")

    def _rank_of(self, value: Any) -> int | None:
        if not isinstance(value, str):
            return None
        target = _nibbles(value)
        rank = 0
        pos = 0
        consumed = 0
        # The root never has a skip; loop invariant: ``pos`` is a node
        # whose skip has not yet been matched against the target.
        while True:
            terminal, skip, mask, __, body = self._node(pos)
            if skip:
                if target[consumed : consumed + len(skip)] != skip:
                    return None
                consumed += len(skip)
            if consumed == len(target):
                return rank if terminal else None
            if terminal:
                rank += 1
            wanted = target[consumed]
            if not mask & (1 << wanted):
                return None
            for nibble, node_pos, __ in self._children(mask, body):
                if nibble == wanted:
                    pos = node_pos
                    break
                rank += self._child_count(node_pos)
            consumed += 1

    def _rank_lower_bound(self, value: Any) -> int:
        """Count stored strings strictly smaller than ``value``.

        Walks like :meth:`_rank_of` but on any divergence adds the
        terminal counts of the subtrees that sort before the target.
        UTF-8 byte (== nibble) order equals code-point order, so the
        walk implements string comparison exactly.
        """
        if not isinstance(value, str):
            raise DictionaryError(
                f"cannot order-compare trie dictionary with {type(value).__name__}"
            )
        target = _nibbles(value)
        rank = 0
        pos = 0
        consumed = 0
        while True:
            terminal, skip, mask, count, body = self._node(pos)
            if skip:
                remaining = target[consumed : consumed + len(skip)]
                for i, nibble in enumerate(remaining):
                    if skip[i] < nibble:
                        # Whole subtree sorts before the target.
                        return rank + count
                    if skip[i] > nibble:
                        return rank
                if len(remaining) < len(skip):
                    # Target ends inside the skip: target < subtree.
                    return rank
                consumed += len(skip)
            if consumed == len(target):
                # Strings equal to the target are not strictly smaller.
                return rank
            if terminal:
                rank += 1  # the string ending here is a strict prefix
            wanted = target[consumed]
            descended = False
            for nibble, node_pos, __ in self._children(mask, body):
                if nibble < wanted:
                    rank += self._child_count(node_pos)
                elif nibble == wanted:
                    pos = node_pos
                    consumed += 1
                    descended = True
                    break
                else:
                    break
            if not descended:
                return rank

    def _payload_size(self) -> int:
        return len(self._buffer)

    def to_bytes(self) -> bytes:
        return self._buffer
