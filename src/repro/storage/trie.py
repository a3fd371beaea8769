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

The build (:func:`_trie_bytes`) never walks the trie node by node: the
nibble LCPs of adjacent sorted strings determine it, so it is a fixed
number of array passes over the strings and the nodes (see there).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.compress.varint import _scatter_varints, decode_varint, varint_lengths
from repro.errors import DictionaryError
from repro.storage.dictionary import (
    _BULK_LOOKUP_MIN,
    _bulk_ranks,
    _utf8,
    Dictionary,
)

_TERMINAL = 0x01
_HAS_SKIP = 0x02

#: Bytes of a string pair compared in the first LCP round. A pair whose
#: window matches throughout is compared again in a window twice as
#: wide, up to the cap; the cap is also the zero padding of the blob.
_FIRST_WINDOW = 64
_MAX_WINDOW = 1024

#: Separates the strings in the blob. No UTF-8 sequence holds the byte,
#: so a string that is a prefix of its neighbour mismatches at its end.
_SEPARATOR = b"\xff"


def _nibbles(value: str) -> list[int]:
    """The UTF-8 nibble sequence of ``value`` (high nibble first).

    ``surrogatepass`` encodes a lone surrogate, which no stored string
    holds, in code-point order: a probe for it finds nothing and ranks
    where ``str`` comparison puts it.
    """
    out: list[int] = []
    for byte in value.encode("utf-8", "surrogatepass"):
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return out


def _unpack_nibbles(data: bytes, count: int) -> list[int]:
    out: list[int] = []
    for byte in data:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return out[:count]


def _pair_lcp(
    blob: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Nibble LCP of every adjacent pair of strings in ``blob``.

    Compares the pairs still undecided a window at a time (one gather of
    each side, one ``argmax`` of the mismatches), so the work is the
    bytes the pairs share, not pairs x longest string. The first
    mismatch also orders the pair: UTF-8 byte order is code-point order,
    and the input must ascend strictly.
    """
    left, right = starts[:-1], starts[1:]
    shorter = np.minimum(lengths[:-1], lengths[1:])
    matched = np.zeros(left.size, dtype=np.int64)
    pending = np.arange(left.size)
    width = _FIRST_WINDOW
    while pending.size:  # one round per window, doubling up to the cap
        windows = sliding_window_view(blob, width)
        done = matched[pending]
        stop = windows[left[pending] + done] != windows[right[pending] + done]
        first = stop.argmax(axis=1)
        hit = stop[np.arange(pending.size), first]
        done += np.where(hit, first, width)
        matched[pending] = done
        # Only equal strings match past the shorter one's separator.
        pending = pending[~hit & (done <= shorter[pending])]
        width = min(2 * width, _MAX_WINDOW)
    matched = np.minimum(matched, shorter)  # equal strings fail below
    inside = matched < shorter
    a = blob[left + matched]
    b = blob[right + matched]
    if not np.where(inside, a < b, lengths[:-1] < lengths[1:]).all():
        raise DictionaryError("trie dictionary requires strictly sorted input")
    return 2 * matched + (inside & ((a ^ b) < 0x10))


def _previous_smaller(lcp: np.ndarray) -> np.ndarray:
    """For each ``i`` in ``1..n-1``, the largest ``j < i`` with ``lcp[j] < lcp[i]``.

    ``lcp`` has ``n + 1`` entries, ``-1`` at both ends. A smaller left
    neighbour is the answer and an equal one shares it; only past a
    larger one does the search climb, by binary lifting over a sparse
    table of range minima.
    """
    n = lcp.size - 1
    inner, before = lcp[1:n], lcp[: n - 1]
    out = np.arange(n - 1)
    climb = np.flatnonzero(before > inner)
    minima = [lcp]  # minima[k][x] == min(lcp[x : x + 2**k])
    while 2 ** len(minima) <= lcp.size:
        span = 1 << (len(minima) - 1)
        minima.append(np.minimum(minima[-1][:-span], minima[-1][span:]))
    want = inner[climb]
    reach = climb + 1  # invariant: lcp[reach:i] >= lcp[i]
    for k in range(len(minima) - 1, -1, -1):
        step = reach - (1 << k)
        ok = step >= 0
        ok &= minima[k][np.where(ok, step, 0)] >= want
        reach = np.where(ok, step, reach)
    out[climb] = reach - 1
    head = np.where(before == inner, 0, np.arange(n - 1))
    return out[np.maximum.accumulate(head)]


def _trie_bytes(values: Sequence[str]) -> bytes:
    """Serialize the trie of strictly sorted distinct strings.

    A node is an LCP interval: the strings ``[lo, hi)`` sharing ``end``
    nibbles. With ``lcp[i]`` the nibble LCP of strings ``i - 1`` and
    ``i`` (``-1`` past both ends), the node holding boundary ``i`` has
    ``end == lcp[i]`` and ``lo`` / ``hi`` at the nearest smaller
    ``lcp`` on either side. String ``i`` ends in node ``(i, its
    nibble count)``: terminal if a boundary has that key, else a leaf.
    The root is ``(0, 0)``. Keys ``(lo, end)`` in ascending order are
    the pre-order the layout writes nodes in, and since a node's bytes
    are its header followed by its children's, the whole buffer is each
    node's length prefix and header, in that order. So:

    - one sort of the keys of every boundary and string numbers the
      nodes in pre-order;
    - a node's parent is the one before it at the same ``lo``, or else
      the node of boundary ``lo``, whose ``end`` is ``lcp[lo]``; its
      ``depth`` (where its skip starts) is one past the parent's ``end``;
    - a node's subtree is the run of nodes up to the first with
      ``lo >= hi``, so its size is a difference of a prefix sum of
      (prefix + header) bytes — found by iterating from one-byte length
      prefixes until no prefix length changes (a change only moves
      ancestors, so rounds are bounded by the height; in practice 2-3);
    - one varint scatter writes every length prefix, skip length and
      count, and the skips are one byte gather of the strings.
    """
    n = len(values)
    if n == 0:
        return bytes(4)  # flags 0, empty mask, count 0
    padded = [*_utf8(values), bytes(_MAX_WINDOW)]
    blob = np.frombuffer(_SEPARATOR.join(padded), dtype=np.uint8)
    ends = np.flatnonzero(blob == _SEPARATOR[0])
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts

    lcp = np.full(n + 1, -1, dtype=np.int32)
    lcp[1:n] = _pair_lcp(blob, starts, lengths)
    boundary_lo = _previous_smaller(lcp)
    # The nearest smaller to the right is the one to the left, reversed.
    boundary_hi = n - _previous_smaller(lcp[::-1])[::-1]

    nibble_lengths = 2 * lengths
    width = int(nibble_lengths.max()) + 1
    keys = np.concatenate(
        ([0], boundary_lo * width + lcp[1:n], np.arange(n) * width + nibble_lengths)
    )
    # np.unique, but by a stable sort, which takes the runs the keys
    # already ascend in (the strings' keys are one) as they are.
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    key_node = np.empty_like(order)
    key_node[order] = np.cumsum(fresh) - 1
    # key_node[i] is the node of boundary i (i in 1..n-1); key_node[0] the root.
    lo, end = np.divmod(ordered[fresh], width)
    m = lo.size
    hi = lo + 1
    hi[key_node[1:n]] = boundary_hi
    hi[0] = n

    chained = lo[1:] == lo[:-1]
    parent = np.where(chained, np.arange(m - 1), key_node[lo[1:]])
    depth = np.zeros(m, dtype=np.int64)
    depth[1:] = np.where(chained, end[:-1], lcp[lo[1:]]) + 1
    edge_at = depth[1:] - 1
    edge_byte = blob[starts[lo[1:]] + (edge_at >> 1)]
    edge = np.where(edge_at & 1, edge_byte & 0x0F, edge_byte >> 4)
    mask = np.bincount(
        parent, weights=np.left_shift(1, edge.astype(np.int64)), minlength=m
    ).astype(np.int64)

    terminal = end == nibble_lengths[lo]
    skip = end - depth
    has_skip = skip > 0
    count = hi - lo
    skip_len = np.where(has_skip, varint_lengths(skip), 0)
    skip_bytes = (skip + 1) >> 1
    count_len = varint_lengths(count)
    header = 3 + skip_len + skip_bytes + count_len
    first_at = np.concatenate(([0], np.cumsum(np.bincount(lo, minlength=n))))
    subtree_end = first_at[hi]
    prefix = np.ones(m, dtype=np.int64)
    prefix[0] = 0  # the root has no length prefix
    offsets = np.zeros(m + 1, dtype=np.int64)
    while True:
        np.cumsum(header + prefix, out=offsets[1:])
        size = offsets[subtree_end] - offsets[:-1] - prefix
        fitted = varint_lengths(size)
        fitted[0] = 0
        if np.array_equal(fitted, prefix):
            break
        prefix = fitted

    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    at = offsets[:-1] + prefix
    out[at] = terminal * _TERMINAL + has_skip * _HAS_SKIP
    skip_at = at + 1 + skip_len
    mask_at = skip_at + skip_bytes
    out[mask_at] = mask & 0xFF
    out[mask_at + 1] = mask >> 8
    with_skip = np.flatnonzero(has_skip)
    _scatter_varints(
        out,
        np.concatenate((offsets[1:m], at[with_skip] + 1, mask_at + 2)),
        np.concatenate((size[1:], skip[with_skip], count)).view(np.uint64),
        np.concatenate((prefix[1:], skip_len[with_skip], count_len)),
    )
    # Skip payloads: nibbles depth..end of string lo, packed from byte
    # depth // 2 — shifted by a nibble when depth is odd.
    run_bytes = skip_bytes[with_skip]
    run_start = np.cumsum(run_bytes) - run_bytes
    within = np.arange(int(run_bytes.sum())) - np.repeat(run_start, run_bytes)
    first = depth[with_skip]
    src = np.repeat(starts[lo[with_skip]] + (first >> 1), run_bytes) + within
    shifted = np.repeat((first & 1).astype(bool), run_bytes)
    packed = np.where(shifted, (blob[src] << 4) | (blob[src + 1] >> 4), blob[src])
    out[np.repeat(skip_at[with_skip], run_bytes) + within] = packed
    # An odd skip's last byte is half padding.
    odd = with_skip[(skip[with_skip] & 1).astype(bool)]
    out[mask_at[odd] - 1] &= 0xF0
    return out.tobytes()


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
        """Build from strictly sorted distinct strings (else a DictionaryError)."""
        return cls(_trie_bytes(values), len(values), has_null=has_null)

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
