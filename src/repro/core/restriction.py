"""Restriction analysis: chunk skipping and row masks — Sections 2.4 / 5.

The engine gives the operators ``AND, OR, NOT, IN, NOT IN, =, !=`` (plus
range comparisons, which the sorted-rank property makes equally cheap)
special support when deciding which chunks and rows are active:

1. The WHERE tree is normalized into a tree of *leaf predicates*, each
   over a single (original or materialized virtual) field compared
   against literals. Arbitrary sub-expressions are first materialized
   as virtual fields (Section 5 "Complex Expressions"), so this
   normalization is total.
2. Each leaf is turned into two boolean vectors over the field's global
   dictionary: ``t`` (value satisfies the predicate) and ``n``
   (predicate is NULL for this value) — a Kleene truth table indexed by
   global-id. Restricted to a chunk's chunk-dictionary these are
   *exact* per-distinct-value outcomes.
3. Each node reports a conservative outcome summary — five boolean
   vectors with one entry per chunk (may-be-true / may-be-false /
   may-be-null, definitely-all-true / definitely-all-false) — composed
   bottom-up. A field's chunk-dictionaries are one (gid, chunk) column
   in CSR form (:class:`ChunkDictIndex`), so a leaf answers *all*
   chunks with one gather of ``t`` / ``n`` through the flat gid array
   and one segmented reduction per vector. "No row may be true" -> the
   chunk is **skipped** without touching its elements; "every row
   definitely true" -> the chunk is **fully active** (its result is
   cacheable). The chunks left undecided are decided by their rows:
   one whole-store row selection holds every such chunk's rows (a slice
   when the chunks are adjacent), each leaf gathers its per-entry
   outcomes through it with one take (a row's CSR position is its
   chunk-dictionary entry), Kleene logic is composed at row level, and
   one segmented count per chunk turns the row mask into SKIP, FULL or
   PARTIAL.
4. All of that happens once, when the WHERE is compiled: the product is
   a :class:`Restriction` of arrays (an int8 verdict per chunk, the
   active chunks, the PARTIAL chunks' rows as one CSR), which every
   query carrying the same WHERE reads in O(active chunks).

Skipping is sound: the summary algebra only ever over-approximates the
set of possible row outcomes, so a skipped chunk provably contains no
matching row. The row-mask path is exact, and the decision is refined
with it (a PARTIAL candidate whose mask turns out empty is skipped).
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.errors import UnsupportedQueryError
from repro.monitoring import counters
from repro.sql.ast_nodes import (
    BinaryOp,
    Expr,
    InList,
    Literal,
    UnaryOp,
)
from repro.storage.chunk import ChunkDictIndex
from repro.storage.dictionary import Dictionary

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class ChunkStatus(enum.Enum):
    """Per-chunk outcome of restriction analysis."""

    SKIP = "skip"  # no row matches
    FULL = "full"  # every row matches (result cacheable)
    PARTIAL = "partial"  # some rows match; a row mask is needed


#: A chunk's verdict as :attr:`Restriction.verdicts` holds it (int8).
SKIP, FULL, PARTIAL = 0, 1, 2


@dataclass(frozen=True)
class ChunkDecision:
    status: ChunkStatus
    row_mask: np.ndarray | None = None  # bool per row, PARTIAL only


# SKIP and FULL carry no per-chunk data: every such decision is one of these.
_SKIP = ChunkDecision(ChunkStatus.SKIP)
_FULL = ChunkDecision(ChunkStatus.FULL)


class _Outcomes(NamedTuple):
    """Conservative outcome summary of a predicate node, one entry per chunk.

    ``may_*`` are supersets of the possible row outcomes; ``all_true``
    / ``all_false`` are underapproximations of "every row has this
    outcome". The invariants keep SKIP and FULL decisions sound.
    """

    may_true: np.ndarray
    may_false: np.ndarray
    may_null: np.ndarray
    all_true: np.ndarray
    all_false: np.ndarray


class _Node:
    """A compiled predicate node; ``fields`` are its leaves' fields."""

    fields: frozenset[str]

    def outcomes(self) -> _Outcomes:
        """The summary vectors over every chunk of the store."""
        raise NotImplementedError

    def row_vectors(self, rows, positions_of) -> tuple[np.ndarray, np.ndarray]:
        """Exact (t, n) Kleene vectors of a whole-store row selection."""
        raise NotImplementedError

    def row_truth(self, rows, positions_of) -> np.ndarray:
        """The ``t`` of :meth:`row_vectors` alone: all the root needs."""
        return self.row_vectors(rows, positions_of)[0]


class _Leaf(_Node):
    """A predicate over one field, precomputed as global (t, n) masks and
    their outcomes, all frozen: one leaf serves every WHERE (and thread)."""

    def __init__(
        self,
        field: str,
        t_mask: np.ndarray,
        n_mask: np.ndarray,
        index: ChunkDictIndex,
    ) -> None:
        self.field = field
        self.fields = frozenset((field,))
        self._t = t_mask
        self._n = n_mask
        # One gather for the whole store: (t, n) of every chunk-dictionary
        # entry of every chunk, packed as bit 0 / bit 1 of one byte.
        self._entries = (t_mask.view(np.uint8) | n_mask.view(np.uint8) << 1).take(
            index.gids
        )
        t, n = self._unpack(self._entries)
        false = ~(t | n)
        self._outcomes = _Outcomes(
            may_true=index.reduce(np.logical_or, t),
            may_false=index.reduce(np.logical_or, false),
            may_null=index.reduce(np.logical_or, n),
            all_true=index.reduce(np.logical_and, t),
            all_false=index.reduce(np.logical_and, false),
        )
        for array in self._arrays():
            array.setflags(write=False)

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self._t, self._n, self._entries, *self._outcomes)

    def size_bytes(self) -> int:
        """Resident bytes, its chunk-cache weight: every array it holds."""
        return 64 + sum(array.nbytes for array in self._arrays())

    @staticmethod
    def _unpack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (entries & 1).view(bool), (entries >> 1).view(bool)

    def outcomes(self) -> _Outcomes:
        return self._outcomes

    def row_vectors(self, rows, positions_of):
        # A row's CSR position is its chunk-dictionary entry: one take.
        return self._unpack(self._entries.take(positions_of(self.field, rows)))

    def row_truth(self, rows, positions_of):
        return (self._entries.take(positions_of(self.field, rows)) & 1).view(bool)


class _Binary(_Node):
    def __init__(self, left: _Node, right: _Node) -> None:
        self.left = left
        self.right = right
        self.fields = left.fields | right.fields


class _And(_Binary):
    def outcomes(self) -> _Outcomes:
        a = self.left.outcomes()
        b = self.right.outcomes()
        return _Outcomes(
            may_true=a.may_true & b.may_true,
            may_false=a.may_false | b.may_false,
            may_null=a.may_null | b.may_null,
            all_true=a.all_true & b.all_true,
            all_false=a.all_false | b.all_false,
        )

    def row_vectors(self, rows, positions_of):
        t1, n1 = self.left.row_vectors(rows, positions_of)
        t2, n2 = self.right.row_vectors(rows, positions_of)
        false = (~t1 & ~n1) | (~t2 & ~n2)
        true = t1 & t2
        return true, ~false & ~true


class _Or(_Binary):
    def outcomes(self) -> _Outcomes:
        a = self.left.outcomes()
        b = self.right.outcomes()
        return _Outcomes(
            may_true=a.may_true | b.may_true,
            may_false=a.may_false & b.may_false,
            may_null=a.may_null | b.may_null,
            all_true=a.all_true | b.all_true,
            all_false=a.all_false & b.all_false,
        )

    def row_vectors(self, rows, positions_of):
        t1, n1 = self.left.row_vectors(rows, positions_of)
        t2, n2 = self.right.row_vectors(rows, positions_of)
        true = t1 | t2
        return true, ~true & (n1 | n2)


class _Not(_Node):
    def __init__(self, operand: _Node) -> None:
        self.operand = operand
        self.fields = operand.fields

    def outcomes(self) -> _Outcomes:
        s = self.operand.outcomes()
        return _Outcomes(
            may_true=s.may_false,
            may_false=s.may_true,
            may_null=s.may_null,
            all_true=s.all_false,
            all_false=s.all_true,
        )

    def row_vectors(self, rows, positions_of):
        t, n = self.operand.row_vectors(rows, positions_of)
        return ~t & ~n, n


class Restriction:
    """A classified WHERE clause, as arrays over the chunks of the store.

    ``verdicts``: an int8 per chunk (SKIP / FULL / PARTIAL); ``active``:
    the chunks not skipped, ascending. The rows a PARTIAL chunk keeps are
    one CSR: chunk ``c`` owns ``rows[offsets[c]:offsets[c + 1]]``,
    ascending whole-store row indices (empty for any other chunk). All of
    it is set here and never written again, so one instance serves every
    query (and thread) that carries the same WHERE; ``fields`` names what
    the WHERE read, for their accounting.
    """

    def __init__(
        self,
        verdicts: np.ndarray,
        rows: np.ndarray,
        offsets: np.ndarray,
        row_starts: np.ndarray,
        fields: tuple[str, ...] = (),
    ) -> None:
        self.verdicts = verdicts
        self.active = np.flatnonzero(verdicts)
        self.rows = rows
        self.offsets = offsets
        for array in (verdicts, self.active, rows, offsets):
            array.setflags(write=False)
        self.row_starts = row_starts
        self.fields = fields

    def decide(self, chunk_index: int) -> ChunkDecision:
        """One chunk's verdict and row mask: a view for tests and tracing."""
        verdict = self.verdicts[chunk_index]
        if verdict != PARTIAL:
            return _FULL if verdict == FULL else _SKIP
        start, stop = self.row_starts[chunk_index : chunk_index + 2]
        row_mask = np.zeros(stop - start, dtype=bool)
        lo, hi = self.offsets[chunk_index : chunk_index + 2]
        row_mask[self.rows[lo:hi] - start] = True
        row_mask.setflags(write=False)
        return ChunkDecision(ChunkStatus.PARTIAL, row_mask)

    def select(self, chunks: Sequence[int]) -> slice | np.ndarray:
        """The rows this WHERE keeps in ``chunks`` (ascending, none SKIP).

        A slice when they are every row of a contiguous range of chunks,
        a view of the CSR when they are a contiguous stretch of its
        PARTIAL chunks; else ascending row indices, FULL chunks as ranges
        and PARTIAL ones cut from the CSR.
        """
        chunks = np.asarray(chunks)
        first, last = chunks[0], chunks[-1]
        starts, offsets = self.row_starts, self.offsets
        partial = self.verdicts[chunks] == PARTIAL
        if not partial.any():
            if last - first + 1 == chunks.size:
                return slice(int(starts[first]), int(starts[last + 1]))
        elif partial.all():
            between = self.verdicts[first : last + 1] == PARTIAL
            if np.count_nonzero(between) == chunks.size:
                return self.rows[offsets[first] : offsets[last + 1]]
        # A chunk is a range of row indices (FULL) or of CSR slots (PARTIAL).
        begin = np.where(partial, offsets[chunks], starts[chunks])
        lengths = np.where(partial, offsets[chunks + 1], starts[chunks + 1]) - begin
        selected = _ranges(begin, lengths)
        slots = np.repeat(partial, lengths)
        selected[slots] = self.rows[selected[slots]]
        return selected

    def size_bytes(self) -> int:
        """Resident bytes, its chunk-cache weight: the arrays it holds."""
        arrays = (self.verdicts, self.active, self.rows, self.offsets)
        return 64 + sum(array.nbytes for array in arrays)


def pick(values: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """``values`` at a row selection: a view of a slice, else one take."""
    return values[rows] if isinstance(rows, slice) else values.take(rows)


def _ranges(begin: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(b, b + n)`` for every pair, concatenated, without a loop."""
    values = np.repeat(begin - (np.cumsum(lengths) - lengths), lengths)
    values += np.arange(values.size)
    return values


def _classify(
    root: _Node | None,
    row_starts: np.ndarray,
    positions_of: Callable[[str, slice | np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verdicts and the PARTIAL rows' CSR: the vector pass, then one row pass.

    The row pass reads the undecided chunks' first-to-last span, a slice,
    its decided chunks masked off; or their rows alone, as row indices,
    if they hold under half of it (200k bench store, ``latency``: indices
    cost 0.28 ms at 29 % of a span's rows, 0.59 at 51 %, 1.25 at 96 %; the
    span 0.43-0.61 ms). An undecided chunk has rows (an empty one has no
    value that may be true), so its segment is never empty.
    """
    offsets = np.zeros(row_starts.size, dtype=np.intp)
    if root is None:  # no WHERE: every chunk is FULL
        return np.full(offsets.size - 1, FULL, np.int8), np.empty(0, np.intp), offsets
    outcomes = root.outcomes()
    verdicts = np.where(outcomes.all_true, FULL, PARTIAL).astype(np.int8)
    verdicts[~outcomes.may_true] = SKIP
    undecided = np.flatnonzero(verdicts == PARTIAL)
    if not undecided.size:
        return verdicts, np.empty(0, np.intp), offsets
    first, last = undecided[0], undecided[-1] + 1
    chunks, counts = np.arange(first, last), np.diff(row_starts[first : last + 1])
    rows: slice | np.ndarray = slice(int(row_starts[first]), int(row_starts[last]))
    if 2 * counts[undecided - first].sum() < counts.sum():
        chunks, counts = undecided, counts[undecided - first]
        rows = _ranges(row_starts[chunks], counts)
    row_mask = root.row_truth(rows, positions_of)
    kept = np.add.reduceat(row_mask, np.cumsum(counts) - counts, dtype=np.intp)
    ours = verdicts[chunks] == PARTIAL  # a span's decided chunks are not
    verdicts[chunks[ours & (kept == 0)]] = SKIP
    verdicts[chunks[ours & (kept == counts)]] = FULL
    partial = ours & (kept > 0) & (kept < counts)
    row_mask &= np.repeat(partial, counts)
    offsets[1:][chunks] = np.where(partial, kept, 0)
    np.cumsum(offsets, out=offsets)
    if isinstance(rows, slice):
        return verdicts, np.flatnonzero(row_mask) + rows.start, offsets
    return verdicts, rows[row_mask], offsets


# -- leaf mask construction ---------------------------------------------------


def _lookup_gid(dictionary: Dictionary, value: Any) -> int | None:
    gid = dictionary.global_id(value)
    if gid is None and isinstance(value, int) and not isinstance(value, bool):
        # Integer literals should match float dictionary entries.
        gid = dictionary.global_id(float(value))
    return gid


def _leaf_masks_in(
    dictionary: Dictionary, values: tuple[Any, ...], negated: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(t, n) global masks for ``field [NOT] IN (values)``."""
    n_values = len(dictionary)
    t = np.zeros(n_values, dtype=bool)
    n = np.zeros(n_values, dtype=bool)
    null_listed = any(v is None for v in values)
    listed = [v for v in values if v is not None]
    # One batched dictionary probe for the whole IN list; the int ->
    # float retry mirrors _lookup_gid.
    for value, gid in zip(listed, dictionary.global_ids(listed)):
        if gid is None and isinstance(value, int) and not isinstance(value, bool):
            gid = dictionary.global_id(float(value))
        if gid is not None:
            t[gid] = True
    if dictionary.has_null:
        if null_listed:
            t[0] = True  # the IS NULL rewrite: NULL matches exactly
            n[0] = False
        else:
            t[0] = False
            n[0] = True  # plain IN on NULL input is NULL
    if negated:
        return ~t & ~n, n
    return t, n


def _leaf_masks_cmp(
    dictionary: Dictionary, op: str, literal: Any
) -> tuple[np.ndarray, np.ndarray]:
    """(t, n) global masks for ``field <op> literal``."""
    n_values = len(dictionary)
    t = np.zeros(n_values, dtype=bool)
    n = np.zeros(n_values, dtype=bool)
    if dictionary.has_null:
        n[0] = True  # comparisons with NULL are NULL
    if literal is None:
        n[:] = True
        return t, n
    if op in ("=", "!="):
        gid = _lookup_gid(dictionary, literal)
        if op == "=":
            if gid is not None:
                t[gid] = True
        else:
            offset = 1 if dictionary.has_null else 0
            t[offset:] = True
            if gid is not None:
                t[gid] = False
        return t, n
    lo, hi = dictionary.gid_range(op, literal)
    t[lo:hi] = True
    if dictionary.has_null:
        t[0] = False
    return t, n


def _leaf_masks_truthy(dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """(t, n) masks for using a (numeric) field directly as a condition."""
    n_values = len(dictionary)
    t = np.zeros(n_values, dtype=bool)
    n = np.zeros(n_values, dtype=bool)
    for gid, value in enumerate(dictionary.values()):
        if value is None:
            n[gid] = True
        elif isinstance(value, str):
            raise UnsupportedQueryError(
                "a string-valued expression cannot be used as a condition"
            )
        else:
            t[gid] = bool(value != 0)
    return t, n


# -- compilation ---------------------------------------------------------------


def _compile_tree(
    where: Expr,
    ensure_field: Callable[[Expr], str],
    dictionary_of: Callable[[str], Dictionary],
    chunk_dict_index_of: Callable[[str], ChunkDictIndex],
    leaf_cache: Callable[[str, Callable[[], _Leaf]], _Leaf] | None = None,
) -> _Node:
    """Normalize a WHERE expression into a tree of leaf predicates."""

    def leaf(expr: Expr, operand: Expr, masks_of: Callable, *args: Any) -> _Leaf:
        def build() -> _Leaf:
            field = ensure_field(operand)
            t_mask, n_mask = masks_of(dictionary_of(field), *args)
            counters.increment("datastore.restriction.leaves_compiled")
            return _Leaf(field, t_mask, n_mask, chunk_dict_index_of(field))

        # Keyed by rendered text, not the AST: Literal(1) == Literal(True)
        # and they hash alike, but _lookup_gid finds no True.
        return build() if leaf_cache is None else leaf_cache(expr.sql(), build)

    def compile_node(expr: Expr) -> _Node:
        if isinstance(expr, BinaryOp) and expr.op == "AND":
            return _And(compile_node(expr.left), compile_node(expr.right))
        if isinstance(expr, BinaryOp) and expr.op == "OR":
            return _Or(compile_node(expr.left), compile_node(expr.right))
        if isinstance(expr, UnaryOp) and expr.op == "NOT":
            return _Not(compile_node(expr.operand))
        if isinstance(expr, InList):
            return leaf(expr, expr.operand, _leaf_masks_in, expr.values, expr.negated)
        if isinstance(expr, BinaryOp) and expr.op in _CMP_OPS:
            left_lit = isinstance(expr.left, Literal)
            right_lit = isinstance(expr.right, Literal)
            if right_lit and not left_lit:
                return leaf(expr, expr.left, _leaf_masks_cmp, expr.op, expr.right.value)
            if left_lit and not right_lit:
                return leaf(
                    expr, expr.right, _leaf_masks_cmp, _FLIP[expr.op], expr.left.value
                )
        # Anything else used as a condition (constant=constant or
        # field-vs-field comparison, bare function call, bare field,
        # arithmetic): materialize the whole predicate and test truthiness.
        return leaf(expr, expr, _leaf_masks_truthy)

    return compile_node(where)


def compile_restriction(
    where: Expr | None,
    row_starts: np.ndarray,
    ensure_field: Callable[[Expr], str],
    dictionary_of: Callable[[str], Dictionary],
    chunk_dict_index_of: Callable[[str], ChunkDictIndex],
    positions_of: Callable[[str, slice | np.ndarray], np.ndarray],
    leaf_cache: Callable[[str, Callable[[], _Leaf]], _Leaf] | None = None,
) -> Restriction:
    """Compile a WHERE expression and classify the whole store with it.

    ``row_starts`` says where each chunk's rows begin, plus the end.
    ``ensure_field`` materializes an arbitrary scalar expression as a
    (virtual) field and returns its name — the hook into the
    datastore's virtual-field machinery. ``chunk_dict_index_of`` returns
    a field's (memoised) chunk-dictionary index, ``positions_of`` a
    field's CSR positions at a row selection (a slice or whole-store row
    indices; an index into that index's ``gids``, see
    ``FieldStore.row_positions``). ``leaf_cache(text, build)``, when
    given, keeps compiled leaves by their conjunct's rendered SQL; as a
    kept leaf calls no hook, ``fields`` come from the compiled leaves.
    """
    if where is None:
        return Restriction(*_classify(None, row_starts, positions_of), row_starts)
    root = _compile_tree(
        where, ensure_field, dictionary_of, chunk_dict_index_of, leaf_cache
    )
    return Restriction(
        *_classify(root, row_starts, positions_of),
        row_starts,
        tuple(sorted(root.fields)),
    )
