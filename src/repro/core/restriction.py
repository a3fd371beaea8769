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
   cacheable). Otherwise an exact per-row mask is computed by gathering
   the leaf's per-entry outcomes through the chunk's row positions
   (each row's index into the CSR column) and composing Kleene logic
   at row level.
4. All of that happens once, when the WHERE is compiled: the product is
   a :class:`Restriction`, one immutable decision per chunk of the
   store, which every query carrying the same WHERE can read.

Skipping is sound: the summary algebra only ever over-approximates the
set of possible row outcomes, so a skipped chunk provably contains no
matching row. The row-mask path is exact, and the decision is refined
with it (a PARTIAL candidate whose mask turns out empty is skipped).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.errors import UnsupportedQueryError
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
    """A compiled predicate node."""

    def outcomes(self) -> _Outcomes:
        """The summary vectors over every chunk of the store."""
        raise NotImplementedError

    def row_vectors(
        self, chunk_index: int, row_positions
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-row (t, n) Kleene vectors for one chunk."""
        raise NotImplementedError


class _Leaf(_Node):
    """A predicate over one field, precomputed as global (t, n) masks."""

    def __init__(
        self,
        field: str,
        t_mask: np.ndarray,
        n_mask: np.ndarray,
        index: ChunkDictIndex,
    ) -> None:
        self.field = field
        self._t = t_mask
        self._n = n_mask
        self._index = index
        # One gather for the whole store: (t, n) of every chunk-dictionary
        # entry of every chunk, packed as bit 0 / bit 1 of one byte.
        self._entries = (t_mask.view(np.uint8) | n_mask.view(np.uint8) << 1).take(
            index.gids
        )

    @staticmethod
    def _unpack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (entries & 1).view(bool), (entries >> 1).view(bool)

    def outcomes(self) -> _Outcomes:
        index = self._index
        t, n = self._unpack(self._entries)
        false = ~(t | n)
        return _Outcomes(
            may_true=index.reduce(np.logical_or, t),
            may_false=index.reduce(np.logical_or, false),
            may_null=index.reduce(np.logical_or, n),
            all_true=index.reduce(np.logical_and, t),
            all_false=index.reduce(np.logical_and, false),
        )

    def row_vectors(self, chunk_index, row_positions):
        # A row's CSR position is its chunk-dictionary entry: one take.
        return self._unpack(self._entries.take(row_positions(self.field, chunk_index)))


class _Binary(_Node):
    def __init__(self, left: _Node, right: _Node) -> None:
        self.left = left
        self.right = right


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

    def row_vectors(self, chunk_index, row_positions):
        t1, n1 = self.left.row_vectors(chunk_index, row_positions)
        t2, n2 = self.right.row_vectors(chunk_index, row_positions)
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

    def row_vectors(self, chunk_index, row_positions):
        t1, n1 = self.left.row_vectors(chunk_index, row_positions)
        t2, n2 = self.right.row_vectors(chunk_index, row_positions)
        true = t1 | t2
        return true, ~true & (n1 | n2)


class _Not(_Node):
    def __init__(self, operand: _Node) -> None:
        self.operand = operand

    def outcomes(self) -> _Outcomes:
        s = self.operand.outcomes()
        return _Outcomes(
            may_true=s.may_false,
            may_false=s.may_true,
            may_null=s.may_null,
            all_true=s.all_false,
            all_false=s.all_true,
        )

    def row_vectors(self, chunk_index, row_positions):
        t, n = self.operand.row_vectors(chunk_index, row_positions)
        return ~t & ~n, n


class Restriction:
    """A classified WHERE clause: one immutable decision per chunk.

    Nothing is filled in after construction, so one instance may serve
    any number of queries (and threads) that carry the same WHERE.
    ``fields`` names what the WHERE read, for the queries' accounting.
    """

    def __init__(
        self,
        decisions: list[ChunkDecision] | None,
        fields: tuple[str, ...] = (),
    ) -> None:
        self._decisions = decisions  # None: no WHERE, every chunk is FULL
        self.fields = fields

    @property
    def unrestricted(self) -> bool:
        return self._decisions is None

    def decide(self, chunk_index: int) -> ChunkDecision:
        """Skip / full / partial decision (with row mask) for one chunk."""
        if self._decisions is None:
            return _FULL
        return self._decisions[chunk_index]

    def size_bytes(self) -> int:
        """Resident bytes: one reference per chunk plus the PARTIAL masks."""
        decisions = self._decisions or ()
        return 64 + 8 * len(decisions) + sum(
            64 + decision.row_mask.nbytes
            for decision in decisions
            if decision.row_mask is not None
        )


def _classify(
    root: _Node, row_positions: Callable[[str, int], np.ndarray]
) -> list[ChunkDecision]:
    """Decide every chunk of the store: the vector pass, then row masks."""
    outcomes = root.outcomes()
    all_true = outcomes.all_true.tolist()
    decisions = [_SKIP] * len(all_true)
    for chunk_index in np.flatnonzero(outcomes.may_true).tolist():
        if all_true[chunk_index]:
            decisions[chunk_index] = _FULL
            continue
        row_mask, __ = root.row_vectors(chunk_index, row_positions)
        if not row_mask.any():
            continue
        if row_mask.all():
            decisions[chunk_index] = _FULL
        else:
            row_mask.setflags(write=False)
            decisions[chunk_index] = ChunkDecision(ChunkStatus.PARTIAL, row_mask)
    return decisions


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
) -> _Node:
    """Normalize a WHERE expression into a tree of leaf predicates."""

    def leaf(operand: Expr, masks_of: Callable[..., Any], *args: Any) -> _Leaf:
        field = ensure_field(operand)
        t_mask, n_mask = masks_of(dictionary_of(field), *args)
        return _Leaf(field, t_mask, n_mask, chunk_dict_index_of(field))

    def compile_node(expr: Expr) -> _Node:
        if isinstance(expr, BinaryOp) and expr.op == "AND":
            return _And(compile_node(expr.left), compile_node(expr.right))
        if isinstance(expr, BinaryOp) and expr.op == "OR":
            return _Or(compile_node(expr.left), compile_node(expr.right))
        if isinstance(expr, UnaryOp) and expr.op == "NOT":
            return _Not(compile_node(expr.operand))
        if isinstance(expr, InList):
            return leaf(expr.operand, _leaf_masks_in, expr.values, expr.negated)
        if isinstance(expr, BinaryOp) and expr.op in _CMP_OPS:
            left_lit = isinstance(expr.left, Literal)
            right_lit = isinstance(expr.right, Literal)
            if right_lit and not left_lit:
                return leaf(expr.left, _leaf_masks_cmp, expr.op, expr.right.value)
            if left_lit and not right_lit:
                return leaf(
                    expr.right, _leaf_masks_cmp, _FLIP[expr.op], expr.left.value
                )
        # Anything else used as a condition (constant=constant or
        # field-vs-field comparison, bare function call, bare field,
        # arithmetic): materialize the whole predicate and test truthiness.
        return leaf(expr, _leaf_masks_truthy)

    return compile_node(where)


def compile_restriction(
    where: Expr | None,
    ensure_field: Callable[[Expr], str],
    dictionary_of: Callable[[str], Dictionary],
    chunk_dict_index_of: Callable[[str], ChunkDictIndex],
    row_positions: Callable[[str, int], np.ndarray],
) -> Restriction:
    """Compile a WHERE expression and classify the whole store with it.

    ``ensure_field`` materializes an arbitrary scalar expression as a
    (virtual) field and returns its name — the hook into the
    datastore's virtual-field machinery. ``chunk_dict_index_of`` returns
    a field's (memoised) chunk-dictionary index, ``row_positions`` the
    CSR positions of one chunk's rows of a field (an index into that
    index's ``gids``, see ``FieldStore.row_positions``).
    """
    if where is None:
        return Restriction(None)
    fields: set[str] = set()

    def ensure(expr: Expr) -> str:
        name = ensure_field(expr)
        fields.add(name)
        return name

    root = _compile_tree(where, ensure, dictionary_of, chunk_dict_index_of)
    return Restriction(_classify(root, row_positions), tuple(sorted(fields)))
