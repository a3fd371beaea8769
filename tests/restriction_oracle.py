"""The scalar summary algebra, one chunk at a time — a test oracle.

Until PR 15 ``repro.core.restriction`` walked the predicate tree once
per chunk, gathering each leaf's global ``(t, n)`` masks through that
chunk's dictionary and composing five booleans bottom-up. The library
now answers every chunk of a query with one gather and one segmented
reduction per leaf; this module keeps the per-chunk formulation, over
the same compiled tree, so the two can be compared decision by decision.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.restriction import ChunkStatus, _And, _Leaf, _Not, _Or


class Summary(NamedTuple):
    may_true: bool
    may_false: bool
    may_null: bool
    all_true: bool
    all_false: bool


def summary(node, store, chunk_index: int) -> Summary:
    if isinstance(node, _Leaf):
        chunk_dict = store.field(node.field).chunks[chunk_index].chunk_dict
        t, n = node._t[chunk_dict], node._n[chunk_dict]
        false = ~t & ~n
        return Summary(
            bool(t.any()), bool(false.any()), bool(n.any()),
            bool(t.all()), bool(false.all()),
        )
    if isinstance(node, _Not):
        s = summary(node.operand, store, chunk_index)
        return Summary(s.may_false, s.may_true, s.may_null, s.all_false, s.all_true)
    a = summary(node.left, store, chunk_index)
    b = summary(node.right, store, chunk_index)
    if isinstance(node, _And):
        return Summary(
            a.may_true and b.may_true, a.may_false or b.may_false,
            a.may_null or b.may_null, a.all_true and b.all_true,
            a.all_false or b.all_false,
        )
    assert isinstance(node, _Or)
    return Summary(
        a.may_true or b.may_true, a.may_false and b.may_false,
        a.may_null or b.may_null, a.all_true or b.all_true,
        a.all_false and b.all_false,
    )


def row_vectors(node, store, chunk_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row Kleene (t, n), straight from the rows' global-ids."""
    if isinstance(node, _Leaf):
        gids = store.field(node.field).row_global_ids(chunk_index)
        return node._t[gids], node._n[gids]
    if isinstance(node, _Not):
        t, n = row_vectors(node.operand, store, chunk_index)
        return ~t & ~n, n
    t1, n1 = row_vectors(node.left, store, chunk_index)
    t2, n2 = row_vectors(node.right, store, chunk_index)
    if isinstance(node, _And):
        true = t1 & t2
        return true, ~true & ~((~t1 & ~n1) | (~t2 & ~n2))
    true = t1 | t2
    return true, ~true & (n1 | n2)


def decide(root, store, chunk_index: int) -> tuple[ChunkStatus, np.ndarray | None]:
    """The (status, row mask) the per-chunk algebra arrives at."""
    s = summary(root, store, chunk_index)
    if not s.may_true:
        return ChunkStatus.SKIP, None
    if s.all_true:
        return ChunkStatus.FULL, None
    row_mask, __ = row_vectors(root, store, chunk_index)
    if not row_mask.any():
        return ChunkStatus.SKIP, None
    if row_mask.all():
        return ChunkStatus.FULL, None
    return ChunkStatus.PARTIAL, row_mask
