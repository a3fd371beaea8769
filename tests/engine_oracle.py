"""The gid-space per-chunk kernels the engine had before it moved onto chunk-ids.

Kept as the oracle of ``tests/test_engine.py``, bodies unchanged but
for COUNT DISTINCT's pair encoding: every kernel takes the per-row int64
*global-ids* of the group and argument fields and sorts them
(``np.unique`` / ``np.lexsort``) once per aggregate per chunk. The
chunk-id kernels of :mod:`repro.core.engine` must return the same
partials array for array, dtypes included. Imports nothing from the
engine.
"""

from __future__ import annotations

import numpy as np


def _sparse_bincount(ids, weights=None):
    """(unique ids, per-id totals) — a compact bincount."""
    if not ids.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    unique, inverse = np.unique(ids, return_inverse=True)
    if weights is None:
        totals = np.bincount(inverse, minlength=unique.size)
    else:
        totals = np.bincount(inverse, weights=weights, minlength=unique.size)
    return unique.astype(np.int64), totals


def _valid(mask, arg_ids, arg_has_null):
    valid = arg_ids != 0 if arg_has_null else np.ones(arg_ids.shape, dtype=bool)
    return valid if mask is None else valid & mask


def presence(group_ids, mask):
    return _sparse_bincount(group_ids if mask is None else group_ids[mask])


def count_value(group_ids, mask, arg_ids, arg_has_null):
    return _sparse_bincount(group_ids[_valid(mask, arg_ids, arg_has_null)])


def total(group_ids, mask, arg_ids, arg_has_null, numeric_values):
    valid = _valid(mask, arg_ids, arg_has_null)
    groups = group_ids[valid]
    gids, totals = _sparse_bincount(groups, weights=numeric_values[arg_ids[valid]])
    __, counts = _sparse_bincount(groups)
    return gids, totals, counts


def extreme(group_ids, mask, arg_ids, arg_has_null, is_min):
    valid = _valid(mask, arg_ids, arg_has_null)
    groups = group_ids[valid]
    values = arg_ids[valid].astype(np.int64, copy=False)
    if not groups.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # Sort by (group, value); the first row per group is its min,
    # the last its max.
    order = np.lexsort((values, groups))
    sorted_groups = groups[order]
    sorted_values = values[order]
    edge = np.ones(sorted_groups.size, dtype=bool)
    if is_min:
        edge[1:] = sorted_groups[1:] != sorted_groups[:-1]
    else:
        edge[:-1] = sorted_groups[1:] != sorted_groups[:-1]
    return sorted_groups[edge], sorted_values[edge]


def distinct_pairs(group_ids, mask, arg_ids, arg_has_null, n_groups, n_args):
    """Sorted distinct ``group gid << b | argument gid``, ``b`` the bit length
    of the largest argument gid; uint32 when the largest group gid fits
    beside it, else uint64."""
    bits = (n_args - 1).bit_length()
    dtype = np.uint32 if (n_groups - 1).bit_length() + bits <= 32 else np.uint64
    valid = _valid(mask, arg_ids, arg_has_null)
    pairs = (group_ids[valid].astype(dtype) << bits) | arg_ids[valid].astype(dtype)
    return np.unique(pairs)
