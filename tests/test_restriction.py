"""Restriction analysis tests: skipping soundness and Kleene masks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions, FieldStore
from repro.core.restriction import (
    FULL,
    PARTIAL,
    SKIP,
    ChunkStatus,
    _compile_tree,
    compile_restriction,
    pick,
)
from repro.core.table import Table
from repro.sql.ast_nodes import BinaryOp, FieldRef, InList, Literal, UnaryOp
from repro.sql.parser import parse_query

from tests import restriction_oracle


def _store(values, extra=None, max_chunk_rows=4):
    data = {"v": values}
    if extra is not None:
        data["w"] = extra
    table = Table.from_columns(data)
    return DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("v",),
            max_chunk_rows=max_chunk_rows,
            reorder_rows=True,
        ),
    )


def _compile(store, where_sql: str):
    return _compile_expr(
        store, parse_query(f"SELECT v FROM data WHERE {where_sql}").where
    )


def _hooks(store):
    return (
        store.row_starts,
        store.ensure_field,
        lambda name: store.field(name).dictionary,
        lambda name: store.field(name).chunk_dict_index(),
        lambda name, rows: pick(store.field(name).row_positions(), rows),
    )


def _compile_expr(store, where):
    return compile_restriction(where, *_hooks(store))


def _tree(store, where):
    """The predicate tree ``compile_restriction`` classifies the store with."""
    return _compile_tree(where, *_hooks(store)[1:4])


def _root(store, where_sql: str):
    return _tree(store, parse_query(f"SELECT v FROM data WHERE {where_sql}").where)


def _decide_all(store, where_sql: str):
    restriction = _compile(store, where_sql)
    return [restriction.decide(i) for i in range(store.n_chunks)]


def _reference_matches(store, where_sql: str):
    """Ground truth: evaluate the predicate per row via the dictionary."""
    from repro.core.expr_eval import evaluate, truthy

    where = parse_query(f"SELECT v FROM data WHERE {where_sql}").where
    matches = []
    for chunk_index in range(store.n_chunks):
        field_names = [
            name for name in store.fields if not store.fields[name].virtual
        ]
        columns = {
            name: store.field(name).value_array()[
                store.field(name).row_global_ids(chunk_index)
            ]
            for name in field_names
        }
        n = store.chunk_row_counts[chunk_index]
        chunk_matches = []
        for row in range(n):
            row_env = {name: columns[name][row] for name in field_names}
            chunk_matches.append(truthy(evaluate(where, row_env.__getitem__)))
        matches.append(chunk_matches)
    return matches


class TestDecisions:
    def test_unrestricted_is_full(self):
        store = _store(["a"] * 10)
        restriction = compile_restriction(
            None, store.row_starts, store.ensure_field, None, None, None
        )
        assert restriction.verdicts.tolist() == [FULL] * store.n_chunks
        assert restriction.active.tolist() == list(range(store.n_chunks))
        assert restriction.select(restriction.active) == slice(0, store.n_rows)
        assert restriction.decide(0).status is ChunkStatus.FULL

    def test_in_skips_nonmatching_chunks(self):
        store = _store(["a"] * 8 + ["b"] * 8 + ["c"] * 8)
        decisions = _decide_all(store, "v IN ('a')")
        statuses = [d.status for d in decisions]
        assert ChunkStatus.SKIP in statuses
        assert ChunkStatus.FULL in statuses
        assert ChunkStatus.PARTIAL not in statuses  # chunks are pure

    def test_absent_value_skips_everything(self):
        store = _store(["a"] * 8 + ["b"] * 8)
        decisions = _decide_all(store, "v = 'zz'")
        assert all(d.status is ChunkStatus.SKIP for d in decisions)

    def test_partial_produces_row_mask(self):
        # Two values in one chunk: restriction on one -> PARTIAL.
        store = _store(["a", "b"] * 4, max_chunk_rows=100)
        decisions = _decide_all(store, "v = 'a'")
        assert decisions[0].status is ChunkStatus.PARTIAL
        assert decisions[0].row_mask.sum() == 4

    def test_not_in_flips(self):
        store = _store(["a"] * 8 + ["b"] * 8)
        decisions = _decide_all(store, "v NOT IN ('a')")
        by_status = {d.status for d in decisions}
        assert by_status == {ChunkStatus.SKIP, ChunkStatus.FULL}

    def test_range_skipping_via_ranks(self):
        store = _store([f"{c}" for c in "aabbccddee" * 4])
        decisions = _decide_all(store, "v > 'c'")
        assert any(d.status is ChunkStatus.SKIP for d in decisions)
        assert any(d.status is not ChunkStatus.SKIP for d in decisions)

    def test_numeric_range(self):
        store = _store(list(range(40)))
        decisions = _decide_all(store, "v >= 30")
        skipped_rows = sum(
            store.chunk_row_counts[i]
            for i, d in enumerate(decisions)
            if d.status is ChunkStatus.SKIP
        )
        assert skipped_rows >= 24  # chunks entirely below 30


class TestSoundness:
    """SKIP chunks contain no match; FULL chunks contain only matches."""

    @pytest.mark.parametrize(
        "where",
        [
            "v IN ('a', 'c')",
            "v = 'b'",
            "v != 'b'",
            "NOT v IN ('a')",
            "v > 'a' AND v <= 'c'",
            "v = 'a' OR w = 5",
            "NOT (v = 'a' OR w > 3)",
            "v IS NOT NULL AND w < 4",
            "w IN (1, 2) AND NOT v = 'c'",
        ],
    )
    def test_against_row_reference(self, where):
        import random

        random.seed(13)
        n = 60
        values = [random.choice(["a", "b", "c", None]) for __ in range(n)]
        extras = [random.randrange(6) for __ in range(n)]
        store = _store(values, extras, max_chunk_rows=7)
        reference = _reference_matches(store, where)
        restriction = _compile(store, where)
        for chunk_index in range(store.n_chunks):
            decision = restriction.decide(chunk_index)
            expected = reference[chunk_index]
            if decision.status is ChunkStatus.SKIP:
                assert not any(expected)
            elif decision.status is ChunkStatus.FULL:
                assert all(expected)
            else:
                assert decision.row_mask.tolist() == expected


class TestNullSemantics:
    def test_null_rows_never_match_comparisons(self):
        store = _store(["a", None, "b", None] * 3, max_chunk_rows=100)
        decision = _compile(store, "v != 'zz'").decide(0)
        # NULL rows must be excluded even under !=.
        assert decision.status is ChunkStatus.PARTIAL
        assert decision.row_mask.sum() == 6

    def test_not_over_null_excluded(self):
        store = _store(["a", None] * 4, max_chunk_rows=100)
        decision = _compile(store, "NOT v = 'zz'").decide(0)
        # NOT(NULL) is NULL: only the 4 'a' rows match.
        assert decision.row_mask.sum() == 4

    def test_is_null_matches_only_nulls(self):
        store = _store(["a", None] * 4, max_chunk_rows=100)
        decision = _compile(store, "v IS NULL").decide(0)
        assert decision.row_mask.sum() == 4


# -- the whole-store vector pass against the per-chunk scalar algebra ----------

_V_VALUES = ["a", "b", "c", "d", None]
_V_LITERALS = ["a", "b", "c", "d", "zz", None]  # "zz" matches nothing
_W_LITERALS = [0, 1, 2, 3, 5, 9, -1, 2.5, None]
_FIELD_LITERALS = {"v": _V_LITERALS, "w": _W_LITERALS}


@st.composite
def _leaves(draw):
    name = draw(st.sampled_from(["v", "w"]))
    literals = st.sampled_from(_FIELD_LITERALS[name])
    operand = FieldRef(name)
    kind = draw(st.sampled_from(["in", "cmp", "flipped", "truthy", "virtual"]))
    if kind == "in":
        values = tuple(draw(st.lists(literals, min_size=1, max_size=3)))
        return InList(operand, values, negated=draw(st.booleans()))
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    if kind == "cmp":
        return BinaryOp(op, operand, Literal(draw(literals)))
    if kind == "flipped":
        return BinaryOp(op, Literal(draw(literals)), operand)
    if kind == "truthy":
        return FieldRef("w")  # a bare numeric field used as a condition
    shifted = BinaryOp("+", FieldRef("w"), Literal(1))  # a virtual field
    return BinaryOp(op, shifted, Literal(draw(st.sampled_from([0, 2, 4, None]))))


def _contradictions():
    """The drill-down generator's ``v IN (…) AND v IN (…)`` refinements."""
    lists = st.lists(st.sampled_from(_V_LITERALS), min_size=1, max_size=2)
    return st.builds(
        lambda xs, ys: BinaryOp(
            "AND", InList(FieldRef("v"), tuple(xs)), InList(FieldRef("v"), tuple(ys))
        ),
        lists,
        lists,
    )


_PREDICATES = st.recursive(
    _leaves() | _contradictions(),
    lambda children: st.one_of(
        st.builds(lambda a, b: BinaryOp("AND", a, b), children, children),
        st.builds(lambda a, b: BinaryOp("OR", a, b), children, children),
        st.builds(lambda a: UnaryOp("NOT", a), children),
    ),
    max_leaves=6,
)

#: (partition fields, max_chunk_rows): one-row chunks, small chunks on
#: one and on two fields, and a single-chunk store.
_LAYOUTS = [(("v",), 1), (("v",), 3), (("v", "w"), 2), (("w",), 5), (None, 1000)]


_VERDICTS = {ChunkStatus.SKIP: SKIP, ChunkStatus.FULL: FULL, ChunkStatus.PARTIAL: PARTIAL}


def _assert_classified_as_the_oracle(store, where) -> None:
    """Verdict array, active chunks, PARTIAL rows' CSR, the per-chunk view
    and the rows of any run equal what the per-chunk algebra decides."""
    restriction = _compile_expr(store, where)
    root = _tree(store, where)
    verdicts, kept, starts = [], [], store.row_starts
    for chunk_index in range(store.n_chunks):
        status, row_mask = restriction_oracle.decide(root, store, chunk_index)
        decision = restriction.decide(chunk_index)
        assert decision.status is status
        assert (decision.row_mask is None) == (row_mask is None)
        if row_mask is not None:
            assert decision.row_mask.tolist() == row_mask.tolist()
        verdicts.append(_VERDICTS[status])
        rows = np.arange(starts[chunk_index], starts[chunk_index + 1])
        kept.append(rows if row_mask is None else rows[row_mask])
    assert restriction.verdicts.tolist() == verdicts
    active = [i for i, verdict in enumerate(verdicts) if verdict != SKIP]
    assert restriction.active.tolist() == active
    partial = [kept[i] if v == PARTIAL else kept[i][:0] for i, v in enumerate(verdicts)]
    assert restriction.offsets.tolist() == [0, *np.cumsum([r.size for r in partial])]
    assert restriction.rows.tolist() == [row for rows in partial for row in rows]
    # The chunk-cache weight covers the verdicts and the CSR.
    held = (restriction.verdicts, restriction.rows, restriction.offsets)
    assert restriction.size_bytes() >= sum(array.nbytes for array in held)
    for run in ([active] if active else []) + [[i] for i in active] + [active[1::2]]:
        if run:
            selected = restriction.select(run)
            if isinstance(selected, slice):
                selected = np.arange(selected.start, selected.stop)
            assert selected.tolist() == [row for i in run for row in kept[i]]


#: One chunk of each ``w``, each holding ``v`` = 'a' and 'b': the summaries
#: leave every chunk undecided, and the rows decide them three ways.
_MIXED_CHUNKS = [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
_MIXED_VERDICTS = {"v = 'a'": PARTIAL, "v = 'a' OR v = 'b'": FULL, "v IN ('a') AND v IN ('b')": SKIP}


def _two_field_store(rows, layout, reorder=False):
    partition_fields, max_chunk_rows = layout
    return DataStore.from_table(
        Table.from_columns({"v": [v for v, __ in rows], "w": [w for __, w in rows]}),
        DataStoreOptions(
            partition_fields=partition_fields,
            max_chunk_rows=max_chunk_rows,
            reorder_rows=reorder and partition_fields is not None,
        ),
    )


def _on_mixed_chunks(where_sql: str):
    where = parse_query(f"SELECT v FROM data WHERE {where_sql}").where
    return example(rows=_MIXED_CHUNKS, layout=(("w",), 2), reorder=False, where=where)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(_V_VALUES), st.sampled_from([0, 1, 2, 3, 5, None])
        ),
        min_size=1,
        max_size=24,
    ),
    layout=st.sampled_from(_LAYOUTS),
    reorder=st.booleans(),
    where=_PREDICATES,
)
@_on_mixed_chunks("v = 'a'")
@_on_mixed_chunks("v = 'a' OR v = 'b'")
@_on_mixed_chunks("v IN ('a') AND v IN ('b')")
def test_vector_pass_equals_the_per_chunk_algebra(rows, layout, reorder, where):
    # An all-NULL column gets a numeric dictionary, which (rightly)
    # refuses to order-compare against the string literals drawn for v.
    assume(any(v is not None for v, __ in rows))
    store = _two_field_store(rows, layout, reorder)
    root = _tree(store, where)
    outcomes = root.outcomes()
    assert all(vector.shape == (store.n_chunks,) for vector in outcomes)
    for chunk_index in range(store.n_chunks):
        expected = restriction_oracle.summary(root, store, chunk_index)
        assert tuple(bool(v[chunk_index]) for v in outcomes) == expected
    _assert_classified_as_the_oracle(store, where)


def test_rows_decide_what_the_summaries_leave_open():
    store = _two_field_store(_MIXED_CHUNKS, (("w",), 2))
    for where, verdict in _MIXED_VERDICTS.items():
        root = _root(store, where)
        for chunk_index in range(store.n_chunks):
            summary = restriction_oracle.summary(root, store, chunk_index)
            assert summary.may_true and not summary.all_true
        assert _compile(store, where).verdicts.tolist() == [verdict] * store.n_chunks


def test_zero_row_chunks_take_the_reduction_identity():
    # reduceat would read a neighbour's element for an empty segment.
    store = DataStore.from_table(Table.from_columns({"v": [], "w": []}))
    assert store.chunk_row_counts == [0]
    for where in ("v = 'a'", "NOT v = 'a'", "v IS NULL OR w > 1"):
        root = _root(store, where)
        expected = restriction_oracle.summary(root, store, 0)
        assert tuple(bool(v[0]) for v in root.outcomes()) == expected
        assert _compile(store, where).decide(0).status is ChunkStatus.SKIP
        _assert_classified_as_the_oracle(
            store, parse_query(f"SELECT v FROM data WHERE {where}").where
        )


def test_zero_chunk_store_classifies_without_error():
    store = _store(["a", "b"] * 4)
    empty = DataStore(store.options, 0, [], {
        name: FieldStore(name, field.dictionary, [])
        for name, field in store.fields.items()
    })
    outcomes = _root(empty, "v = 'a' AND NOT v IN ('b')").outcomes()
    assert all(vector.shape == (0,) for vector in outcomes)
    assert empty.execute("SELECT v FROM data WHERE v = 'a'").table.n_rows == 0


def test_a_leaf_is_frozen_and_weighs_every_array_it_holds():
    """Shared from the chunk cache across threads, a leaf computes all
    it holds up front and never writes it again."""
    store = _store(["a", "b", None, "c"] * 6, list(range(24)), max_chunk_rows=5)
    leaf = _root(store, "v IN ('a', 'c')")
    arrays = (leaf._t, leaf._n, leaf._entries, *leaf.outcomes())
    assert leaf.outcomes() is leaf.outcomes()
    assert not any(array.flags.writeable for array in arrays)
    assert leaf.size_bytes() == 64 + sum(array.nbytes for array in arrays)


def test_kept_leaves_name_their_fields_without_the_ensure_hook():
    """A leaf served by ``leaf_cache`` calls no hook, so the restriction's
    fields come from the compiled leaves, not from ``ensure_field``."""
    store = _store(["a", "b", None, "c"] * 6, list(range(24)), max_chunk_rows=5)
    where = parse_query("SELECT v FROM data WHERE v IN ('a') AND NOT w > 6").where
    kept = {}

    def leaf_cache(text, build):
        if text not in kept:
            kept[text] = build()
        return kept[text]

    def refuse(expr):
        raise AssertionError(f"{expr.sql()} was compiled again")

    first = compile_restriction(where, *_hooks(store), leaf_cache)
    row_starts, __, *hooks = _hooks(store)
    again = compile_restriction(where, row_starts, refuse, *hooks, leaf_cache)
    assert sorted(kept) == ["(v IN ('a'))", "(w > 6)"]
    assert again.fields == first.fields == ("v", "w")
    assert again.verdicts.tolist() == first.verdicts.tolist()
    assert again.rows.tolist() == first.rows.tolist()
