"""Select-list planning shared by the column-store and row backends.

A grouped query's select items are rewritten over two kinds of
placeholder columns:

- ``__group_<i>`` — the value of the i-th GROUP BY expression,
- ``__agg_<j>`` — the value of the j-th distinct aggregate.

Every backend computes those per group (each in its own way) and then
evaluates the same rewritten expressions — so expressions *around*
aggregates (``SUM(x) / COUNT(*)``) behave identically everywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.errors import UnsupportedQueryError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    Expr,
    FieldRef,
    FuncCall,
    InList,
    Query,
    Star,
    UnaryOp,
    walk,
)


@dataclass(frozen=True)
class GroupPlan:
    """The planned shape of a grouped (or globally aggregated) query."""

    group_exprs: tuple[Expr, ...]
    aggregates: tuple[Aggregate, ...]
    #: (output column name, expression over __group_i / __agg_j)
    items: tuple[tuple[str, Expr], ...]

    @property
    def grouped(self) -> bool:
        return bool(self.group_exprs)


def is_aggregation_query(query: Query) -> bool:
    """Whether the query takes the grouped path (vs plain projection)."""
    if query.group_by:
        return True
    return any(
        isinstance(node, Aggregate)
        for item in query.select
        for node in walk(item.expr)
    )


def plan_group_query(query: Query) -> GroupPlan:
    """Rewrite the select list over group/aggregate placeholders.

    Raises :class:`UnsupportedQueryError` when a select item references
    a column that is neither grouped by nor inside an aggregate.
    """
    group_sqls = {expr.sql(): i for i, expr in enumerate(query.group_by)}
    agg_order: list[Aggregate] = []
    agg_index: dict[str, int] = {}

    def rewrite(node: Expr) -> Expr:
        rendered = node.sql()
        if rendered in group_sqls:
            return FieldRef(f"__group_{group_sqls[rendered]}")
        if isinstance(node, Aggregate):
            if rendered not in agg_index:
                agg_index[rendered] = len(agg_order)
                agg_order.append(node)
            return FieldRef(f"__agg_{agg_index[rendered]}")
        if isinstance(node, FuncCall):
            return FuncCall(node.name, tuple(rewrite(a) for a in node.args))
        if isinstance(node, BinaryOp):
            return BinaryOp(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, rewrite(node.operand))
        if isinstance(node, InList):
            return InList(rewrite(node.operand), node.values, node.negated)
        if isinstance(node, FieldRef):
            raise UnsupportedQueryError(
                f"field {node.name!r} is selected but not grouped by"
            )
        if isinstance(node, Star):
            raise UnsupportedQueryError("'*' is only valid inside COUNT(*)")
        return node

    items = tuple(
        (item.output_name(), rewrite(item.expr)) for item in query.select
    )
    return GroupPlan(
        group_exprs=tuple(query.group_by),
        aggregates=tuple(agg_order),
        items=items,
    )


def resolve_group_aliases(query: Query) -> Query:
    """Replace select-alias references in GROUP BY with their expressions.

    Supports the paper's Query 2 style: ``SELECT date(timestamp) AS
    date ... GROUP BY date``.
    """
    if not query.group_by:
        return query
    aliases = {
        item.alias: item.expr for item in query.select if item.alias is not None
    }
    changed = False
    new_group = []
    for expr in query.group_by:
        if isinstance(expr, FieldRef) and expr.name in aliases:
            new_group.append(aliases[expr.name])
            changed = True
        else:
            new_group.append(expr)
    if not changed:
        return query
    return Query(
        select=query.select,
        table=query.table,
        where=query.where,
        group_by=tuple(new_group),
        having=query.having,
        order_by=query.order_by,
        limit=query.limit,
    )


# -- canonicalization and fingerprints -----------------------------------------
#
# The serving layer's semantic result cache keys on *canonical* query
# plans so that semantically identical queries share one cache entry.
# Only transformations that provably preserve results are applied:
#
# - nested AND/OR chains are flattened, deduplicated, and sorted by
#   canonical SQL (both connectives are commutative, associative and
#   idempotent under SQL's three-valued logic, and the restriction
#   compiler's conjunction summary is symmetric);
# - IN lists are sorted with a type-tagged key and deduplicated
#   (membership is order- and multiplicity-insensitive);
# - GROUP BY aliases are resolved (``resolve_group_aliases``), exactly
#   as the engine itself does before execution.
#
# Select items, GROUP BY order, HAVING, ORDER BY and LIMIT are left
# untouched: their order is load-bearing (output columns, composite
# group layout, tie-breaks), so reordering them could change results.


def _literal_order_key(value: Any) -> tuple[bool, str, str]:
    """A deterministic total order over heterogeneous literal values."""
    return (value is not None, value.__class__.__name__, repr(value))


def _flatten_connective(op: str, expr: Expr) -> Iterator[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == op:
        yield from _flatten_connective(op, expr.left)
        yield from _flatten_connective(op, expr.right)
    else:
        yield expr


def canonical_expr(expr: Expr) -> Expr:
    """Rewrite ``expr`` into its canonical, semantics-preserving form."""
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
        parts = [
            canonical_expr(part)
            for part in _flatten_connective(expr.op, expr)
        ]
        unique: dict[str, Expr] = {}
        for part in parts:
            unique.setdefault(part.sql(), part)
        ordered = [unique[rendered] for rendered in sorted(unique)]
        folded = ordered[0]
        for nxt in ordered[1:]:
            folded = BinaryOp(expr.op, folded, nxt)
        return folded
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, canonical_expr(expr.left), canonical_expr(expr.right)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, canonical_expr(expr.operand))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(canonical_expr(arg) for arg in expr.args)
        )
    if isinstance(expr, InList):
        unique_values: dict[tuple[bool, str, str], Any] = {}
        for value in expr.values:
            unique_values.setdefault(_literal_order_key(value), value)
        ordered_values = tuple(
            unique_values[key] for key in sorted(unique_values)
        )
        return InList(
            canonical_expr(expr.operand), ordered_values, expr.negated
        )
    if isinstance(expr, Aggregate):
        return Aggregate(
            expr.name,
            canonical_expr(expr.arg),
            expr.distinct,
            expr.approximate,
            expr.m,
        )
    return expr


def canonical_query(query: Query) -> Query:
    """The canonical form of ``query`` used for semantic cache keying.

    Executing the canonical query is bit-identical to executing the
    original: only the WHERE clause is rewritten (commutative /
    idempotent transformations), and GROUP BY aliases are resolved the
    same way :meth:`DataStore.execute` resolves them.
    """
    resolved = resolve_group_aliases(query)
    if resolved.where is None:
        return resolved
    return replace(resolved, where=canonical_expr(resolved.where))


def where_conjuncts(query: Query) -> tuple[str, ...]:
    """The canonical WHERE, split into its sorted top-level conjuncts.

    A drill-down refinement's conjunct set is a superset of its
    parent's (the invariant the workload generator keeps). Queries
    without a WHERE return the empty tuple.
    """
    canonical = canonical_query(query)
    if canonical.where is None:
        return ()
    return tuple(
        sorted(
            part.sql()
            for part in _flatten_connective("AND", canonical.where)
        )
    )


def query_fingerprint(query: Query) -> str:
    """A stable content hash of the canonical query plan."""
    rendered = canonical_query(query).sql()
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()
