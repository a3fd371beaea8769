"""Query results and the post-processing shared by every backend.

HAVING, ORDER BY and LIMIT are applied *identically* by the
column-store engine and by all row-store baseline backends — this
module is that single implementation, which is what makes exact
cross-backend result equality testable.

Determinism note: SQL leaves the order of ties unspecified; with
``LIMIT`` that would make results backend-dependent. We therefore
always append an implicit tie-break (all output columns, ascending,
NULL first) after the explicit ORDER BY keys. Every backend shares this
rule, so any query produces byte-identical result tables everywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.expr_eval import evaluate, truthy
from repro.core.table import Table
from repro.errors import BindError, UnsupportedQueryError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    Expr,
    FieldRef,
    FuncCall,
    InList,
    Literal,
    Query,
    SelectItem,
    UnaryOp,
    walk,
)


@dataclass
class ScanStats:
    """What a query touched — the quantities behind Section 6."""

    rows_total: int = 0
    rows_skipped: int = 0
    rows_cached: int = 0
    rows_scanned: int = 0
    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_cached: int = 0
    chunks_scanned: int = 0
    cells_scanned: int = 0
    # Chunks/rows the supervised process executor abandoned after its
    # retry budget (worker death, deadline overruns). Non-zero means
    # the answer is partial; QueryResult.row_coverage accounts exactly.
    chunks_unserved: int = 0
    rows_unserved: int = 0
    # The chunk indices the compiled restriction could NOT prove away
    # (every FULL/PARTIAL decision, served or not). Any refinement of
    # this query's WHERE can only touch a subset of these chunks, and
    # restriction analysis alone finds that subset.
    active_chunks: tuple[int, ...] = ()
    fields_accessed: tuple[str, ...] = ()
    memory_bytes: int = 0
    # Per-phase wall-clock (seconds): restriction analysis + cache
    # probes, the run-kernel fan-out, the deterministic merge, and
    # projection row materialization. Timings are measurement, not
    # semantics — result-equality tests compare the counters above.
    restriction_seconds: float = 0.0
    scan_seconds: float = 0.0
    merge_seconds: float = 0.0
    projection_seconds: float = 0.0

    @property
    def skip_fraction(self) -> float:
        return self.rows_skipped / self.rows_total if self.rows_total else 0.0

    @property
    def cache_fraction(self) -> float:
        return self.rows_cached / self.rows_total if self.rows_total else 0.0

    @property
    def scan_fraction(self) -> float:
        return self.rows_scanned / self.rows_total if self.rows_total else 0.0

    def merge(self, other: "ScanStats") -> "ScanStats":
        """Aggregate stats across shards / sub-queries."""
        return replace(
            self,
            rows_total=self.rows_total + other.rows_total,
            rows_skipped=self.rows_skipped + other.rows_skipped,
            rows_cached=self.rows_cached + other.rows_cached,
            rows_scanned=self.rows_scanned + other.rows_scanned,
            chunks_total=self.chunks_total + other.chunks_total,
            chunks_skipped=self.chunks_skipped + other.chunks_skipped,
            chunks_cached=self.chunks_cached + other.chunks_cached,
            chunks_scanned=self.chunks_scanned + other.chunks_scanned,
            cells_scanned=self.cells_scanned + other.cells_scanned,
            chunks_unserved=self.chunks_unserved + other.chunks_unserved,
            rows_unserved=self.rows_unserved + other.rows_unserved,
            active_chunks=tuple(
                sorted(set(self.active_chunks) | set(other.active_chunks))
            ),
            fields_accessed=tuple(
                sorted(set(self.fields_accessed) | set(other.fields_accessed))
            ),
            memory_bytes=self.memory_bytes + other.memory_bytes,
            restriction_seconds=self.restriction_seconds
            + other.restriction_seconds,
            scan_seconds=self.scan_seconds + other.scan_seconds,
            merge_seconds=self.merge_seconds + other.merge_seconds,
            projection_seconds=self.projection_seconds
            + other.projection_seconds,
        )


@dataclass
class QueryResult:
    """A result table plus execution metadata.

    ``complete``/``row_coverage`` implement the paper's graceful
    degradation: when the distributed layer cannot reach any replica of
    a shard — or the local process supervisor abandons a chunk after
    its retry budget — the query is still served, marked incomplete,
    with the exact fraction of rows the answer covers. Fault-free
    execution returns complete results (coverage 1.0).
    """

    table: Table
    stats: ScanStats = field(default_factory=ScanStats)
    elapsed_seconds: float = 0.0
    complete: bool = True
    row_coverage: float = 1.0

    def rows(self) -> list[tuple]:
        return list(self.table.iter_rows())

    def sorted_rows(self) -> list[tuple]:
        """Canonical row order for cross-backend comparison."""
        return self.table.sorted_rows()

    @property
    def column_names(self) -> list[str]:
        return self.table.field_names

    def content_fingerprint(self) -> str:
        """A stable hash of the result *content* (schema + rows).

        Rows are hashed in canonical sorted order with type-tagged
        cells, so two results fingerprint equal iff they hold the same
        column names and the same multiset of rows — independent of
        backend, executor, caching, or row order. Execution metadata
        (stats, timings, coverage) is deliberately excluded.
        """
        hasher = hashlib.sha256()
        hasher.update(repr(self.column_names).encode("utf-8"))
        for row in self.sorted_rows():
            tagged = tuple(
                (value.__class__.__name__, repr(value)) for value in row
            )
            hasher.update(repr(tagged).encode("utf-8"))
        return hasher.hexdigest()

    def content_equal(self, other: "QueryResult") -> bool:
        """Whether two results hold identical content (schema + rows)."""
        return (
            self.column_names == other.column_names
            and self.content_fingerprint() == other.content_fingerprint()
        )


# -- output expression resolution ---------------------------------------------


def resolve_output_expr(expr: Expr, select_items: tuple[SelectItem, ...]) -> Expr:
    """Rewrite ``expr`` to run over *output* rows.

    Sub-expressions structurally equal to a select item (or referencing
    its alias) become FieldRefs to that item's output column. Any
    aggregate that survives the rewrite has no matching select item and
    is rejected — HAVING/ORDER BY may only use aggregates that are also
    selected.
    """
    by_sql = {item.expr.sql(): item.output_name() for item in select_items}
    aliases = {item.alias for item in select_items if item.alias}

    def rewrite(node: Expr) -> Expr:
        rendered = node.sql()
        if rendered in by_sql:
            return FieldRef(by_sql[rendered])
        if isinstance(node, FieldRef) and node.name in aliases:
            return node
        if isinstance(node, FuncCall):
            return FuncCall(node.name, tuple(rewrite(a) for a in node.args))
        if isinstance(node, BinaryOp):
            return BinaryOp(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, rewrite(node.operand))
        if isinstance(node, InList):
            return InList(rewrite(node.operand), node.values, node.negated)
        return node

    rewritten = rewrite(expr)
    for node in walk(rewritten):
        if isinstance(node, Aggregate):
            raise UnsupportedQueryError(
                f"aggregate {node.sql()} in HAVING/ORDER BY must also "
                "appear in the SELECT list"
            )
    return rewritten


def evaluate_output(expr: Expr, row: dict[str, Any]) -> Any:
    """Evaluate a resolved output expression against one output row."""

    def get_value(name: str) -> Any:
        try:
            return row[name]
        except KeyError:
            raise BindError(
                f"unknown output column {name!r}; row has {sorted(row)}"
            ) from None

    return evaluate(expr, get_value)


# -- shared post-processing -----------------------------------------------------


def apply_having(
    rows: list[dict[str, Any]], query: Query
) -> list[dict[str, Any]]:
    """Filter output rows by the HAVING clause (no-op when absent)."""
    if query.having is None:
        return rows
    predicate = resolve_output_expr(query.having, query.select)
    return [row for row in rows if truthy(evaluate_output(predicate, row))]


def _sort_key_fn(expr: Expr):
    def key(row: dict[str, Any]):
        value = evaluate_output(expr, row)
        return (value is not None, value)

    return key


def apply_order_limit(
    rows: list[dict[str, Any]], query: Query
) -> list[dict[str, Any]]:
    """Apply ORDER BY (plus the implicit tie-break) and LIMIT."""
    ordered = list(rows)
    # Implicit tie-break first: all output columns ascending, NULL
    # first. Later (explicit) sorts are stable, so this decides ties.
    output_names = [item.output_name() for item in query.select]
    ordered.sort(
        key=lambda row: tuple(
            (row[name] is not None, row[name]) for name in output_names
        )
    )
    for item in reversed(query.order_by):
        resolved = resolve_output_expr(item.expr, query.select)
        ordered.sort(key=_sort_key_fn(resolved), reverse=item.descending)
    if query.limit is not None:
        ordered = ordered[: query.limit]
    return ordered


def build_result_table(
    rows: list[dict[str, Any]], query: Query
) -> Table:
    """Materialize output rows into a Table, in SELECT order."""
    names = [item.output_name() for item in query.select]
    if len(set(names)) != len(names):
        raise UnsupportedQueryError(
            f"duplicate output column names: {names}; add AS aliases"
        )
    data = {name: [row[name] for row in rows] for name in names}
    return Table.from_columns(data)


def finalize(rows: list[dict[str, Any]], query: Query) -> Table:
    """HAVING -> ORDER BY -> LIMIT -> Table, the shared tail of every backend."""
    rows = apply_having(rows, query)
    rows = apply_order_limit(rows, query)
    return build_result_table(rows, query)
