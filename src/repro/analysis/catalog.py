"""The invariant catalog: every code ``fsck`` can emit.

One authoritative table mapping each ``FSCK`` code to what it checks
and why the invariant matters. The CLI renders it for
``repro fsck --list-checks`` and the "Invariant catalog" section of
DESIGN.md mirrors it; tests assert the two stay in sync with what fsck
actually emits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CatalogEntry:
    """One checkable invariant or convention."""

    code: str
    name: str
    summary: str
    rationale: str


FSCK_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "FSCK001",
        "global-dict-unsorted",
        "global dictionary values strictly ascending, NULL first",
        "global-ids are ranks; range restrictions map to id intervals "
        "only while the payload is sorted",
    ),
    CatalogEntry(
        "FSCK002",
        "global-dict-bijection",
        "value(gid) and global_id(value) are inverse for every id",
        "restriction compilation looks values up by id and ids up by "
        "value; a broken bijection misroutes both",
    ),
    CatalogEntry(
        "FSCK003",
        "chunk-dict-unsorted",
        "chunk-dictionaries strictly ascending",
        "chunk-id lookups binary-search the chunk-dictionary",
    ),
    CatalogEntry(
        "FSCK004",
        "chunk-dict-subset",
        "every chunk-dictionary entry is a valid global-id",
        "dereferencing an out-of-range global-id reads past the global "
        "dictionary",
    ),
    CatalogEntry(
        "FSCK005",
        "element-range",
        "element chunk-ids all fall in [0, n_distinct)",
        "the group-by inner loop indexes counts[elements[row]] without "
        "bounds checks",
    ),
    CatalogEntry(
        "FSCK006",
        "stale-bounds",
        "every chunk-dictionary slot is referenced by some row "
        "(min/max global-id reflect actual contents)",
        "chunk skipping trusts min/max; stale bounds make the engine "
        "scan (or worse, skip) the wrong chunks",
    ),
    CatalogEntry(
        "FSCK007",
        "row-count-mismatch",
        "per-chunk element row counts, the store header and the chunk "
        "count all agree",
        "aggregation merges partials positionally across fields of one "
        "chunk",
    ),
    CatalogEntry(
        "FSCK008",
        "partition-overlap",
        "first-partition-field global-id ranges of any two chunks are "
        "disjoint or the same single value",
        "composite range partitioning guarantees it; restriction "
        "skipping on partition fields assumes it",
    ),
    CatalogEntry(
        "FSCK009",
        "serde-roundtrip",
        "every dictionary, chunk-dictionary and elements array "
        "round-trips bit-exactly through the serde layer",
        "stores are persisted and reloaded; a lossy encoding corrupts "
        "data at rest",
    ),
    CatalogEntry(
        "FSCK010",
        "serde-parse",
        "the store file parses and passes its checksum",
        "truncated or bit-flipped files must fail loudly, never load "
        "as wrong data",
    ),
    CatalogEntry(
        "FSCK011",
        "arena-consistency",
        "a store's chunk arena round-trips bit-exactly: dictionaries, "
        "chunk-dictionaries and elements attached from the arena match "
        "the originals, and the layout has no overlapping or "
        "misaligned spans",
        "process workers answer queries from arena views; a divergent "
        "arena silently returns wrong results in parallel only",
    ),
    CatalogEntry(
        "FSCK012",
        "codec-choice-invalid",
        "every advisor-recorded field codec resolves in the registry "
        "and round-trips that field's serialized section byte-exactly",
        "save_store compresses field sections with the recorded codec; "
        "a stale name or lossy pipeline makes the saved store "
        "unreadable or silently wrong on reload",
    ),
)


def fsck_codes() -> set[str]:
    return {entry.code for entry in FSCK_CATALOG}


def render_catalog(entries: tuple[CatalogEntry, ...]) -> str:
    """Human-readable catalog listing for the CLI."""
    lines = []
    for entry in entries:
        lines.append(f"{entry.code}  {entry.name}")
        lines.append(f"    checks:  {entry.summary}")
        lines.append(f"    because: {entry.rationale}")
    return "\n".join(lines)
