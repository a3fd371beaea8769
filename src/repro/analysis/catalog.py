"""The invariant & rule catalog: every code the tooling can emit.

One authoritative table mapping each ``REP``/``FSCK`` code to what it
checks and why the invariant matters. The CLI renders it for
``repro lint --list-rules`` / ``repro fsck --list-checks`` and the
"Invariant catalog" section of DESIGN.md mirrors it; tests assert the
two stay in sync with what the tools actually emit.
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


LINT_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "REP001",
        "raise-outside-hierarchy",
        "every raise uses the repro.errors hierarchy "
        "(NotImplementedError allowed for abstract interfaces)",
        "callers rely on `except ReproError` as the single error "
        "boundary; a stray ValueError escapes it",
    ),
    CatalogEntry(
        "REP002",
        "broad-except",
        "no bare except / except Exception outside cli.py",
        "blanket handlers swallow corruption signals the storage layer "
        "deliberately raises",
    ),
    CatalogEntry(
        "REP003",
        "direct-codec-import",
        "codec entry points resolved only via repro.compress.registry "
        "outside compress/",
        "the registry round-trip tests cover exactly the registered "
        "codecs; direct imports create untested compression paths",
    ),
    CatalogEntry(
        "REP004",
        "private-mutation",
        "no assignment to _-prefixed attributes of another module's "
        "objects",
        "ColumnChunk/Dictionary constructors validate sortedness and "
        "ranges; out-of-module mutation bypasses those checks",
    ),
    CatalogEntry(
        "REP005",
        "missing-annotations",
        "public functions in storage/, core/ and formats/ are fully "
        "type-annotated",
        "the storage API is the contract every optimization PR builds "
        "on; annotations keep it reviewable",
    ),
    CatalogEntry(
        "REP006",
        "print-in-library",
        "no print() in library code (cli.py exempt)",
        "library output goes through repro.monitoring so deployments "
        "control reporting",
    ),
    CatalogEntry(
        "REP007",
        "run-partial-mutates-self",
        "run_partial implementations never assign through self or "
        "call mutating container methods on self attributes",
        "the parallel executor runs run_partial concurrently across "
        "worker threads; mutable aggregator state is only safe in "
        "apply() on the merge thread",
    ),
    CatalogEntry(
        "REP008",
        "ad-hoc-retry",
        "no sleep() calls or except-then-continue retry loops outside "
        "distributed/faults.py",
        "delays and retries are simulated deterministically through "
        "the fault layer's backoff_delay/dispatch helpers; a real "
        "sleep or hand-rolled retry loop breaks reproducibility and "
        "hides failure accounting",
    ),
    CatalogEntry(
        "REP009",
        "scalar-import-loop",
        "no per-row .values loops or per-id .value(gid) calls inside "
        "loops in the hot import modules (partition/codes.py, "
        "storage/trie.py, storage/subdict.py)",
        "import throughput rests on the bulk kernels (factorize_list, "
        "the bulk trie builder, batched global_ids); a per-row Python "
        "loop silently reintroduces the scalar pipeline, and deliberate "
        "fallbacks must carry a justified suppression",
    ),
    CatalogEntry(
        "REP010",
        "per-byte-codec-loop",
        "no per-index buffer walks (cursor-advancing while loops or "
        "for-range loops subscripting with the loop variable) in "
        "repro/compress/*",
        "codec throughput rests on the numpy bulk kernels; a per-byte "
        "Python loop silently reintroduces the scalar path, and "
        "deliberate scalar loops must carry a justified suppression",
    ),
    CatalogEntry(
        "REP016",
        "unused-suppression",
        "every # reprolint: disable comment still suppresses at least "
        "one finding (checked on full runs)",
        "stale suppressions hide the rules they once silenced; pruning "
        "them keeps each remaining opt-out a live, justified decision",
    ),
    CatalogEntry(
        "REP017",
        "unbounded-future-wait",
        "every .result()/.join() call in core/executor.py passes a "
        "bounded timeout",
        "an unbounded wait on a dead or hung worker wedges the "
        "supervisor forever — the exact failure the supervision layer "
        "exists to survive",
    ),
    CatalogEntry(
        "REP018",
        "hardcoded-codec-name",
        "no codec-name string literals in codec-selecting positions "
        "(registry calls, codec= keywords, codec-named assignments or "
        "comparisons) outside compress/registry.py, "
        "compress/advisor.py and declared defaults (parameter defaults, "
        "module-level ALL_CAPS constants)",
        "the encoding advisor owns codec choice; a codec name inlined "
        "at a call site silently pins a layout decision the advisor "
        "can no longer revisit, and renaming a codec breaks it",
    ),
)

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


def lint_codes() -> set[str]:
    return {entry.code for entry in LINT_CATALOG}


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
