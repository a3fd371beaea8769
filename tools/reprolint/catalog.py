"""The rule catalog: every ``REP`` code reprolint can emit.

One table mapping each code to what it checks and why the convention
matters; ``python -m tools.reprolint --list-rules`` renders it, and
tests assert it stays in sync with the registered rules.
"""

from __future__ import annotations

from repro.analysis.catalog import CatalogEntry

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


def lint_codes() -> set[str]:
    return {entry.code for entry in LINT_CATALOG}
