"""The rule catalog: every ``REP`` code reprolint can emit.

One table mapping each code to what it checks and why the convention
matters; ``python -m tools.reprolint --list-rules`` renders it, and
tests assert it stays in sync with the registered rules.
"""

from __future__ import annotations

from repro.analysis.catalog import CatalogEntry

LINT_CATALOG: tuple[CatalogEntry, ...] = (
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

