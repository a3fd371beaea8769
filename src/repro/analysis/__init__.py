"""Store checking: ``fsck`` and the findings model it reports in.

The storage layer only works because a web of structural invariants
holds everywhere — per-chunk dictionaries are sorted subsets of the
global dictionary, element arrays index into their chunk dictionary,
partition code ranges are consistent with chunk contents, and codecs
round-trip bytes exactly. This package makes those invariants explicit
and checkable:

- :mod:`repro.analysis.fsck` — a runtime structural-integrity checker
  that walks a :class:`~repro.core.datastore.DataStore` (or a ``.pds``
  file) and verifies the invariant catalog, returning a typed findings
  report instead of raising on the first error.
- :mod:`repro.analysis.catalog` — the machine-readable invariant
  catalog backing the docs and ``--list-checks`` output.
- :mod:`repro.analysis.findings` — the findings model, shared with the
  repo's static analyzer (``tools/reprolint/``).

``repro fsck`` (see :mod:`repro.analysis.cli`) surfaces the checker and
exits non-zero on findings so it can gate CI.
"""

from repro.analysis.findings import Finding, FindingsReport, Severity
from repro.analysis.fsck import fsck_file, fsck_store

__all__ = [
    "Finding",
    "FindingsReport",
    "Severity",
    "fsck_file",
    "fsck_store",
]
