"""Core of the reproduction: the PowerDrill datastore and query engine.

- :mod:`repro.core.table` -- the in-memory relational table used as the
  import source and as the result representation.
- :mod:`repro.core.datastore` -- :class:`~repro.core.datastore.DataStore`,
  the paper's column-store: import (reorder, partition, double-dictionary
  encode), virtual fields, and query execution with chunk skipping.
- :mod:`repro.core.engine` -- restriction analysis, per-chunk evaluation
  (the ``counts[elements[row]]++`` inner loop), and aggregation merging.
"""

from repro.core.table import Column, DataType, Schema, Table

__all__ = [
    "Column",
    "DataStore",
    "DataStoreOptions",
    "DataType",
    "ScanStats",
    "Schema",
    "Table",
]


def __getattr__(name: str) -> object:
    # DataStore lives in a heavier module; import it lazily so the
    # lightweight table types don't drag in the whole engine.
    if name in ("DataStore", "DataStoreOptions", "ScanStats"):
        from repro.core import datastore

        return getattr(datastore, name)
    # The module __getattr__ protocol requires AttributeError for unknown
    # names; anything else breaks hasattr() on the package.
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
