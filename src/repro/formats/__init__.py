"""Baseline storage formats and full-scan backends.

These are the comparison systems of the paper's Table 1 experiments:

- :mod:`repro.formats.csv_backend` -- CSV, row-wise text.
- :mod:`repro.formats.recordio` -- "record-io", a binary row format
  using the protocol-buffer wire encoding (varints, tagged fields).
- :mod:`repro.formats.columnio` -- "column-io", the Dremel-stand-in:
  per-column compressed blocks, reads only referenced columns, but
  always full-scans and must decode before use.

All backends execute the same SQL dialect by full scans through the
shared row executor (:mod:`repro.formats.rowexec`), guaranteeing
identical results to the column-store.
"""

from repro.formats.backend import Backend
from repro.formats.columnio import ColumnIoBackend, read_columnio, write_columnio
from repro.formats.csv_backend import CsvBackend, write_csv
from repro.formats.recordio import RecordIoBackend, write_recordio

__all__ = [
    "Backend",
    "ColumnIoBackend",
    "CsvBackend",
    "RecordIoBackend",
    "read_columnio",
    "write_columnio",
    "write_csv",
    "write_recordio",
]
