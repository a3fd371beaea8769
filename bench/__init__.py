"""The click-path benchmark: five workloads, one report, one schema.

``python -m bench.run`` is the entry point; ``bench/README.md`` says
what each workload and metric is for. The package drives only the
public functions of ``repro`` (found under ``src/`` next to this
directory) and changes nothing outside ``bench/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parent.parent

# The package under test is not pip-installed; a bare directory that
# holds only the benchmark has no ``src`` and importing ``repro`` fails
# there, which is how ``bench.run`` exits non-zero in that case.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
