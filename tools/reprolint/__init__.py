"""reprolint: the repo's AST-based static analyzer for ``src/repro``.

It enforces the repo conventions no test run exercises: bounded waits
in the process supervisor (REP017) and codec choice left to the
encoding advisor (REP018).
:mod:`tools.reprolint.lint` is the engine, :mod:`tools.reprolint.rules`
the rules, :mod:`tools.reprolint.catalog` their catalog. Findings share
the model of :mod:`repro.analysis.findings` with ``repro fsck``.

Run it from the repository root::

    PYTHONPATH=src python -m tools.reprolint src/repro
"""

from tools.reprolint.lint import all_rules, get_rule, run_lint

__all__ = ["all_rules", "get_rule", "run_lint"]
