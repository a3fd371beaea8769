"""The zero-findings CI gate: reprolint over ``src/repro`` must be clean.

This is a tier-1 test. Any new finding — a foreign exception type, a
broad except, a direct codec import, a cross-module private mutation,
a missing annotation in storage/core/formats, a stray print() — fails
the suite until it is fixed or explicitly suppressed with a
``# reprolint: disable=REP00x -- reason`` comment. Stale suppressions
fail the gate too (REP016 runs on full passes).
"""

import os

from tools.reprolint import all_rules, run_lint

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def test_source_tree_exists():
    assert os.path.isdir(_SRC), _SRC


def test_reprolint_clean():
    report = run_lint([_SRC])
    assert report.items_checked > 40, "lint walked suspiciously few files"
    assert report.ok, "\n" + report.to_text()


def test_gate_includes_bounded_wait_rule():
    # REP017 keeps core/executor.py free of unbounded .result()/.join()
    # waits — the supervision deadline is only real while this rule is
    # registered, so dropping it must fail loudly.
    registered = {rule.code for rule in all_rules()}
    assert "REP017" in registered


def test_cli_gate_exit_code():
    # The same gate through `python -m tools.reprolint` (exit 0 = clean).
    from tools.reprolint.cli import main

    assert main([_SRC]) == 0
