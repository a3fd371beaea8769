"""Command line of reprolint: ``python -m tools.reprolint [paths]``.

Prints a findings report (text or JSON) and exits 1 when findings are
present, so it can gate CI directly; an unknown rule code or a bad
``--severity`` is reported as ``error: …`` with exit 1 too.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.catalog import render_catalog
from repro.analysis.cli import emit_report
from repro.analysis.findings import Severity
from repro.errors import ReproError
from tools.reprolint.catalog import LINT_CATALOG
from tools.reprolint.lint import run_lint


def _parse_severity_overrides(pairs: list[str]) -> dict[str, Severity]:
    overrides: dict[str, Severity] = {}
    for pair in pairs:
        code, __, level = pair.partition("=")
        if not level:
            raise ReproError(
                f"bad --severity {pair!r}; expected CODE=LEVEL "
                "(e.g. REP005=warning)"
            )
        overrides[code.strip()] = Severity.parse(level)
    return overrides


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_catalog(LINT_CATALOG))
        return 0
    fmt = "json" if getattr(args, "json", False) else args.format
    report = run_lint(
        args.paths,
        select=args.select or None,
        severity_overrides=_parse_severity_overrides(args.severity),
    )
    return emit_report(report, fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="reprolint — the repo-specific static analyzer",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json (machine-readable findings "
        "with stable fingerprints for CI diffing)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="run only the given rule (repeatable)",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. REP005=warning (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return cmd_lint(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Pager/head closed the pipe early; exit quietly (see
        # repro.cli.main for the dup2 rationale).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
