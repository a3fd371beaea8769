"""Command line of reprolint: ``python -m tools.reprolint [paths]``.

Prints a findings report (text or JSON) and exits 1 when findings are
present, so it can gate CI directly; a path it cannot lint is reported
as ``error: …`` with exit 1 too.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.catalog import render_catalog
from repro.analysis.cli import emit_report
from repro.errors import ReproError
from tools.reprolint.catalog import LINT_CATALOG
from tools.reprolint.lint import run_lint


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_catalog(LINT_CATALOG))
        return 0
    return emit_report(run_lint(args.paths), args.format)


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
        "--format",
        choices=("text", "json"),
        default="text",
        help="json: machine-readable findings with stable fingerprints "
        "for CI diffing",
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
