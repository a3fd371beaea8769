"""CLI surface of ``repro fsck``.

The command prints a findings report (text or JSON) and exits non-zero
when findings are present, so it can gate CI directly.
"""

from __future__ import annotations

import argparse

from repro.analysis.catalog import FSCK_CATALOG, render_catalog
from repro.analysis.findings import FindingsReport
from repro.analysis.fsck import fsck_file
from repro.errors import ReproError


def emit_report(report: FindingsReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 1 if report.findings else 0


def _print_codec_choices(path: str) -> None:
    """Advisor-choice listing for the text fsck report of a readable store."""
    from repro.storage.serde import load_store

    store = load_store(path)
    lines = []
    for name, field in sorted(store.fields.items()):
        if field.virtual or field.codec is None:
            continue
        choice = field.codec_choice or {}
        ratio = choice.get("actual_ratio")
        detail = (
            f" (ratio {ratio:.2f}, {choice.get('mode', '?')} mode)"
            if isinstance(ratio, (int, float))
            else ""
        )
        lines.append(f"  {name}: {field.codec}{detail}")
    if lines:
        print("advisor codec choices:")
        print("\n".join(lines))


def cmd_fsck(args: argparse.Namespace) -> int:
    if args.list_checks:
        print(render_catalog(FSCK_CATALOG))
        return 0
    if args.store is None:
        raise ReproError("fsck needs a store file (or --list-checks)")
    report = fsck_file(args.store, check_serde=not args.no_serde)
    status = emit_report(report, args.format)
    unreadable = any(finding.code == "FSCK010" for finding in report.findings)
    if args.format == "text" and not unreadable:
        _print_codec_choices(args.store)
    return status


def configure_fsck_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "store", nargs="?", default=None, help="store file (.pds)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--no-serde",
        action="store_true",
        help="skip the per-chunk serde round-trip checks",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="print the check catalog"
    )
    parser.set_defaults(func=cmd_fsck)
