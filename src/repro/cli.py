"""Command-line interface: import data, run queries, inspect stores.

Usage (also via ``python -m repro``):

    python -m repro import logs.csv store.pds --partition country,table_name
    python -m repro import logs.csv store.pds --codec auto
    python -m repro describe store.pds
    python -m repro query store.pds "SELECT country, COUNT(*) c FROM data \
        GROUP BY country ORDER BY c DESC LIMIT 5"
    python -m repro repl store.pds
    python -m repro info store.pds
    python -m repro demo --rows 50000
    python -m repro fsck store.pds

``import`` accepts ``.csv``, ``.rio`` (record-io) and ``.cio``
(column-io) inputs; the schema for the row formats is inferred from a
CSV header + value sniffing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.result import QueryResult
from repro.core.table import Table
from repro.errors import ReproError
from repro.storage.serde import load_store, save_store
from repro.workload.generator import LogsConfig, generate_query_logs
from repro.workload.queries import paper_queries


def _load_table(path: str) -> Table:
    if path.endswith(".csv"):
        import csv as csv_module

        from repro.core.table import Column, DataType

        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv_module.reader(handle)
            header = next(reader)
            rows = list(reader)
        columns = []
        for index, name in enumerate(header):
            raw = [row[index] for row in rows]
            columns.append(Column(name, _sniff(raw)))
        return Table(columns)
    if path.endswith(".cio"):
        from repro.formats.columnio import read_columnio

        return read_columnio(path)
    raise ReproError(f"unsupported input format: {path} (use .csv or .cio)")


def _sniff(raw: list[str]) -> list:
    """Best-effort typing of CSV strings: int, then float, else str."""
    def convert(kind):
        out = []
        for value in raw:
            if value == "\\N" or value == "":
                out.append(None)
            else:
                out.append(kind(value))
        return out

    for kind in (int, float):
        try:
            return convert(kind)
        except ValueError:
            continue
    return [None if v == "\\N" else v for v in raw]


def _print_result(result: QueryResult, show_stats: bool) -> None:
    names = result.column_names
    widths = [
        max(len(str(name)), *(len(str(row[i])) for row in result.rows()))
        if result.rows()
        else len(str(name))
        for i, name in enumerate(names)
    ]
    header = "  ".join(str(n).ljust(w) for n, w in zip(names, widths))
    print(header)
    print("-" * len(header))
    for row in result.rows():
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    if show_stats:
        stats = result.stats
        print(
            f"\n{result.table.n_rows} rows in "
            f"{1000 * result.elapsed_seconds:.1f} ms | skipped "
            f"{stats.skip_fraction:.1%}, cached {stats.cache_fraction:.1%}, "
            f"scanned {stats.scan_fraction:.1%} | memory "
            f"{stats.memory_bytes / 1024:.0f} KB"
        )


def cmd_import(args: argparse.Namespace) -> int:
    table = _load_table(args.input)
    partition = tuple(args.partition.split(",")) if args.partition else None
    options = DataStoreOptions(
        partition_fields=partition,
        max_chunk_rows=args.chunk_rows,
        reorder_rows=bool(partition) and not args.no_reorder,
        codec=args.codec,
    )
    started = time.perf_counter()
    store = DataStore.from_table(table, options)
    size = save_store(store, args.output)
    print(
        f"imported {table.n_rows} rows x {table.n_columns} columns into "
        f"{store.n_chunks} chunks in {time.perf_counter() - started:.2f}s; "
        f"wrote {size / 1024:.0f} KB to {args.output}"
    )
    stats = store.import_stats
    if stats is not None:
        phases = ", ".join(
            f"{name} {1000 * seconds:.1f} ms"
            for name, seconds in stats.phase_seconds().items()
        )
        print(f"import phases: {phases}")
        print(
            f"import throughput: {stats.rows_per_second()['total']:,.0f} rows/s; "
            f"dictionaries {stats.dictionary_bytes / 1024:.0f} KB, "
            f"chunks {stats.chunk_bytes / 1024:.0f} KB"
        )
        if stats.field_codecs:
            print("advisor codec choices:")
            for name, record in sorted(stats.field_codecs.items()):
                print(
                    f"  {name:<16} {record['codec']:<16} "
                    f"predicted ratio {record['predicted_ratio']:.2f} "
                    f"({record['mode']} mode, "
                    f"{record['sample_bytes']} sample bytes)"
                )
    return 0


def _apply_runtime_flags(store: DataStore, args: argparse.Namespace) -> None:
    """Apply --executor/--workers/--cache-* flags to a loaded store."""
    overrides: dict = {}
    if getattr(args, "executor", None) is not None:
        overrides["executor"] = args.executor
    if getattr(args, "workers", None) is not None:
        if "executor" not in overrides:
            # --workers alone keeps the historical behaviour: >1 means
            # the thread strategy, 1 means serial.
            overrides["executor"] = "serial" if args.workers <= 1 else "parallel"
        overrides["workers"] = max(1, args.workers)
    if getattr(args, "max_workers", None) is not None:
        overrides["max_workers"] = args.max_workers
    if getattr(args, "cache_policy", None) is not None:
        overrides["cache_policy"] = args.cache_policy
    if getattr(args, "cache_capacity_kb", None) is not None:
        overrides["cache_capacity_bytes"] = args.cache_capacity_kb * 1024.0
    if overrides:
        store.configure_runtime(**overrides)


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    from repro.core.executor import executor_names
    from repro.storage.cache import policy_names

    parser.add_argument(
        "--executor",
        choices=executor_names(),
        default=None,
        help=(
            "chunk-scan strategy: serial, thread/parallel (thread pool), "
            "or process (shared-memory arena + process pool)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="scan worker count (without --executor, >1 selects threads)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="cap on the auto-detected worker count (default: all cores)",
    )
    parser.add_argument(
        "--cache-policy",
        choices=policy_names(),
        default=None,
        help="chunk-result cache eviction policy",
    )
    parser.add_argument(
        "--cache-capacity-kb",
        type=float,
        default=None,
        help="chunk-result cache capacity in KB",
    )


def cmd_query(args: argparse.Namespace) -> int:
    store = load_store(args.store)
    _apply_runtime_flags(store, args)
    result = store.execute(args.sql)
    _print_result(result, show_stats=not args.quiet)
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    store = load_store(args.store)
    _apply_runtime_flags(store, args)
    print(
        f"loaded {store.n_rows} rows in {store.n_chunks} chunks; "
        f"fields: {sorted(n for n, f in store.fields.items() if not f.virtual)}"
    )
    print("enter SQL (empty line or 'quit' to exit)")
    while True:
        try:
            line = input("pd> ").strip()
        except EOFError:
            break
        if not line or line.lower() in ("quit", "exit"):
            break
        try:
            _print_result(store.execute(line), show_stats=True)
        except ReproError as error:
            print(f"error: {error}")
    return 0


def _print_store_info(store: DataStore) -> None:
    print(f"table: {store.options.table_name}")
    print(f"rows:  {store.n_rows} in {store.n_chunks} chunks")
    print(f"partition fields: {store.options.partition_fields}")
    print(
        f"{'field':<16} {'distinct':>9} {'dict KB':>8} "
        f"{'chunk-dicts KB':>14} {'elements KB':>12}"
    )
    for name, field in sorted(store.fields.items()):
        if field.virtual:
            continue
        print(
            f"{name:<16} {len(field.dictionary):>9} "
            f"{field.dictionary_size_bytes() / 1024:>8.1f} "
            f"{field.chunk_dicts_size_bytes() / 1024:>14.1f} "
            f"{field.elements_size_bytes() / 1024:>12.1f}"
        )
    print(f"total encoded: {store.total_size_bytes() / 1024:.0f} KB")


def cmd_info(args: argparse.Namespace) -> int:
    store = load_store(args.store)
    _print_store_info(store)
    return 0


def _fmt_ratio(value) -> str:
    return f"{value:.2f}" if isinstance(value, (int, float)) else "-"


def cmd_describe(args: argparse.Namespace) -> int:
    store = load_store(args.store)
    _print_store_info(store)
    print()
    encoded = [
        (name, field)
        for name, field in sorted(store.fields.items())
        if not field.virtual and field.codec is not None
    ]
    if not encoded:
        print("no per-column codec choices recorded")
        return 0
    print(
        f"{'field':<16} {'codec':<18} {'predicted':>9} {'actual':>8} "
        f"{'sample B':>9} {'mode':>6}"
    )
    for name, field in encoded:
        choice = field.codec_choice or {}
        print(
            f"{name:<16} {field.codec:<18} "
            f"{_fmt_ratio(choice.get('predicted_ratio')):>9} "
            f"{_fmt_ratio(choice.get('actual_ratio')):>8} "
            f"{choice.get('sample_bytes', 0):>9} "
            f"{choice.get('mode', '?'):>6}"
        )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    table = generate_query_logs(LogsConfig(n_rows=args.rows))
    store = DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=max(500, args.rows // 100),
            reorder_rows=True,
        ),
    )
    _apply_runtime_flags(store, args)
    for sql in paper_queries():
        print(f"\n-- {sql}")
        store.execute(sql)  # warm
        _print_result(store.execute(sql), show_stats=True)
    cache = store.chunk_cache_stats()
    print(
        f"\nchunk-result cache: {cache.hits} hits / {cache.misses} misses "
        f"({cache.hit_rate:.1%} hit rate), {cache.evictions} evictions"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PowerDrill-reproduction column store CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_import = sub.add_parser("import", help="import a data file into a store")
    p_import.add_argument("input", help=".csv or .cio input file")
    p_import.add_argument("output", help="output store file (.pds)")
    p_import.add_argument(
        "--partition", default=None, help="comma-separated partition fields"
    )
    p_import.add_argument("--chunk-rows", type=int, default=50_000)
    p_import.add_argument(
        "--no-reorder", action="store_true", help="skip the lexicographic reorder"
    )
    p_import.add_argument(
        "--codec",
        default=None,
        help="compress each field's serialized section with this registry "
        "codec, or 'auto' to let the encoding advisor pick one per "
        "column (default: uncompressed sections)",
    )
    p_import.set_defaults(func=cmd_import)

    p_query = sub.add_parser("query", help="run one SQL query against a store")
    p_query.add_argument("store", help="store file (.pds)")
    p_query.add_argument("sql", help="the SELECT statement")
    p_query.add_argument("--quiet", action="store_true", help="rows only")
    _add_runtime_flags(p_query)
    p_query.set_defaults(func=cmd_query)

    p_repl = sub.add_parser("repl", help="interactive SQL prompt")
    p_repl.add_argument("store", help="store file (.pds)")
    _add_runtime_flags(p_repl)
    p_repl.set_defaults(func=cmd_repl)

    p_info = sub.add_parser("info", help="describe a store file")
    p_info.add_argument("store", help="store file (.pds)")
    p_info.set_defaults(func=cmd_info)

    p_describe = sub.add_parser(
        "describe",
        help="info plus the encoding advisor's per-field codec choices",
    )
    p_describe.add_argument("store", help="store file (.pds)")
    p_describe.set_defaults(func=cmd_describe)

    p_demo = sub.add_parser("demo", help="run the paper's queries on demo data")
    p_demo.add_argument("--rows", type=int, default=50_000)
    _add_runtime_flags(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    from repro.analysis.cli import configure_fsck_parser

    p_fsck = sub.add_parser(
        "fsck", help="verify the structural invariants of a store file"
    )
    configure_fsck_parser(p_fsck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; exit
        # quietly instead of tracebacking (dup /dev/null over stdout so
        # interpreter shutdown doesn't re-raise on flush).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as error:
        # A path that cannot be opened (missing, a directory, no
        # permission); checked after BrokenPipeError, its subclass.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
