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
    python -m repro chaos --crash-rate 0,0.05,0.2,0.5 --fault-seed 7
    python -m repro chaos --local --rows 4000 --queries 3
    python -m repro lint src/repro
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


def cmd_bench_scan(args: argparse.Namespace) -> int:
    import json

    from repro.workload.benchscan import (
        ScanBenchConfig,
        render_scan_report,
        run_scan_bench,
    )

    config = ScanBenchConfig(
        rows=args.rows,
        workers=tuple(int(w) for w in args.workers.split(",")),
        policies=tuple(args.policies.split(",")),
        executors=tuple(args.executors.split(",")),
        repeats=args.repeats,
        cache_trace_steps=args.trace_steps,
    )
    report = run_scan_bench(config)
    print("\n".join(render_scan_report(report)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    return 0


def cmd_bench_compress(args: argparse.Namespace) -> int:
    import json

    from repro.workload.benchcompress import (
        CompressBenchConfig,
        render_compress_report,
        run_compress_bench,
    )

    config = CompressBenchConfig(
        rows=args.rows,
        repeats=args.repeats,
        huffman_bytes=args.huffman_bytes,
        store_rows=args.store_rows,
    )
    report = run_compress_bench(config)
    print("\n".join(render_compress_report(report)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    return 0


def cmd_bench_advisor(args: argparse.Namespace) -> int:
    import json

    from repro.workload.benchadvisor import (
        AdvisorBenchConfig,
        render_advisor_report,
        run_advisor_bench,
    )

    config = AdvisorBenchConfig(rows=args.rows, repeats=args.repeats)
    report = run_advisor_bench(config)
    print("\n".join(render_advisor_report(report)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant serving demo: replay drill-down sessions."""
    from repro.service import QueryService, ServiceConfig
    from repro.workload.benchserve import (
        ServeBenchConfig,
        build_serve_trace,
        run_closed_loop,
        summarize_outcomes,
        _bench_store,
        _bench_table,
    )

    config = ServeBenchConfig(
        rows=args.rows,
        n_sessions=args.sessions,
        clicks_per_session=args.clicks,
        queries_per_click=args.queries_per_click,
        n_tenants=args.tenants,
        executor=args.executor,
        service_workers=args.workers,
        queue_depth=args.queue_depth,
    )
    table = _bench_table(config)
    store = _bench_store(table, config)
    trace = build_serve_trace(table, config.drill(), config.mix())
    service = QueryService(
        store,
        ServiceConfig(
            workers=config.service_workers,
            queue_depth=config.queue_depth,
            max_inflight_per_tenant=config.max_inflight_per_tenant,
        ),
    )
    print(
        f"serving {len(trace)} drill-down queries from "
        f"{config.n_sessions} sessions over {config.n_tenants} tenants "
        f"({args.concurrency} concurrent clients, "
        f"{config.service_workers} dispatch workers)"
    )
    try:
        for pass_index in range(max(1, args.passes)):
            outcomes, wall = run_closed_loop(service, trace, args.concurrency)
            summary = summarize_outcomes(outcomes, wall)
            label = "cold" if pass_index == 0 else f"pass {pass_index + 1}"
            print(
                f"{label:>7}: {summary['qps']:8.1f} q/s, "
                f"p50 {1000 * summary['p50_seconds']:7.2f} ms, "
                f"p95 {1000 * summary['p95_seconds']:7.2f} ms, "
                f"p99 {1000 * summary['p99_seconds']:7.2f} ms | "
                f"hits {summary['cache_hit_fraction']:4.0%}, "
                f"subsumed {summary['subsumption_fraction']:4.0%}, "
                f"rejected {summary['rejected']:.0f}"
            )
        snapshot = service.stats()
    finally:
        service.close()
        store.executor.close()
    cache = snapshot.get("cache", {})
    if cache:
        print(
            f"semantic cache: {cache['entries']:.0f} entries, "
            f"{cache['used_bytes'] / (1 << 10):.0f} KiB resident, "
            f"{cache['evictions']:.0f} evictions, "
            f"{cache['footprints']:.0f} footprints"
        )
    counts = snapshot["counts"]
    print(
        f"outcomes: {counts['completed']} completed, "
        f"{counts['rejected']} rejected, {counts['failed']} failed, "
        f"{counts['degraded']} degraded"
    )
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.workload.benchserve import (
        ServeBenchConfig,
        render_serve_report,
        run_serve_bench,
    )

    config = ServeBenchConfig(
        rows=args.rows,
        concurrencies=tuple(int(c) for c in args.concurrencies.split(",")),
        n_sessions=args.sessions,
        clicks_per_session=args.clicks,
        queries_per_click=args.queries_per_click,
        n_tenants=args.tenants,
        executor=args.executor,
        service_workers=args.workers,
    )
    report = run_serve_bench(config)
    print("\n".join(render_serve_report(report)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.workload.chaosbench import (
        ChaosBenchConfig,
        ProcessChaosBenchConfig,
        render_chaos_report,
        render_process_chaos_report,
        run_chaos_bench,
        run_process_chaos_bench,
    )

    if args.local:
        local_config = ProcessChaosBenchConfig(
            rows=args.rows,
            workers=args.local_workers,
            queries_per_scenario=args.queries,
            deadline_seconds=args.sub_query_deadline_ms / 1000.0,
            max_retries=args.max_retries,
            fault_seed=args.fault_seed,
        )
        report = run_process_chaos_bench(local_config)
        print("\n".join(render_process_chaos_report(report)))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
            print(f"\nwrote {args.output}")
        return 0

    config = ChaosBenchConfig(
        rows=args.rows,
        n_shards=args.shards,
        n_machines=args.machines,
        queries_per_rate=args.queries,
        crash_rates=tuple(float(r) for r in args.crash_rate.split(",")),
        timeout_rate=args.timeout_rate,
        corruption_rate=args.corruption_rate,
        deadline_seconds=args.sub_query_deadline_ms / 1000.0,
        max_retries=args.max_retries,
        fault_seed=args.fault_seed,
    )
    report = run_chaos_bench(config)
    print("\n".join(render_chaos_report(report)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
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

    p_serve = sub.add_parser(
        "serve",
        help="multi-tenant serving demo: replay drill-down sessions "
        "through the query service (admission, fair scheduling, "
        "semantic result cache)",
    )
    p_serve.add_argument("--rows", type=int, default=60_000)
    p_serve.add_argument("--sessions", type=int, default=12)
    p_serve.add_argument("--clicks", type=int, default=3)
    p_serve.add_argument("--queries-per-click", type=int, default=6)
    p_serve.add_argument("--tenants", type=int, default=6)
    p_serve.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop client threads"
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="service dispatch workers"
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64, help="per-tenant queue bound"
    )
    p_serve.add_argument(
        "--executor",
        default="thread",
        choices=["serial", "thread", "process"],
        help="engine execution strategy under the service",
    )
    p_serve.add_argument(
        "--passes",
        type=int,
        default=2,
        help="trace replays (pass 2+ exercises the warm cache)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_bench = sub.add_parser("bench", help="run a built-in benchmark")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_scan = bench_sub.add_parser(
        "scan", help="worker-count and cache-policy sweep over the scan path"
    )
    p_scan.add_argument("--rows", type=int, default=60_000)
    p_scan.add_argument(
        "--workers", default="1,2,4", help="comma-separated worker counts"
    )
    p_scan.add_argument(
        "--policies", default="lru,2q,arc", help="comma-separated cache policies"
    )
    p_scan.add_argument(
        "--executors",
        default="serial,thread,process",
        help="comma-separated execution strategies to sweep",
    )
    p_scan.add_argument("--repeats", type=int, default=3)
    p_scan.add_argument("--trace-steps", type=int, default=120)
    p_scan.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    p_scan.set_defaults(func=cmd_bench_scan)

    p_compress_bench = bench_sub.add_parser(
        "compress",
        help="scalar-oracle vs numpy-kernel codec throughput and ratios",
    )
    p_compress_bench.add_argument("--rows", type=int, default=60_000)
    p_compress_bench.add_argument("--repeats", type=int, default=2)
    p_compress_bench.add_argument(
        "--huffman-bytes",
        type=int,
        default=1 << 16,
        help="Huffman corpus cap (the scalar oracle encoder is quadratic)",
    )
    p_compress_bench.add_argument(
        "--store-rows",
        type=int,
        default=12_000,
        help="rows in the store whose serialization feeds the LZ codecs",
    )
    p_compress_bench.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    p_compress_bench.set_defaults(func=cmd_bench_compress)

    p_advisor_bench = bench_sub.add_parser(
        "advisor",
        help="static-codec baseline vs advisor-chosen per-field codecs "
        "(size x decode-throughput)",
    )
    p_advisor_bench.add_argument("--rows", type=int, default=60_000)
    p_advisor_bench.add_argument("--repeats", type=int, default=3)
    p_advisor_bench.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    p_advisor_bench.set_defaults(func=cmd_bench_advisor)

    p_serve_bench = bench_sub.add_parser(
        "serve",
        help="QPS and tail-latency sweep over the multi-tenant query "
        "service (cold/warm cache, open-loop shedding point)",
    )
    p_serve_bench.add_argument("--rows", type=int, default=60_000)
    p_serve_bench.add_argument(
        "--concurrencies",
        default="1,2,4",
        help="comma-separated closed-loop client counts",
    )
    p_serve_bench.add_argument("--sessions", type=int, default=12)
    p_serve_bench.add_argument("--clicks", type=int, default=3)
    p_serve_bench.add_argument("--queries-per-click", type=int, default=6)
    p_serve_bench.add_argument("--tenants", type=int, default=6)
    p_serve_bench.add_argument(
        "--executor",
        default="thread",
        choices=["serial", "thread", "process"],
        help="engine execution strategy under the service",
    )
    p_serve_bench.add_argument(
        "--workers", type=int, default=2, help="service dispatch workers"
    )
    p_serve_bench.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    p_serve_bench.set_defaults(func=cmd_bench_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep injected fault rates over the simulated cluster",
    )
    p_chaos.add_argument("--rows", type=int, default=24_000)
    p_chaos.add_argument("--shards", type=int, default=6)
    p_chaos.add_argument("--machines", type=int, default=8)
    p_chaos.add_argument(
        "--queries", type=int, default=12, help="queries per crash rate"
    )
    p_chaos.add_argument(
        "--fault-seed", type=int, default=0, help="fault-plan RNG seed"
    )
    p_chaos.add_argument(
        "--crash-rate",
        default="0,0.05,0.2,0.5",
        help="comma-separated per-machine crash probabilities to sweep",
    )
    p_chaos.add_argument("--timeout-rate", type=float, default=0.02)
    p_chaos.add_argument("--corruption-rate", type=float, default=0.02)
    p_chaos.add_argument(
        "--sub-query-deadline-ms",
        type=float,
        default=500.0,
        help="per-attempt deadline in milliseconds",
    )
    p_chaos.add_argument("--max-retries", type=int, default=2)
    p_chaos.add_argument(
        "--local",
        action="store_true",
        help="run the local process-chaos bench instead: REAL worker "
        "faults (SIGKILL, os._exit, hangs) against the process "
        "executor on this machine (--rows, --queries, "
        "--sub-query-deadline-ms, --max-retries and --fault-seed "
        "apply; the cluster flags are ignored)",
    )
    p_chaos.add_argument(
        "--local-workers",
        type=int,
        default=2,
        help="process-pool workers for --local",
    )
    p_chaos.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    p_chaos.set_defaults(func=cmd_chaos)

    from repro.analysis.cli import configure_fsck_parser, configure_lint_parser

    p_lint = sub.add_parser(
        "lint", help="run the reprolint static analyzer over source paths"
    )
    configure_lint_parser(p_lint)

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


if __name__ == "__main__":
    sys.exit(main())
