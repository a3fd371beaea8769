"""The per-layer table of a traced run.

Every number here is derived from spans recorded by ``bench.trace`` or
from values the public calls already return (``QueryResult.stats``,
``ImportStats``, service outcomes). ``bench/README.md`` lists, for each
layer, the end-to-end metric it should move and on which workload.

A *share* is a ratio of time. ``restriction``, ``engine.scan``,
``merge``, ``projection`` and ``finalize`` are shares of the time spent
inside ``DataStore.execute``; ``*.op_share`` is a layer's self time as a
share of the time spent inside ops. A layer a workload never enters
reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any

from bench.trace import Aggregate, Tracer
from bench.workloads import CLASS_NAMES, Phase, Workload

#: span name -> the layer its self time is charged to in ``*.op_share``.
_OP_SHARE_LAYERS = {
    "import.from_table": "import",
    "serde.save": "serde",
    "serde.load": "serde",
    "arena.save": "arena",
    "arena.load": "arena",
    "arena.build": "arena",
    "sql.parse": "sql",
    "plan.resolve": "plan",
    "plan.group": "plan",
    "plan.fingerprint": "plan",
    "datastore.execute": "datastore",
    "datastore.finalize": "datastore",
    "restriction.compile": "datastore",
    "executor.map": "datastore",
    "scheduler.offer": "scheduler",
    "result_cache.lookup": "result_cache",
    "result_cache.admit": "result_cache",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(aggregate: Aggregate) -> float:
    return _ratio(aggregate.total_s, aggregate.calls) * 1e6


def storage_bytes_per_row(store: Any) -> dict[str, float]:
    """Where the resident bytes sit, summed over the original fields."""
    names = ("timestamp", "table_name", "latency", "country", "user_name")
    stores = [store.field(name) for name in names]
    rows = store.n_rows
    return {
        "storage.dict_bytes_per_row": sum(f.dictionary_size_bytes() for f in stores) / rows,
        "storage.chunk_dict_bytes_per_row": sum(f.chunk_dicts_size_bytes() for f in stores) / rows,
        "storage.elements_bytes_per_row": sum(f.elements_size_bytes() for f in stores) / rows,
    }


def import_phase_metrics(stats: Any) -> dict[str, float]:
    """The import phases of the store the ops ran against."""
    phases = stats.phase_seconds()
    out = {
        f"import.{name}_ms": phases[name] * 1e3
        for name in ("factorize", "reorder", "partition", "dictionary", "encode")
    }
    out["import.rows_per_s"] = stats.rows_per_second()["total"]
    return out


def layer_metrics(
    workload: Workload, traced: Phase, untraced: Phase, tracer: Tracer
) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    spans = tracer.aggregate({op.op_id for op in traced.ops})
    setup_spans = tracer.aggregate()
    totals, counted = traced.totals, traced.counted
    op_seconds = sum(op.seconds for op in traced.ops)
    out: dict[str, float] = {}

    # -- inside DataStore.execute -------------------------------------------
    compile_s = spans["restriction.compile"].total_s
    shares = {
        "restriction.share": _ratio(compile_s + totals.restriction_s, totals.elapsed_s),
        "engine.scan_share": _ratio(totals.scan_s, totals.elapsed_s),
        "datastore.merge_share": _ratio(totals.merge_s, totals.elapsed_s),
        "datastore.projection_share": _ratio(totals.projection_s, totals.elapsed_s),
    }
    out.update(shares)
    # What is left: group-value decode, top-k, HAVING/ORDER/LIMIT, parse.
    out["datastore.finalize_share"] = 1.0 - sum(shares.values())
    decide = tracer.tallies["restriction.decide"]
    out.update(
        {
            "sql.parse_us": _mean_us(spans["sql.parse"]),
            "plan.us_per_query": _ratio(
                sum(spans[name].total_s for name in ("plan.resolve", "plan.group", "plan.fingerprint")),
                totals.queries,
            )
            * 1e6,
            "plan.fingerprint_us": _mean_us(spans["plan.fingerprint"]),
            "restriction.compile_ms": _mean_us(spans["restriction.compile"]) / 1e3,
            "restriction.decide_us": _ratio(decide.seconds, decide.calls) * 1e6,
            "restriction.skip_share": _ratio(counted.chunks_skipped, counted.chunks_total),
            "restriction.partial_share": _ratio(decide.outcomes["PARTIAL"], decide.calls),
            "datastore.chunk_cache.hit_share": _ratio(
                counted.chunks_cached, counted.chunks_cached + counted.chunks_scanned
            ),
            "datastore.chunks_scanned_per_query": _ratio(counted.chunks_scanned, counted.queries),
            "datastore.rows_scanned_per_query": _ratio(counted.rows_scanned, counted.queries),
            "engine.scan_ns_per_row": _ratio(totals.scan_s, totals.rows_scanned) * 1e9,
            "executor.unserved_chunks": float(totals.chunks_unserved),
            "executor.map_ms": _mean_us(spans["executor.map"]) / 1e3,
        }
    )
    class_ms = [traced.extras.get(f"datastore.execute_ms.{name}", 0.0) for name in CLASS_NAMES]
    for name, value in zip(CLASS_NAMES, class_ms):
        out[f"datastore.class_share.{name}"] = _ratio(value, sum(class_ms))

    # -- self time per layer, as a share of op time -----------------------------
    layer_self: dict[str, float] = dict.fromkeys(
        list(_OP_SHARE_LAYERS.values()) + ["service"], 0.0
    )
    for name, layer in _OP_SHARE_LAYERS.items():
        layer_self[layer] += spans[name].self_s
    # ``take`` also waits for work; a take that finds work costs about
    # the median take, so that is what each call is charged.
    take = spans["scheduler.take"]
    if take.calls:
        layer_self["scheduler"] += take.calls * statistics.median(take.durations)
        out["scheduler.take_us"] = statistics.median(take.durations) * 1e6
        out["scheduler.offer_us"] = _mean_us(spans["scheduler.offer"])
        out["result_cache.lookup_us"] = _mean_us(spans["result_cache.lookup"])
        out["result_cache.admit_us"] = _mean_us(spans["result_cache.admit"])
    # The service's own time: an answered query's time past the queue,
    # minus what the layers below it account for.
    below = sum(
        spans[name].total_s
        for name in ("plan.fingerprint", "result_cache.lookup", "result_cache.admit")
    )
    layer_self["service"] = max(traced.extras.get("service.busy_s", 0.0) - below, 0.0)
    for layer, seconds in layer_self.items():
        out[f"{layer}.op_share"] = _ratio(seconds, op_seconds)

    footprints = tracer.tallies["result_cache.footprint"].outcomes
    probes = sum(count for size, count in footprints.items() if size is not None)
    covered = sum(size * count for size, count in footprints.items() if size is not None)
    out["result_cache.candidate_chunk_share"] = _ratio(
        covered, probes * workload.measured_store().n_chunks
    )

    # -- set-up, bytes, tracing itself -------------------------------------------
    generate = setup_spans["workload.generate"]
    out["workload.generate_s"] = statistics.median(generate.durations)
    if setup_spans["workload.sessions"].calls:
        out["workload.trace_build_s"] = statistics.median(setup_spans["workload.sessions"].durations)
    if setup_spans["arena.build"].calls:
        out["arena.build_ms"] = max(setup_spans["arena.build"].durations) * 1e3
    out.update(import_phase_metrics(workload.import_stats()))
    out.update(storage_bytes_per_row(workload.measured_store()))
    traced_p50 = statistics.median(traced.latencies())
    untraced_p50 = statistics.median(untraced.latencies())
    out["trace.op_p50_ms"] = traced_p50 * 1e3
    out["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    return out
