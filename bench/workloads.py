"""The five workloads of the click-path benchmark.

Each workload generates its inputs from the seed, runs *ops* — the
unit whose latency a user feels — until its time is up, and checks
every output outside the timed regions. ``bench/README.md`` says why
each one exists, which layers it stresses and which three of them
``BENCHMARK.json`` lists; the names are fixed because later issues cite
them.
"""

from __future__ import annotations

import collections
import gc
import multiprocessing
import os
import pickle
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from bench.oracle import QueryClass, SqliteOracle
from bench.trace import Tracer
from repro.analysis.fsck import fsck_store
from repro.compress.registry import get_codec
from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.result import QueryResult
from repro.core.table import Table
from repro.service import (
    QueryCompleted,
    QueryRejected,
    QueryService,
    ServiceConfig,
    live_services,
)
from repro.sql.parser import parse_query
from repro.storage.arena import live_segment_names, load_arena_store, save_arena
from repro.storage.serde import encode_field_section, load_store, save_store
from repro.workload.generator import LogsConfig, generate_query_logs
from repro.workload.queries import (
    QUERY_1,
    QUERY_2,
    QUERY_3,
    DrillDownConfig,
    generate_drilldown_session_groups,
)

NPROC = os.cpu_count() or 1

#: The generator draws a few structural values per table (each team's
#: home country) that move every timing by about ±6 % and every byte
#: count by ±1 %, whatever the row count. The benchmark blocks on them:
#: one fixed seed (that of ``benchmarks/helpers.bench_table``) generates
#: a pool an eighth larger than the table, and ``--seed`` picks the rows.
STRUCTURE_SEED = 2012

#: Set-up (and the first op on the fresh state) runs this many times in
#: a run, half of them after the timed region.
SETUP_REPEATS = 4


def quiet(samples: list[float], higher_is_better: bool = False) -> float:
    """The best of ``samples``: the one the host disturbed least.

    The benchmark runs on a few cores of a shared host. Whatever else
    runs there only ever adds time, for seconds or for ten minutes on
    end, so samples of one piece of work have a hard floor and a long
    tail, and any quantile of them moves with how much of the run was
    disturbed: over ten runs in a bad quarter of an hour the median
    spread by 0.28, the first decile by 0.22 and the minimum by 0.17; on
    a quiet box all three spread by 0.02. A change to the program moves
    the floor as it moves every other sample.
    """
    return max(samples) if higher_is_better else min(samples)


# -- the nine fixed query classes of full_scan / parallel_scan ---------------

#: m = 1024 smallest hashes: the estimator's standard error is about
#: 1/sqrt(m - 2) = 3.1 %; five of those is the bound a result must meet.
_KMV_TOLERANCE = 5.0 / (1024 - 2) ** 0.5

CLASSES: tuple[QueryClass, ...] = (
    QueryClass(
        "q1", QUERY_1,
        "SELECT country, COUNT(*) FROM data GROUP BY country",
        key=1, descending=True, limit=10,
    ),
    QueryClass(
        "q2", QUERY_2,
        "SELECT date(timestamp, 'unixepoch') AS d, COUNT(*), SUM(latency) "
        "FROM data GROUP BY d",
        key=0, descending=False, limit=10,
    ),
    QueryClass(
        "q3", QUERY_3,
        "SELECT table_name, COUNT(*) FROM data GROUP BY table_name",
        key=1, descending=True, limit=10,
    ),
    QueryClass(
        "multi_agg",
        "SELECT country, COUNT(*) AS c, SUM(latency) AS s, MIN(latency) AS lo, "
        "MAX(latency) AS hi FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
        "SELECT country, COUNT(*), SUM(latency), MIN(latency), MAX(latency) "
        "FROM data GROUP BY country",
        key=1, descending=True, limit=10,
    ),
    QueryClass(
        "distinct",
        "SELECT table_name, COUNT(*) AS c, COUNT(DISTINCT user_name) AS u "
        "FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
        "SELECT table_name, COUNT(*), COUNT(DISTINCT user_name) "
        "FROM data GROUP BY table_name",
        key=1, descending=True, limit=10,
    ),
    QueryClass(
        "user_avg",
        "SELECT user_name, AVG(latency) AS a, COUNT(DISTINCT table_name) AS t "
        "FROM data GROUP BY user_name ORDER BY a DESC LIMIT 10",
        "SELECT user_name, AVG(latency), COUNT(DISTINCT table_name) "
        "FROM data GROUP BY user_name",
        key=1, descending=True, limit=10,
    ),
    QueryClass(
        "filter",
        "SELECT country, COUNT(*) AS c, AVG(latency) AS a FROM data "
        "WHERE latency > 500 GROUP BY country ORDER BY c DESC LIMIT 10",
        "SELECT country, COUNT(*), AVG(latency) FROM data "
        "WHERE latency > 500 GROUP BY country",
        key=1, descending=True, limit=10,
    ),
    QueryClass(
        "approx",
        "SELECT country, APPROX_COUNT_DISTINCT(table_name, 1024) AS t "
        "FROM data GROUP BY country ORDER BY t DESC LIMIT 10",
        "SELECT country, COUNT(DISTINCT table_name) FROM data GROUP BY country",
        key=1, descending=True, limit=10, tolerance=_KMV_TOLERANCE,
    ),
    QueryClass(
        "project",
        "SELECT table_name, country, latency FROM data "
        "WHERE latency > 5000 ORDER BY latency DESC LIMIT 20",
        "SELECT table_name, country, latency FROM data WHERE latency > 5000",
        key=2, descending=True, limit=20, grouped=False,
    ),
)
CLASS_NAMES = tuple(query.name for query in CLASSES)


# -- what a run hands back ----------------------------------------------------


@dataclass
class Op:
    """One timed op; ``failed`` says why it does not count as served."""

    seconds: float
    failed: str | None = None
    #: The id its spans carry in a traced run.
    op_id: str | None = None


@dataclass
class QueryTotals:
    """Sums of what ``DataStore.execute`` reported for every query run."""

    queries: int = 0
    elapsed_s: float = 0.0
    restriction_s: float = 0.0
    scan_s: float = 0.0
    merge_s: float = 0.0
    projection_s: float = 0.0
    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_cached: int = 0
    chunks_scanned: int = 0
    chunks_unserved: int = 0
    rows_scanned: int = 0

    def add(self, result: QueryResult) -> None:
        stats = result.stats
        self.queries += 1
        self.elapsed_s += result.elapsed_seconds
        self.restriction_s += stats.restriction_seconds
        self.scan_s += stats.scan_seconds
        self.merge_s += stats.merge_seconds
        self.projection_s += stats.projection_seconds
        self.chunks_total += stats.chunks_total
        self.chunks_skipped += stats.chunks_skipped
        self.chunks_cached += stats.chunks_cached
        self.chunks_scanned += stats.chunks_scanned
        self.chunks_unserved += stats.chunks_unserved
        self.rows_scanned += stats.rows_scanned


@dataclass
class Phase:
    """One timed region: its ops, round after round, and what it counted."""

    #: A round is this many different ops, always the same ones in the
    #: same order; the timed region is whole rounds, so every op of a
    #: round is timed equally often.
    round_ops: int = 1
    ops: list[Op] = field(default_factory=list)
    #: Wall clock of each round, where its ops overlap (serve).
    round_walls: list[float] = field(default_factory=list)
    #: ``ru_maxrss`` of this process once the first ``min_ops`` ops are
    #: done: a fixed amount of work, however many ops fit the run.
    rss_kb: int = 0
    #: Ops outside the latency sample (ingest's codec="auto" cycles, the
    #: serve warm replay) that still count as attempted and may fail.
    side_ops: list[Op] = field(default_factory=list)
    totals: QueryTotals = field(default_factory=QueryTotals)
    #: The same sums over the first ``min_ops`` ops only: a fixed set of
    #: queries, so these counts repeat exactly for a fixed seed.
    counted: QueryTotals = field(default_factory=QueryTotals)
    #: Samples of the first query against a fresh store, where the op
    #: itself takes them (ingest).
    first_touch_s: list[float] = field(default_factory=list)
    #: Workload-specific measurements, already named and in their unit:
    #: ``layer.metric`` names belong to a layer, names without a dot are
    #: end-to-end numbers only this workload has.
    extras: dict[str, float] = field(default_factory=dict)

    def latencies(self) -> list[float]:
        return [op.seconds for op in self.ops]

    def op_samples(self) -> list[list[float]]:
        """For each op of a round, its latency in every round."""
        size = self.round_ops
        return [[op.seconds for op in self.ops[at::size]] for at in range(size)]

    def op_times(self) -> list[float]:
        """The quiet latency of each op of a round."""
        return [quiet(samples) for samples in self.op_samples()]

    def ops_per_s(self) -> float:
        """Ops of a round over the quiet time a round takes."""
        if self.round_walls:
            rates = [self.round_ops / wall for wall in self.round_walls]
            return quiet(rates, higher_is_better=True)
        return self.round_ops / sum(self.op_times())

    def more(self, min_ops: int, deadline: float) -> bool:
        """Whether another op is due: whole rounds, ``min_ops``, the time."""
        done = len(self.ops)
        if done >= min_ops and not self.rss_kb:
            self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (
            done < min_ops
            or done % self.round_ops != 0
            or time.perf_counter() < deadline
        )

    def record(self, result: QueryResult, counted: bool) -> None:
        self.totals.add(result)
        if counted:
            self.counted.add(result)


def structure_pool(rows: int) -> Table:
    """The fixed-structure pool a table of ``rows`` rows is drawn from.

    Cardinalities scale with ``rows`` as in
    ``benchmarks/helpers.bench_table``.
    """
    return generate_query_logs(
        LogsConfig(
            n_rows=rows + rows // 8,
            n_days=min(92, max(14, rows // 4000)),
            n_teams=min(40, max(8, rows // 3000)),
            datasets_per_team=8,
            seed=STRUCTURE_SEED,
        )
    )


def draw_table(pool: Table, rows: int, seed: int) -> Table:
    """``rows`` rows of ``pool``, picked by ``seed``, in the pool's order."""
    picked = np.random.default_rng(seed).choice(pool.n_rows, rows, replace=False)
    return pool.take(np.sort(picked))


def store_options(rows: int, **overrides: Any) -> DataStoreOptions:
    return DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=max(64, rows // 100),
        reorder_rows=True,
        **overrides,
    )


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Workload:
    """Set-up, first touch, timed ops, verification, clean-up."""

    name = ""
    rows = 200_000
    quick_rows = 12_000
    #: The timed region runs at least this many ops, so counts taken
    #: over the first ``min_ops`` ops repeat exactly for a fixed seed.
    #: A multiple of ``round_ops``.
    min_ops = 1
    quick_min_ops = 1
    #: Different ops in a round of the timed region (see ``Phase``).
    round_ops = 1

    def __init__(self, seed: int, quick: bool, tracer: Tracer, scratch: str) -> None:
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.scratch = scratch
        if quick:
            self.rows = self.quick_rows
            self.min_ops = self.quick_min_ops
        self.pool: Table | None = None
        self.table: Table | None = None
        self.store: DataStore | None = None
        self._paths = 0

    # -- pieces shared by the workloads -----------------------------------
    def generate_pool(self) -> None:
        """Once a run, before the set-ups: the pool every table comes from."""
        with self.tracer.span("workload.generate"):
            self.pool = structure_pool(self.rows)

    def draw(self) -> Table:
        assert self.pool is not None
        return draw_table(self.pool, self.rows, self.seed)

    def phase(self) -> Phase:
        return Phase(round_ops=self.round_ops)

    def build(self, table: Table, **overrides: Any) -> DataStore:
        with self.tracer.span("import.from_table"):
            return DataStore.from_table(table, store_options(self.rows, **overrides))

    def path(self, suffix: str) -> str:
        """A scratch file name no earlier call returned."""
        self._paths += 1
        return os.path.join(self.scratch, f"{self.name}-{self._paths}{suffix}")

    # -- the protocol ``bench.run`` drives ---------------------------------
    def setup(self) -> None:
        """Everything before the first op; timed as ``setup_s``."""
        raise NotImplementedError

    def first_touch(self) -> None:
        """The first op on the fresh state; timed as ``first_touch_s``."""

    def discard(self) -> None:
        """Drop the state ``setup`` built, before it runs again."""
        self.table = None
        self.store = None

    def prepare(self) -> None:
        """Build the oracle (untimed) and drop what the ops do not need."""

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def import_stats(self) -> Any:
        """``ImportStats`` of the store the ops run against."""
        return self.store.import_stats if self.store is not None else None

    def measured_store(self) -> DataStore:
        """The store whose bytes the report states."""
        assert self.store is not None
        return self.store

    def traced_extras(self) -> dict[str, float]:
        """Measurements only the traced run pays for."""
        return {}

    def close(self) -> None:
        if self.store is not None:
            self.store.executor.close()


# -- ingest -------------------------------------------------------------------


class Ingest(Workload):
    """import -> save (PDS2) -> save (arena) -> load both -> first query."""

    name = "ingest"
    min_ops = 5
    quick_min_ops = 2

    def setup(self) -> None:
        """Draw the table and run one cycle to warm the write path up."""
        self.table = self.draw()
        self._cycle(None, codec=None)

    def prepare(self) -> None:
        assert self.table is not None
        super().prepare()
        self.oracle = SqliteOracle(self.table, self.path(".sqlite"))

    def measured_store(self) -> DataStore:
        return self._imported

    def import_stats(self) -> Any:
        return self._imported.import_stats

    def _cycle(
        self, op_id: str | None, codec: str | None
    ) -> tuple[Op, dict[str, Any]]:
        """One import -> save -> load -> first-query cycle."""
        assert self.table is not None
        tracer = self.tracer
        pds_path = self.path(".pds")
        arena_path = self.path(".arena")
        times: dict[str, float] = {}

        def step(label: str, span: str, call: Callable[[], Any]) -> Any:
            started = time.perf_counter()
            with tracer.span(span):
                value = call()
            times[label] = time.perf_counter() - started
            return value

        with tracer.span("ingest.op", op_id):
            started = time.perf_counter()
            imported = step(
                "import", "import.from_table",
                lambda: DataStore.from_table(
                    self.table, store_options(self.rows, codec=codec)
                ),
            )
            step("save", "serde.save", lambda: save_store(imported, pds_path))
            step("arena_save", "arena.save", lambda: save_arena(imported, arena_path))
            loaded = step("load", "serde.load", lambda: load_store(pds_path))
            mapped = step(
                "arena_load", "arena.load", lambda: load_arena_store(arena_path)
            )
            touched = time.perf_counter()
            first = [loaded.execute(QUERY_1), mapped.execute(QUERY_1)]
            ended = time.perf_counter()
        times["first_touch"] = ended - touched
        op = Op(ended - started, op_id=op_id)
        info = {
            "times": times,
            "first": first,
            "imported": imported,
            "loaded": (loaded, mapped),
            "pds_bytes": os.path.getsize(pds_path),
            "arena_bytes": os.path.getsize(arena_path),
        }
        os.unlink(pds_path)
        os.unlink(arena_path)
        return op, info

    def _check(self, op: Op, info: dict[str, Any]) -> None:
        """Both loaded stores must answer like the imported one."""
        imported = info["imported"]
        loaded, mapped = info["loaded"]
        for sql, loaded_results in ((QUERY_1, info["first"]), (QUERY_3, None)):
            reference = imported.execute(sql)
            if loaded_results is None:
                loaded_results = [loaded.execute(sql), mapped.execute(sql)]
            for result in loaded_results:
                if not (result.complete and result.content_equal(reference)):
                    op.failed = f"a loaded store answers {sql!r} differently"

    def run(self, seconds: float) -> Phase:
        phase = self.phase()
        deadline = time.perf_counter() + seconds
        step_times: dict[str, list[float]] = collections.defaultdict(list)
        info: dict[str, Any] = {}
        while phase.more(self.min_ops, deadline):
            op, info = self._cycle(f"op{len(phase.ops)}", codec=None)
            self._check(op, info)
            if not phase.ops:
                self._check_first(op, info)
            for result in info["first"]:
                phase.record(result, counted=len(phase.ops) < self.min_ops)
            phase.ops.append(op)
            phase.first_touch_s.append(info["times"]["first_touch"])
            for label, value in info["times"].items():
                step_times[label].append(value)
        self._imported = info["imported"]
        phase.extras.update(
            {
                "store_bytes_per_row": info["pds_bytes"] / self.rows,
                "arena.file_bytes_per_row": info["arena_bytes"] / self.rows,
                "serde.save_ms": statistics.median(step_times["save"]) * 1e3,
                "serde.load_ms": statistics.median(step_times["load"]) * 1e3,
                "serde.save_mb_per_s": info["pds_bytes"]
                / 1e6
                / statistics.median(step_times["save"]),
                "arena.save_ms": statistics.median(step_times["arena_save"]) * 1e3,
                "arena.load_ms": statistics.median(step_times["arena_load"]) * 1e3,
            }
        )

        # codec="auto": the advisor picks a codec per field. Its time is
        # paid only here, so these cycles stay out of the latency sample.
        auto_ops = 2 if self.tracer.enabled else 1
        auto_times: dict[str, list[float]] = collections.defaultdict(list)
        for index in range(auto_ops):
            op, info = self._cycle(f"auto{index}", codec="auto")
            self._check(op, info)
            phase.side_ops.append(op)
            auto_times["import"].append(
                info["imported"].import_stats.advisor_seconds
            )
            auto_times["save"].append(info["times"]["save"])
        phase.extras.update(
            {
                "auto_bytes_per_row": info["pds_bytes"] / self.rows,
                "advisor.import_ms": statistics.median(auto_times["import"]) * 1e3,
                "advisor.save_ms": statistics.median(auto_times["save"]) * 1e3,
            }
        )
        return phase

    def _check_first(self, op: Op, info: dict[str, Any]) -> None:
        """The expensive checks, once: sqlite on Q1/Q3 and a full fsck."""
        imported = info["imported"]
        for query in CLASSES:
            if query.name in ("q1", "q3"):
                problem = self.oracle.problem(
                    query, imported.execute(query.sql).rows()
                )
                if problem:
                    op.failed = f"{query.name}: {problem}"
        for store in info["loaded"]:
            report = fsck_store(store)
            if not report.ok:
                op.failed = f"fsck: {report.summary()}"

    def traced_extras(self) -> dict[str, float]:
        """Codec throughput and ratio over the store's PDS2 field sections."""
        store = self._imported
        sections = [
            encode_field_section(store.field(name))
            for name in ("timestamp", "table_name", "latency", "country", "user_name")
        ]
        raw_bytes = sum(len(section) for section in sections)
        extras: dict[str, float] = {}
        for codec_name in ("zippy", "lzo", "huffman", "rle"):
            codec = get_codec(codec_name)
            started = time.perf_counter()
            packed = [codec.compress(section) for section in sections]
            encoded = time.perf_counter()
            unpacked = [codec.decompress(blob) for blob in packed]
            decoded = time.perf_counter()
            if unpacked != sections:
                raise AssertionError(f"codec {codec_name} does not round-trip")
            packed_bytes = sum(len(blob) for blob in packed)
            prefix = f"compress.{codec_name}"
            extras[f"{prefix}.encode_mb_per_s"] = raw_bytes / 1e6 / (encoded - started)
            extras[f"{prefix}.decode_mb_per_s"] = raw_bytes / 1e6 / (decoded - encoded)
            extras[f"{prefix}.ratio"] = packed_bytes / raw_bytes
        return extras

    def close(self) -> None:
        self.oracle.close()


# -- full_scan ----------------------------------------------------------------


class FullScan(Workload):
    """Nine query classes over every chunk, nothing cached, serial."""

    name = "full_scan"
    min_ops = 5
    quick_min_ops = 2
    classes = CLASSES

    def setup(self) -> None:
        self.table = self.draw()
        self.store = self.build(self.table, cache_chunk_results=False)

    def first_touch(self) -> None:
        self._pass(self.store, Phase(), None)

    def prepare(self) -> None:
        assert self.table is not None
        super().prepare()
        self.oracle = SqliteOracle(self.table, self.path(".sqlite"))
        self.table = None

    def _pass(
        self, store: DataStore, phase: Phase, op_id: str | None
    ) -> list[QueryResult]:
        """One pass over the classes — one dashboard refresh."""
        results = []
        with self.tracer.span(f"{self.name}.op", op_id):
            started = time.perf_counter()
            for query in self.classes:
                results.append(store.execute(query.sql))
            elapsed = time.perf_counter() - started
        counted = len(phase.ops) < self.min_ops
        phase.ops.append(Op(elapsed, op_id=op_id))
        for result in results:
            phase.record(result, counted)
        return results

    def _check(self, op: Op, results: list[QueryResult]) -> None:
        for query, result in zip(self.classes, results):
            if not result.complete:
                op.failed = f"{query.name}: incomplete result"
                continue
            problem = self.oracle.problem(query, result.rows())
            if problem:
                op.failed = f"{query.name}: {problem}"

    def run(self, seconds: float) -> Phase:
        phase = self.phase()
        class_seconds: dict[str, list[float]] = collections.defaultdict(list)
        deadline = time.perf_counter() + seconds
        while phase.more(self.min_ops, deadline):
            results = self._pass(self.store, phase, f"op{len(phase.ops)}")
            self._check(phase.ops[-1], results)
            for query, result in zip(self.classes, results):
                class_seconds[query.name].append(result.elapsed_seconds)
        for name, values in class_seconds.items():
            phase.extras[f"datastore.execute_ms.{name}"] = statistics.median(values) * 1e3
        return phase

    def traced_extras(self) -> dict[str, float]:
        """``date(timestamp)`` materialisation alone, on a fresh store."""
        assert self.store is not None
        fresh = load_store_copy(self.store, self.path(".pds"))
        expr = parse_query("SELECT date(timestamp) FROM data").select[0].expr
        started = time.perf_counter()
        fresh.ensure_field(expr)
        return {"datastore.virtual_field_s": time.perf_counter() - started}

    def close(self) -> None:
        self.oracle.close()
        super().close()


def load_store_copy(store: DataStore, path: str) -> DataStore:
    """A second store with the same contents and no virtual fields yet."""
    save_store(store, path)
    copy = load_store(path)
    os.unlink(path)
    return copy


# -- parallel_scan ------------------------------------------------------------


class ParallelScan(FullScan):
    """The same kernels through the process executor on an mmap arena."""

    name = "parallel_scan"
    rows = 300_000
    quick_rows = 24_000
    min_ops = 6
    quick_min_ops = 2
    #: q2's virtual field is measured in full_scan.
    classes = tuple(query for query in CLASSES if query.name != "q2")

    def setup(self) -> None:
        self.table = self.draw()
        built = self.build(self.table, cache_chunk_results=False)
        self._import_stats = built.import_stats
        arena_path = self.path(".arena")
        with self.tracer.span("arena.save"):
            self.arena_bytes = save_arena(built, arena_path)
        # The attach cache hands out one store per path, and the serial
        # passes need their own: a second name for the same file gives a
        # second store over the same pages.
        serial_path = self.path(".arena")
        os.link(arena_path, serial_path)
        with self.tracer.span("arena.load"):
            self.store = load_arena_store(arena_path)
        self.serial_store = load_arena_store(serial_path)
        self.store.configure_runtime(executor="process", workers=NPROC)
        self._files = [arena_path, serial_path]

    def import_stats(self) -> Any:
        return self._import_stats

    def discard(self) -> None:
        assert self.store is not None
        self.store.executor.close()
        for path in self._files:
            os.unlink(path)
        self._files = []
        self.serial_store = None
        super().discard()

    def run(self, seconds: float) -> Phase:
        """Process passes are the ops; serial passes interleave as the base."""
        phase = self.phase()
        serial = Phase()
        deadline = time.perf_counter() + seconds
        while phase.more(self.min_ops, deadline):
            gc.collect()
            reference = self._pass(
                self.serial_store, serial, f"serial{len(serial.ops)}"
            )
            self._check(serial.ops[-1], reference)
            for __ in range(2):
                results = self._pass(self.store, phase, f"op{len(phase.ops)}")
                for query, result, expected in zip(self.classes, results, reference):
                    if not (result.complete and result.content_equal(expected)):
                        phase.ops[-1].failed = (
                            f"{query.name}: process result differs from serial"
                        )
        phase.side_ops = serial.ops
        process_p50 = quiet(phase.latencies())
        serial_p50 = quiet(serial.latencies())
        phase.extras.update(
            {
                "speedup_vs_serial": serial_p50 / process_p50,
                "serial_op_p50_ms": serial_p50 * 1e3,
                "executor.scan_s_vs_serial": (
                    (phase.totals.scan_s / len(phase.ops))
                    / (serial.totals.scan_s / len(serial.ops))
                ),
                "executor.task_pickle_bytes": float(len(pickle.dumps(self.store))),
                "engine.scan_ns_per_row": serial.totals.scan_s
                / serial.totals.rows_scanned
                * 1e9,
                "arena.file_bytes_per_row": self.arena_bytes / self.rows,
            }
        )
        return phase

    def traced_extras(self) -> dict[str, float]:
        """A thread-executor pass against a serial pass, same store."""
        scratch = Phase()
        self.serial_store.configure_runtime(executor="thread", workers=NPROC)
        self._pass(self.serial_store, scratch, "thread-warm")
        self._pass(self.serial_store, scratch, "thread")
        self.serial_store.configure_runtime(executor="serial")
        self._pass(self.serial_store, scratch, "thread-base")
        return {
            "executor.thread_speedup": scratch.ops[2].seconds / scratch.ops[1].seconds
        }

    def close(self) -> None:
        self.oracle.close()
        self.discard()


# -- drilldown ----------------------------------------------------------------


class Drilldown(Workload):
    """Drill-down clicks straight into ``DataStore.execute``, one thread."""

    name = "drilldown"
    n_sessions = 8
    quick_sessions = 2
    clicks_per_session = 4
    #: The op is a click.
    ops_per_session = clicks_per_session
    #: A round is one replay of every session's clicks on a cold cache.
    round_ops = min_ops = n_sessions * ops_per_session
    quick_min_ops = quick_sessions * ops_per_session
    #: One query in this many is re-run on the reference store.
    verify_every = 10

    def setup(self) -> None:
        assert self.pool is not None
        self.table = self.draw()
        self.store = self.build(self.table)
        with self.tracer.span("workload.sessions"):
            # The sessions are the same for every seed, like the nine
            # classes of full_scan: their script (which field a click
            # restricts, how many values, which charts) keeps the
            # library's default seed and their values come from the
            # pool. Drawn per seed, the 32 clicks alone move the median
            # click by more than a regression bound.
            self.sessions = generate_drilldown_session_groups(
                self.pool,
                DrillDownConfig(
                    n_sessions=self.quick_sessions if self.quick else self.n_sessions,
                    clicks_per_session=self.clicks_per_session,
                    queries_per_click=20,
                ),
            )
        self.round_ops = len(self.sessions) * self.ops_per_session

    def first_touch(self) -> None:
        """The landing query: it materialises ``date(timestamp)``."""
        assert self.store is not None
        self.store.execute(QUERY_2)

    def prepare(self) -> None:
        """The reference: the same table, serial, nothing cached."""
        assert self.table is not None
        super().prepare()
        self.reference = DataStore.from_table(
            self.table, store_options(self.rows, cache_chunk_results=False)
        )
        self._expected: dict[str, QueryResult] = {}
        self.table = None

    def problem(self, sql: str, result: QueryResult) -> str | None:
        if not result.complete:
            return f"incomplete result for {sql!r}"
        if sql not in self._expected:
            self._expected[sql] = self.reference.execute(sql)
        if not result.content_equal(self._expected[sql]):
            return f"result differs from the reference store for {sql!r}"
        return None

    def run(self, seconds: float) -> Phase:
        assert self.store is not None
        phase = self.phase()
        sampled: list[tuple[Op, str, QueryResult]] = []
        clicks = [click for session in self.sessions for click in session]
        deadline = time.perf_counter() + seconds
        position = 0
        while phase.more(self.min_ops, deadline):
            if position % len(clicks) == 0:
                # A replay starts cold: replacing the cache empties it.
                self.store.configure_runtime(cache_policy="lru")
                gc.collect()
            click = clicks[position % len(clicks)]
            op_id = f"op{position}"
            with self.tracer.span("drilldown.op", op_id):
                started = time.perf_counter()
                results = [self.store.execute(sql) for sql in click]
                elapsed = time.perf_counter() - started
            op = Op(elapsed, op_id=op_id)
            phase.ops.append(op)
            for query_index, (sql, result) in enumerate(zip(click, results)):
                phase.record(result, counted=position < self.min_ops)
                if (position * len(click) + query_index) % self.verify_every == 0:
                    sampled.append((op, sql, result))
            position += 1
        for op, sql, result in sampled:
            op.failed = self.problem(sql, result) or op.failed
        phase.extras["op_p90_ms"] = p90(phase.latencies()) * 1e3
        return phase


# -- serve --------------------------------------------------------------------


class Serve(Drilldown):
    """The same sessions through ``QueryService``, closed loop, NPROC clients.

    The op is a whole session, not a click. With two clients a cheap
    click takes 20 ms alone and 60 ms behind the other client's
    expensive click, which is most of the time: the median click sits
    between those two modes and moved by ±20 % between runs of the same
    code, while the median session (each has clicks of both kinds) moved
    by ±2 %.
    """

    name = "serve"
    ops_per_session = 1
    #: A round replays every session on a fresh service over a cold
    #: chunk cache, then replays them again warm. Two rounds at least.
    round_ops = Drilldown.n_sessions
    min_ops = 2 * Drilldown.n_sessions
    quick_min_ops = Drilldown.quick_sessions
    clients = NPROC
    #: One dispatch thread. With two, the threads hand the interpreter
    #: lock back and forth around every small numpy call and the cold
    #: replay takes 2.4 times as long — unless something else on the host
    #: gets in their way, which makes it faster: a state that noise moves
    #: in both directions cannot be gated. The traced run still measures
    #: it, as ``service.two_workers_vs_one``.
    service_workers = 1

    def _replay(
        self,
        service: QueryService,
        sessions: list[tuple[int, list[list[str]]]],
        clients: int,
        label: str,
    ) -> tuple[list[tuple[Op, list[Any]]], float]:
        """Closed loop: each client replays whole sessions, click by click.

        A click submits its 20 queries together and waits for all of
        them — a UI session waits for its charts before the next click.
        Returns each session's op and outcomes, in session order.
        """
        pending = collections.deque(sessions)
        records: dict[int, tuple[Op, list[Any]]] = {}
        errors: list[BaseException] = []
        tracer = self.tracer

        def client(index: int) -> None:
            tenant = f"tenant-{index}"
            try:
                while True:
                    try:
                        session_index, session = pending.popleft()
                    except IndexError:
                        return
                    session_id = f"s{session_index}"
                    op_id = f"{label}-{session_id}"
                    tracer.session_ops[session_id] = op_id
                    outcomes = []
                    with tracer.span("serve.op", op_id):
                        started = time.perf_counter()
                        for click in session:
                            tickets = [
                                service.submit(tenant, sql, session=session_id)
                                for sql in click
                            ]
                            outcomes += [ticket.outcome(120.0) for ticket in tickets]
                        elapsed = time.perf_counter() - started
                    records[session_index] = (Op(elapsed, op_id=op_id), outcomes)
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(index,), name=f"bench-client-{index}")
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise errors[0]
        return [records[index] for index in sorted(records)], wall

    def _round(
        self, sessions: list[tuple[int, list[list[str]]]], clients: int, workers: int,
        label: str,
    ) -> tuple[Any, Any, dict[str, Any]]:
        """A fresh service over a cold chunk cache: cold replay, then warm."""
        assert self.store is not None
        self.store.configure_runtime(cache_policy="lru")
        gc.collect()
        config = ServiceConfig(workers=workers, queue_depth=max(32, clients * 20))
        with QueryService(self.store, config) as service:
            cold = self._replay(service, sessions, clients, f"{label}-cold")
            warm = self._replay(service, sessions, clients, f"{label}-warm")
            stats = service.stats()
        return cold, warm, stats

    def _check_session(self, op: Op, outcomes: list[Any], warm: bool) -> Op:
        for outcome in outcomes:
            if isinstance(outcome, QueryRejected):
                op.failed = f"rejected: {outcome.reason}"
            elif not isinstance(outcome, QueryCompleted):
                op.failed = f"failed: {getattr(outcome, 'error', outcome)}"
            elif not outcome.result.complete:
                op.failed = "degraded result"
            elif warm and outcome.cache_path != "hit":
                op.failed = f"warm replay served by {outcome.cache_path}"
        return op

    def prepare(self) -> None:
        """The reference store, and one round that nobody times.

        With two workers the first service on a fresh store can run the
        cold replay twice as fast as every later one (see
        ``service_workers``); with one there is little left of that, but
        the timed rounds should still all be rounds on a used store.
        """
        super().prepare()
        self._round(
            list(enumerate(self.sessions)), self.clients, self.service_workers, "warm-up"
        )

    def run(self, seconds: float) -> Phase:
        phase = self.phase()
        sessions = list(enumerate(self.sessions))
        deadline = time.perf_counter() + seconds
        warm_seconds: list[float] = []
        warm_wall = 0.0
        queue_waits: list[float] = []
        service_self = 0.0
        paths: collections.Counter = collections.Counter()
        used_bytes: list[float] = []
        sampled: list[tuple[Op, str, QueryResult]] = []
        position = 0
        index = 0
        while phase.more(self.min_ops, deadline):
            cold, warm, stats = self._round(
                sessions, self.clients, self.service_workers, f"r{index}"
            )
            index += 1
            cold_records, cold_wall = cold
            phase.round_walls.append(cold_wall)
            used_bytes.append(stats["cache"]["used_bytes"])
            for op, outcomes in cold_records:
                phase.ops.append(self._check_session(op, outcomes, warm=False))
                for outcome in outcomes:
                    position += 1
                    if not isinstance(outcome, QueryCompleted):
                        paths["rejected" if isinstance(outcome, QueryRejected) else "failed"] += 1
                        continue
                    paths[outcome.cache_path] += 1
                    queue_waits.append(outcome.queue_seconds)
                    service_self += outcome.total_seconds - outcome.queue_seconds
                    if outcome.cache_path != "hit":
                        phase.record(outcome.result, counted=True)
                        service_self -= outcome.result.elapsed_seconds
                    if position % self.verify_every == 0:
                        sampled.append((op, outcome.sql, outcome.result))
            warm_wall += warm[1]
            for op, outcomes in warm[0]:
                phase.side_ops.append(self._check_session(op, outcomes, warm=True))
                warm_seconds.append(op.seconds)
        for op, sql, result in sampled:
            op.failed = self.problem(sql, result) or op.failed
        answered = paths["hit"] + paths["subsumption"] + paths["miss"]
        submitted = answered + paths["rejected"] + paths["failed"]
        phase.extras.update(
            {
                "warm_op_p50_ms": statistics.median(warm_seconds) * 1e3,
                "serve.warm_clicks_per_s": len(warm_seconds)
                * self.clicks_per_session
                / warm_wall,
                "service.queue_wait_ms": statistics.median(queue_waits) * 1e3,
                "service.self_ms": service_self / max(answered, 1) * 1e3,
                "service.busy_s": service_self,
                "service.rejected_share": paths["rejected"] / submitted,
                "result_cache.hit_share": paths["hit"] / max(answered, 1),
                "result_cache.subsumption_share": paths["subsumption"] / max(answered, 1),
                "result_cache.miss_share": paths["miss"] / max(answered, 1),
                "result_cache.used_bytes": statistics.median(used_bytes),
                "result_cache.warm_hit_share": (
                    sum(not op.failed for op in phase.side_ops) / len(phase.side_ops)
                ),
            }
        )
        return phase

    def traced_extras(self) -> dict[str, float]:
        """Cold rounds with one client, and with two workers, to compare."""
        sessions = list(enumerate(self.sessions))
        walls = {}
        for label, clients, workers in (
            ("base", 1, 1),
            ("one", self.clients, 1),
            ("two", self.clients, 2),
        ):
            (__, walls[label]), ___, ____ = self._round(sessions, clients, workers, label)
        return {
            "service.base_ops_per_s": len(sessions) / walls["base"],
            "service.two_workers_vs_one": walls["one"] / walls["two"],
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Ingest, FullScan, ParallelScan, Drilldown, Serve)
}


def reap_children(timeout: float = 10.0) -> int:
    """Wait for worker processes to end; returns how many had to be killed.

    ``ProcessExecutor.close`` returns once its pool is told to shut
    down; the pool's own thread joins the workers a moment later, and
    only a reaped child counts in ``RUSAGE_CHILDREN``. Polling, not
    joining: a second ``join`` on a process its pool is joining can
    lose the race for its exit status and then waits out its timeout.
    """
    deadline = time.perf_counter() + timeout
    while multiprocessing.active_children() and time.perf_counter() < deadline:
        time.sleep(0.02)
    stragglers = multiprocessing.active_children()
    for child in stragglers:
        child.terminate()
        child.join()
    return len(stragglers)


def leaks(scratch: str) -> list[str]:
    """What a finished workload left behind; empty when the box is clean."""
    found = []
    if live_services():
        found.append(f"{len(live_services())} live QueryService")
    children = multiprocessing.active_children()
    if children:
        found.append(f"{len(children)} live child process(es)")
    if live_segment_names():
        found.append(f"shm segments {live_segment_names()}")
    leftovers = sorted(os.listdir(scratch))
    if leftovers:
        found.append(f"scratch files {leftovers}")
    return found
