"""Section 5 "Count Distinct": KMV approximation accuracy and overhead.

Paper: exact count distinct "can be a very costly operation for fields
with large numbers of distinct values, both with respect to memory and
runtime"; the KMV sketch with m "in the order of a couple of thousand"
approximates it "with comparatively small overhead".

This bench counts distinct table names per country exactly and with
several sketch sizes, reporting error and runtime. Shape: error falls
as m grows (~1/sqrt(m)), and the m=1024 sketch stays within a few
percent while touching only m hashes per group.
"""

from __future__ import annotations

import time

from benchmarks.helpers import emit_report
from tests.sanitizer import values_equal

_EXACT = (
    "SELECT country, COUNT(DISTINCT table_name) as cd FROM data "
    "GROUP BY country ORDER BY country ASC LIMIT 30"
)


def _approx_query(m: int) -> str:
    return (
        f"SELECT country, APPROX_COUNT_DISTINCT(table_name, {m}) as cd "
        "FROM data GROUP BY country ORDER BY country ASC LIMIT 30"
    )


def test_kmv_accuracy_and_overhead(benchmark, reorder_store):
    store = reorder_store
    started = time.perf_counter()
    exact = dict(store.execute(_EXACT).rows())
    exact_seconds = time.perf_counter() - started

    rows_by_m = {}
    seconds_by_m = {}
    for m in (64, 256, 1024, 4096):
        started = time.perf_counter()
        rows_by_m[m] = dict(store.execute(_approx_query(m)).rows())
        seconds_by_m[m] = time.perf_counter() - started

    benchmark(lambda: store.execute(_approx_query(1024)))

    lines = [
        "Section 5 count distinct — KMV vs exact "
        "(distinct table_name per country)",
        "",
        f"exact: {1000 * exact_seconds:.1f} ms",
        f"{'m':>6} {'mean rel err':>12} {'max rel err':>12} {'ms':>9}",
    ]
    errors = {}
    for m, approx in rows_by_m.items():
        rel = [
            abs(approx[c] - exact[c]) / exact[c]
            for c in exact
            if exact[c] > 0
        ]
        errors[m] = sum(rel) / len(rel)
        lines.append(
            f"{m:>6} {errors[m]:>12.3%} {max(rel):>12.3%} "
            f"{1000 * seconds_by_m[m]:>9.1f}"
        )
    emit_report("count_distinct", lines)

    # Error shrinks with m (allowing noise between adjacent sizes).
    assert errors[4096] <= errors[64]
    assert errors[1024] < 0.10, f"m=1024 error {errors[1024]:.1%}"
    # Groups smaller than m are exact by construction.
    smallest = min(exact, key=exact.get)
    if exact[smallest] < 64:
        assert values_equal(rows_by_m[64][smallest], exact[smallest])
