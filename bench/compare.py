"""``python -m bench.compare A.json B.json`` — did B get worse than A?

A and B are reports written by ``python -m bench.run --repeat N``. For
every workload and end-to-end metric the medians of the two sets are
compared in the metric's own direction against its own bound:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: better by more than the bound;
- ``same``: within the bound;
- ``unresolved``: the runs of one side spread wider than the bound, so
  the medians cannot settle it — unless every run of one side beats
  every run of the other, which is still ``better`` or ``worse``.

Exits 1 when any row is ``worse`` or B failed a larger share of its ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Any

from bench.run import load_spec

#: End-to-end metrics ``BENCHMARK.json`` does not carry: ``first_touch_s``
#: has four samples a run, too few to hold still on a shared host, and
#: the others belong to one workload each, while every workload must
#: report every metric the file lists.
WORKLOAD_METRICS = [
    {"name": "first_touch_s", "better": "lower", "bound": 0.25},
    {"name": "op_p90_ms", "better": "lower", "bound": 0.25},
    {"name": "speedup_vs_serial", "better": "higher", "bound": 0.10},
    {"name": "warm_op_p50_ms", "better": "lower", "bound": 0.15},
    {"name": "auto_bytes_per_row", "better": "lower", "bound": 0.01},
]


def spread(values: list[float]) -> float:
    """Interquartile range over the median (full range under four runs)."""
    middle = statistics.median(values)
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    else:
        width = max(values) - min(values)
    return abs(width / middle) if middle else 0.0


def untraced_runs(document: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for run in document["runs"]:
        if not run["env"]["tracing"]:
            runs[run["workload"]].append(run)
    return runs


def verdict(
    before: list[float], after: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The row's verdict and B's change, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / base if base else 0.0
    if max(spread(before), spread(after)) > bound:
        # Signed so that larger is worse, whatever the metric's direction.
        cost_before = [sign * value for value in before]
        cost_after = [sign * value for value in after]
        if min(cost_after) > max(cost_before):
            return "worse", change
        if max(cost_after) < min(cost_before):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(before: dict[str, Any], after: dict[str, Any]) -> tuple[list[str], bool]:
    """One line per (workload, metric) and whether anything regressed."""
    spec = load_spec()
    metrics = spec["end_to_end"] + WORKLOAD_METRICS
    runs_a, runs_b = untraced_runs(before), untraced_runs(after)
    lines = [
        f"{'workload':<14}{'metric':<24}{'A median':>14}{'B median':>14}"
        f"{'B worse by':>12}{'bound':>8}  verdict"
    ]
    regressed = False
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for metric in metrics:
            name = metric["name"]
            values_a = [r["end_to_end"][name] for r in runs_a[workload] if name in r["end_to_end"]]
            values_b = [r["end_to_end"][name] for r in runs_b[workload] if name in r["end_to_end"]]
            if not values_a or not values_b:
                continue
            word, change = verdict(values_a, values_b, metric["better"], metric["bound"])
            regressed = regressed or word == "worse"
            lines.append(
                f"{workload:<14}{name:<24}{statistics.median(values_a):>14.4f}"
                f"{statistics.median(values_b):>14.4f}{change:>+12.2%}"
                f"{metric['bound']:>8.2f}  {word}"
            )
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (runs_a[workload], runs_b[workload])
        ]
        word = "worse" if shares[1] > shares[0] else "same"
        regressed = regressed or word == "worse"
        lines.append(
            f"{workload:<14}{'failed_share':<24}{shares[0]:>14.4f}{shares[1]:>14.4f}"
            f"{'':>12}{0:>8.2f}  {word}"
        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__)
    parser.add_argument("before", help="report of the parent commit (A)")
    parser.add_argument("after", help="report of the change (B)")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.before, args.after):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, regressed = compare(*documents)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
