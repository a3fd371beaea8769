"""Schema self-test of the benchmark: ``pytest bench/`` (not part of tier-1).

Runs every workload once with ``--quick``, untraced and traced, and
checks the report against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT
from bench.compare import compare
from bench.run import load_spec

_ZERO_WHEN_HEALTHY = {"executor.unserved_chunks", "service.rejected_share"}
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "report.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--quick", "--trace", "--report", str(path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(path.read_text(encoding="utf-8"))


def test_spec_limits(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_every_run_is_correct(spec, document):
    workloads = {w["name"] for w in spec["workloads"]}
    assert {run["workload"] for run in document["runs"]} == workloads
    assert len(document["runs"]) == 2 * len(workloads)
    for run in document["runs"]:
        assert run["correct"], run["failures"] + run["leaks"]
        assert run["failed"] == 0 and run["attempted"] >= 1
        for key in ("nproc", "cpu_model", "python", "numpy", "git_sha", "seed"):
            assert key in run["env"]


def test_every_named_metric_is_emitted(spec, document):
    untraced = [run for run in document["runs"] if not run["env"]["tracing"]]
    traced = [run for run in document["runs"] if run["env"]["tracing"]]
    for run in untraced:
        for metric in spec["end_to_end"]:
            assert run["end_to_end"][metric["name"]] > 0, (run["workload"], metric)
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert any(name in run["layers"] for run in traced), name
        # A layer reads 0 on the workloads that bypass it; a metric that
        # reads 0 on all of them is not being measured at all — unless
        # it counts failures, which a healthy run has none of.
        if name not in _ZERO_WHEN_HEALTHY:
            assert any(run["layers"].get(name, 0.0) != 0 for run in traced), name
    for run in traced:
        assert all(_NAME.match(name) for name in run["layers"])


def test_contract_line(spec):
    """One workload, one run: the last line is the contract's object."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "-m", "bench.run", "--workload", "full_scan", "--quick",
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {metric["name"] for metric in spec[key]}
        for metric in spec[key]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize(
    "workload, trace, metric",
    [
        ("parallel_scan", 0, "speedup_vs_serial"),
        ("parallel_scan", 1, "executor.thread_speedup"),
        ("serve", 0, "warm_op_p50_ms"),
        ("serve", 1, "service.two_workers_vs_one"),
    ],
)
def test_workloads_outside_the_spec_run(spec, workload, trace, metric):
    """Two workloads are not in ``BENCHMARK.json`` but run by name."""
    assert workload not in {w["name"] for w in spec["workloads"]}
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload, "--quick",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert metric in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True


def test_compare_reads_its_own_report(document):
    lines, regressed = compare(document, document)
    assert not regressed
    assert any("op_p50_ms" in line for line in lines)
