"""``python -m bench.run`` — run the click-path benchmark and report it.

One workload, one run (the form the benchmark contract calls)::

    python -m bench.run --workload drilldown --seed 3 --seconds 28 --trace 0

prints a table of every metric with its unit, writes the full report
to ``bench/out/``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` names —
the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``. Without ``--workload`` every workload ``BENCHMARK.json``
lists runs, each in its own process (peak RSS is per process); ``serve``
and ``parallel_scan`` run by name only. ``--repeat N`` makes the N sets
``bench.compare`` wants and ``--quick`` shrinks everything to seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

_STARTED = time.perf_counter()

from bench import ROOT  # noqa: E402  (puts src/ on the path)

OUT_DIR = ROOT / "bench" / "out"


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(seed: int, trace: bool, quick: bool) -> dict[str, Any]:
    """The hardware and software next to every number."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": seed,
        "tracing": trace,
        "quick": quick,
    }


def peak_rss_mb(own_kb: int) -> float:
    """High-water RSS of this process plus its largest reaped child."""
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> dict[str, Any]:
    """One run of one workload in this process; returns its report."""
    from bench.layers import layer_metrics
    from bench.trace import Tracer, install_layer_patches
    from bench.workloads import SETUP_REPEATS, WORKLOADS, leaks, quiet, reap_children
    from repro.storage.serde import save_store

    startup_s = time.perf_counter() - _STARTED
    scratch = str(OUT_DIR / f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    tracer = Tracer()
    tracer.enabled = trace
    workload = WORKLOADS[name](seed, quick, tracer, scratch)
    try:
        started = time.perf_counter()
        workload.generate_pool()
        generate_s = time.perf_counter() - started
        setup_s: list[float] = []
        first_touch_s: list[float] = []

        def set_up(times: int) -> None:
            for __ in range(times):
                if setup_s:
                    workload.discard()
                    gc.collect()
                started = time.perf_counter()
                workload.setup()
                ready = time.perf_counter()
                workload.first_touch()
                setup_s.append(ready - started)
                first_touch_s.append(time.perf_counter() - ready)

        # Half of the set-ups run before the timed region and half after
        # it, so that a slow minute of the host which does not cover the
        # whole run leaves some of these samples alone, too.
        set_up(1 if quick else SETUP_REPEATS // 2)
        workload.prepare()
        # The heap built so far is static: keep the collector off it so
        # a full collection cannot land inside a timed op.
        gc.collect()
        gc.freeze()

        tracer.enabled = False
        # A traced run does a fixed number of ops, once without and once
        # with the wrappers, so its counts are exact and the difference
        # between the two is the tracing overhead.
        untraced = workload.run(0.0 if trace else seconds)
        traced = None
        if trace:
            tracer.enabled = True
            install_layer_patches(tracer)
            try:
                traced = workload.run(0.0)
            finally:
                tracer.unpatch_all()
        phase = traced or untraced

        store = workload.measured_store()
        rows = store.n_rows
        file_bytes_per_row = phase.extras.get("store_bytes_per_row")
        if file_bytes_per_row is None:
            path = workload.path(".pds")
            started = time.perf_counter()
            file_bytes_per_row = save_store(store, path) / rows
            phase.extras["serde.save_ms"] = (time.perf_counter() - started) * 1e3
            os.unlink(path)

        layers: dict[str, float] = {}
        if traced is not None:
            layers = layer_metrics(workload, traced, untraced, tracer)
            layers.update(workload.traced_extras())
        resident_bytes_per_row = store.total_size_bytes() / rows

        tracer.enabled = False
        if not quick:
            set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
        # The samples behind the timings; ``quiet`` says why the best.
        series = {
            "setup_s": setup_s,
            "first_touch_s": untraced.first_touch_s or first_touch_s,
            "op_s": untraced.op_samples(),
            "round_wall_s": untraced.round_walls,
        }
        end_to_end = {
            "setup_s": statistics.median(series["setup_s"]),
            "first_touch_s": quiet(series["first_touch_s"]),
            "op_p50_ms": statistics.median(untraced.op_times()) * 1e3,
            "ops_per_s": untraced.ops_per_s(),
            "resident_bytes_per_row": resident_bytes_per_row,
            "store_bytes_per_row": file_bytes_per_row,
        }
        phase.extras.pop("store_bytes_per_row", None)
        if traced is not None:
            layers["first_touch_s"] = end_to_end["first_touch_s"]
        for key, value in phase.extras.items():
            (layers if "." in key else end_to_end)[key] = value
    finally:
        workload.close()
    killed = reap_children()
    end_to_end["peak_rss_mb"] = peak_rss_mb(untraced.rss_kb)
    if trace:
        tracer.write(str(OUT_DIR / f"trace-{name}.jsonl"))

    all_ops = phase.ops + phase.side_ops
    if trace:
        all_ops = all_ops + untraced.ops + untraced.side_ops
    failures = [op.failed for op in all_ops if op.failed]
    leaked = leaks(scratch)
    if killed:
        leaked.append(f"{killed} worker process(es) outlived close() and were killed")
    shutil.rmtree(scratch)
    return {
        "workload": name,
        "env": environment(seed, trace, quick),
        "rows": rows,
        "seconds": seconds,
        "samples": len(untraced.ops),
        "rounds": len(untraced.ops) // untraced.round_ops,
        "series": series,
        "startup_s": startup_s,
        "generate_s": generate_s,
        "attempted": len(all_ops),
        "failed": len(failures),
        "failures": sorted(set(failures))[:5],
        "leaks": leaked,
        "correct": not failures and not leaked,
        "end_to_end": end_to_end,
        "layers": layers,
    }


def finish_layers(report: dict[str, Any]) -> None:
    """Metrics that combine numbers only the finished report holds."""
    layers, end_to_end = report["layers"], report["end_to_end"]
    if "service.base_ops_per_s" in layers:
        layers["service.scaling_vs_1client"] = (
            end_to_end["ops_per_s"] / layers["service.base_ops_per_s"]
        )
    if "speedup_vs_serial" in end_to_end:
        layers["executor.speedup_vs_serial"] = end_to_end["speedup_vs_serial"]
        layers["executor.pool_start_s"] = max(
            end_to_end["first_touch_s"] - end_to_end["op_p50_ms"] / 1e3, 0.0
        )
    if "auto_bytes_per_row" in end_to_end:
        layers["advisor.file_bytes_per_row"] = end_to_end["auto_bytes_per_row"]


def contract_line(report: dict[str, Any], spec: dict[str, Any]) -> str:
    """The last line of a single run, as the benchmark contract wants it."""
    if report["env"]["tracing"]:
        # A layer the workload never enters reads 0.
        listed, values = spec["per_layer"], report["layers"]
        values = {metric["name"]: values.get(metric["name"], 0.0) for metric in listed}
    else:
        listed, values = spec["end_to_end"], report["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in listed
    }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


#: Name suffix -> unit, for the metrics ``BENCHMARK.json`` does not list.
_SUFFIX_UNITS = (
    ("bytes_per_row", "B/row"), ("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"),
    ("_s", "s"), ("_bytes", "B"), ("_share", "ratio"), ("_speedup", "ratio"),
    ("_vs_serial", "ratio"), ("rounds", "count"),
)


def unit_of(name: str, units: dict[str, str]) -> str:
    if name in units:
        return units[name]
    stem = name.split(".")[-2] if name.count(".") > 1 else name
    return next((unit for suffix, unit in _SUFFIX_UNITS if stem.endswith(suffix)), "")


def render(report: dict[str, Any], spec: dict[str, Any]) -> str:
    """A plain-text table: environment, then every metric with its unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = report["env"]
    lines = [
        f"workload {report['workload']}  rows {report['rows']}  seed {env['seed']}  "
        f"tracing {'on' if env['tracing'] else 'off'}  "
        f"samples {report['samples']} in {report['rounds']} rounds",
        f"  {env['nproc']} x {env['cpu_model']}  python {env['python']}  "
        f"numpy {env['numpy']}  git {env['git_sha'][:12]}",
        f"  attempted {report['attempted']}  failed {report['failed']}  "
        f"correct {report['correct']}  startup_s {report['startup_s']:.3f}",
    ]
    for failure in report["failures"] + report["leaks"]:
        lines.append(f"  !! {failure}")
    for title, table in (("end to end", report["end_to_end"]), ("layers", report["layers"])):
        if table:
            lines.append(f"  -- {title}")
        for name in sorted(table):
            lines.append(
                f"  {name:<44}{table[name]:>16.4f}  {unit_of(name, units)}"
            )
    return "\n".join(lines)


def run_child(args: argparse.Namespace, workload: str, trace: bool) -> dict[str, Any]:
    """Run one workload in its own process and read back its report."""
    path = OUT_DIR / f"report-{workload}-{os.getpid()}.json"
    command = [
        sys.executable, "-m", "bench.run",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--report", str(path),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench.run: workload {workload} exited {done.returncode}")
    report = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    return report


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__)
    parser.add_argument("--workload",
                        help=f"default: those of BENCHMARK.json ({', '.join(names)})")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run, per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="small tables, few ops: seconds per workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of runs when every workload runs")
    parser.add_argument("--report", help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    try:
        from bench.workloads import WORKLOADS
    except ImportError as error:
        # E.g. a directory that holds the benchmark but not the program.
        print(f"bench.run: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload and args.workload not in WORKLOADS:
        parser.error(f"--workload: one of {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
        finish_layers(report)
        suffix = "-traced" if args.trace else ""
        path = args.report or OUT_DIR / f"report-{args.workload}{suffix}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(render(report, spec))
        print(contract_line(report, spec))
        return 0 if report["correct"] else 1

    # Every workload, untraced for the end-to-end numbers and traced for
    # the per-layer table, each run in a process of its own.
    runs = []
    for __ in range(args.repeat):
        for name in names:
            for trace in (False, True) if args.trace else (False,):
                report = run_child(args, name, trace)
                print(render(report, spec), flush=True)
                runs.append(report)
    document = {"env": runs[0]["env"], "runs": runs}
    path = args.report or OUT_DIR / "report.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"report written to {path}")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
