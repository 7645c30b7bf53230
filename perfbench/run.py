"""Seeded benchmark for exploratory MDF jobs and the job service.

One workload, measured in this process::

    python3 perfbench/run.py --workload ts_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with per-layer timers and prints the per-layer metrics.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

Every workload, each in a fresh process, untraced then traced, with the
tracing overhead::

    python3 perfbench/run.py --all --seed 1

Workload, metric names and units come from ``BENCHMARK.json`` at the
repository root.  Run from the repository root; the program is imported
from ``src/``.  The exit code is 0 only when every job was correct, 1 when
a check failed and 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

def host_metadata() -> dict:
    import numpy

    from hostspeed import python_probe_s

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        # the probe's fixed pure-Python loop, median of five, timed before
        # the workload; host drift between runs shows here
        "calibration_s": statistics.median(python_probe_s() for _ in range(5)),
    }


def import_program() -> None:
    """Put ``src/`` first on the path and import the program from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def run_workload(args) -> int:
    import_program()
    from workloads import WORKLOADS, Context

    host = host_metadata()
    print("host: " + json.dumps(host, sort_keys=True), flush=True)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=str(workdir)
    )
    try:
        e2e, layers = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    names = [m["name"] for m in SPEC["per_layer" if ctx.trace else "end_to_end"]]
    values = layers if ctx.trace else e2e
    failed = len(ctx.failures)
    attempted = max(ctx.attempted, 1)
    for problem in ctx.failures:
        print("FAILED " + problem, flush=True)
    print("notes: " + json.dumps(ctx.notes, sort_keys=True), flush=True)
    print("raw seconds: " + json.dumps(ctx.raw, sort_keys=True), flush=True)
    if ctx.trace:  # the same end-to-end metrics, measured with the timers on
        print("traced end-to-end: " + json.dumps(e2e, sort_keys=True), flush=True)
    print(f"{args.workload} seed={args.seed} trace={args.trace}:")
    for name in names:
        print(f"  {name:36s} {values.get(name, 0.0):14.6g} {UNITS[name]}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} ratio ({failed}/{attempted} jobs)")
    # a layer the workload does not exercise reads 0; every end-to-end
    # metric must be measured
    missing = [] if ctx.trace else [n for n in names if n not in values]
    if missing:
        print("FAILED metrics not measured: " + ", ".join(missing), flush=True)
    correct = failed == 0 and not missing
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name in names
    }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if correct else 1


#: the end-to-end metric each workload's tracing overhead is read from
OVERHEAD_METRIC = {"ts_sweep": "job_wall_s", "dl_session": "job_wall_s", "svc_open": "latency_p50_s"}


def run_all(args) -> int:
    """Every workload in a fresh process: untraced, then traced."""
    status = 0
    overhead = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        outputs = []
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status = status or proc.returncode
            outputs.append(proc.stdout.splitlines())
        metric = OVERHEAD_METRIC[workload]
        prefix = "traced end-to-end: "
        traced = [json.loads(l[len(prefix):]) for l in outputs[1] if l.startswith(prefix)]
        untraced = json.loads(outputs[0][-1]) if outputs[0] else {}
        if traced and metric in untraced.get("metrics", {}):
            base = untraced["metrics"][metric]["value"]
            overhead[workload] = {
                "metric": metric,
                "untraced": base,
                "traced": traced[0][metric],
                "overhead_frac": traced[0][metric] / base - 1.0,
            }
    print("tracing overhead: " + json.dumps(overhead, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
