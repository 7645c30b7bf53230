"""Compare the benchmark on two checkouts (parent and change).

    python3 perfbench/compare.py --parent ../parent --change .

For every workload it runs 10 pairs of untraced runs, one seed per pair,
alternating which checkout runs first.  Each checkout runs its own
``perfbench/run.py``; the two copies must be identical, since a change that
claims a gain may not edit the benchmark.

Rule applied to every (end-to-end metric, workload) pair:

* **gain** -- the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's own spread (distance between its quartiles);
* **regression** -- the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* **unresolved** -- the parent's own spread is wider than the bound, unless
  every change run reads better than every parent run;
* **no regression** -- otherwise.

Set-up time (``setup_s``) is short and host-bound, so its spread is never
gated: it is held only to the regression rule, in both modes.

With ``--parent`` alone it measures one checkout 10 times per workload and
reports each metric's spread against its bound (the steadiness check for a
benchmark change).  Exit code 1 on any regression, unresolved
pair or incorrect run; raw values go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

PAIRS = 10
GAIN_SHARE = 0.9
#: the set-up metric: held to its bound by median, its spread not gated
SETUP_METRIC = "setup_s"


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root: Path, spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    host = [json.loads(line[6:]) for line in lines if line.startswith("host: ")]
    result["calibration_s"] = host[0]["calibration_s"] if host else None
    return result


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def spread_of(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(
    parent: List[float], change: List[float], bound: float, higher: bool, gate_spread: bool
) -> dict:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = spread_of(parent)
    wins = sum(better(c, p, higher) for p, c in zip(parent, change))
    worse_by = ((pm - cm) if higher else (cm - pm)) / abs(pm) if pm else 0.0
    all_better = all(better(c, p, higher) for c in change for p in parent)
    if gate_spread and spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regression"
    elif wins >= GAIN_SHARE * len(parent) and -worse_by * abs(pm) > (p3 - p1):
        outcome = "gain"
    else:
        outcome = "no regression"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "parent_spread": spread,
        "wins": wins,
        "pairs": len(parent),
        "worse_by": worse_by,
        "verdict": outcome,
    }


def collect(roots: Dict[str, Path], spec: dict, seed_base: int) -> dict:
    raw: Dict[str, Dict[str, List[dict]]] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        raw[workload] = {side: [] for side in roots}
        sides = list(roots)
        for i in range(PAIRS):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                result = run_once(roots[side], spec, workload, seed_base + i)
                raw[workload][side].append(result)
                print(f"{workload} pair {i} {side}: correct={result.get('correct')}",
                      file=sys.stderr, flush=True)
    return raw


def values_of(runs: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r.get("metrics", {})]


def report(raw: dict, spec: dict, change: bool) -> int:
    status = 0
    for workload, sides in raw.items():
        bad = [
            f"{side} run {i}"
            for side, runs in sides.items()
            for i, r in enumerate(runs)
            if not r.get("correct") or r.get("returncode")
        ]
        if bad:
            status = 1
            print(f"{workload}: incorrect or failed runs: {', '.join(bad)}")
        for side, runs in sides.items():  # host drift, recorded, never rescaled
            cal = [r["calibration_s"] for r in runs if r.get("calibration_s")]
            if len(cal) > 1:
                q1, med, q3 = quartiles(cal)
                print(f"{workload:11s} {side} host calibration_s median {med:.4f} "
                      f"spread {(q3 - q1) / med:.3f}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            gate_spread = name != SETUP_METRIC
            parent = values_of(sides["parent"], name)
            if not parent:
                continue
            if not change:
                med, spread = statistics.median(parent), spread_of(parent)
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                if not gate_spread:
                    flag += " (not gated)"
                elif spread > bound:
                    status = 1
                print(f"{workload:11s} {name:18s} median {med:12.6g} {metric['unit']:6s} "
                      f"spread {spread:6.3f} bound {bound:.2f} {flag}")
                continue
            v = verdict(parent, values_of(sides["change"], name), bound, higher, gate_spread)
            if v["verdict"] in ("regression", "unresolved"):
                status = 1
            print(f"{workload:11s} {name:18s} parent {v['parent']['median']:12.6g} "
                  f"change {v['change']['median']:12.6g} {metric['unit']:6s} "
                  f"wins {v['wins']}/{v['pairs']} spread {v['parent_spread']:.3f} "
                  f"-> {v['verdict']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, help="change checkout root")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", type=Path, help="write raw results here (JSON)")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve()}
    if args.change is not None:
        roots["change"] = args.change.resolve()
        if tree_digest(roots["parent"]) != tree_digest(roots["change"]):
            parser.error("perfbench/ differs between the checkouts")
    spec = load_spec(roots["parent"])
    raw = collect(roots, spec, args.seed_base)
    if args.out is not None:
        args.out.write_text(json.dumps(raw, indent=1))
    return report(raw, spec, change=args.change is not None)


if __name__ == "__main__":
    sys.exit(main())
