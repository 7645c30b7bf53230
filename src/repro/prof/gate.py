"""CI perf-regression gate over simulated completion times.

The engine is a deterministic simulator, so the completion time of a
fixed scenario is a *stable number*, not a noisy wallclock sample — a
committed baseline plus an exact comparison replaces the usual
statistical benchmarking machinery.  Any engine change that slows a
scenario's simulated makespan by more than the tolerance (default 5%)
fails the gate; intended cost-model changes re-baseline with
``python -m repro.prof --gate benchmarks/baselines.json --update``.

This module imports the engine, so it is deliberately NOT imported from
``repro.prof.__init__`` (the master imports ``repro.prof.spans``, and a
package-level import here would close the cycle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..cluster.cluster import Cluster
from ..cluster.costmodel import GB, MB
from ..core.builder import MDFBuilder
from ..core.evaluators import CallableEvaluator
from ..core.selection import Min
from ..engine.runner import run_mdf

#: relative slowdown beyond which the gate fails
DEFAULT_TOLERANCE = 0.05


def _threshold_explore(name: str, thresholds, nominal_bytes: int):
    builder = MDFBuilder(name)
    src = builder.read_data(
        list(range(1000)), name="src", nominal_bytes=nominal_bytes
    )
    evaluator = CallableEvaluator(len, name="count", monotone=True)
    src.explore(
        {"threshold": list(thresholds)},
        lambda pipe, p: pipe.transform(
            lambda xs, t=p["threshold"]: [x for x in xs if x < t],
            name=f"filter-{p['threshold']}",
        ),
        name="explore-threshold",
    ).choose(evaluator, Min(), name="keep-smallest").write(name="out")
    return builder.build()


def _scenario_quickstart() -> float:
    """The quickstart recipe: roomy cluster, three thresholds."""
    mdf = _threshold_explore("gate-quickstart", [10, 100, 500], 256 * MB)
    cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
    return run_mdf(mdf, cluster, scheduler="bas", memory="amm").completion_time


def _scenario_starved_explore() -> float:
    """The golden explore/choose recipe: starved cluster, spills + pruning."""
    mdf = _threshold_explore(
        "gate-starved", [50, 150, 400, 700, 900], 96 * MB
    )
    cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
    return run_mdf(mdf, cluster, scheduler="bas", memory="amm").completion_time


def _scenario_chain() -> float:
    """A linear multi-stage pipeline: exercises the non-explore stage path."""
    builder = MDFBuilder("gate-chain")
    pipe = builder.read_data(
        list(range(2000)), name="src", nominal_bytes=512 * MB
    )
    for i in range(4):
        pipe = pipe.transform(
            lambda xs, k=i: [x + k for x in xs], name=f"step-{i}"
        )
    pipe.write(name="out")
    cluster = Cluster(num_workers=2, mem_per_worker=256 * MB)
    return run_mdf(
        builder.build(), cluster, scheduler="bas", memory="amm"
    ).completion_time


def _scenario_lab(workload: str, scheduler: str) -> Callable[[], float]:
    """One policy-lab cell as a gate scenario (same recipe as the lab's
    golden traces, so a drift fails both gates consistently)."""

    def scenario() -> float:
        from ..lab.workloads import get_workload

        result, _ = get_workload(workload).run(scheduler=scheduler, memory="amm")
        return result.completion_time

    scenario.__name__ = f"_scenario_lab_{scheduler}"
    return scenario


#: the gated scenario set: small, fast, and covering the three engine
#: regimes (roomy explore, starved explore with evictions, plain chain),
#: plus one pinned policy-lab cell per contender scheduler
SCENARIOS: Dict[str, Callable[[], float]] = {
    "quickstart": _scenario_quickstart,
    "starved_explore": _scenario_starved_explore,
    "chain": _scenario_chain,
    "lab_heft": _scenario_lab("wide_topk", "heft"),
    "lab_speculative": _scenario_lab("nested_topk", "speculative"),
    "lab_wsteal": _scenario_lab("starved_explore", "wsteal"),
    "lab_random": _scenario_lab("filter_min", "random"),
}


@dataclass
class GateRow:
    scenario: str
    baseline: float
    measured: float

    @property
    def delta(self) -> float:
        """Relative slowdown vs baseline (positive = slower)."""
        if self.baseline == 0.0:
            return 0.0 if self.measured == 0.0 else float("inf")
        return (self.measured - self.baseline) / self.baseline


@dataclass
class GateReport:
    rows: List[GateRow]
    tolerance: float
    updated: bool = False

    @property
    def failures(self) -> List[GateRow]:
        return [row for row in self.rows if row.delta > self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = []
        for row in self.rows:
            status = "FAIL" if row.delta > self.tolerance else "ok"
            lines.append(
                f"  {row.scenario:<16} baseline {row.baseline:12.6f}  "
                f"measured {row.measured:12.6f}  ({row.delta:+7.2%})  {status}"
            )
        verdict = (
            "gate PASSED"
            if self.ok
            else f"gate FAILED: {len(self.failures)} scenario(s) regressed "
            f"beyond {self.tolerance:.0%}"
        )
        return "\n".join(lines + [verdict])


def measure(slowdown: float = 1.0) -> Dict[str, float]:
    """Run every gate scenario; ``slowdown`` scales the measured times.

    The multiplier exists so CI (and the test suite) can prove the gate
    actually fails on a regression: ``--inject-slowdown 1.1`` simulates a
    uniform 10% engine slowdown without touching the engine.
    """
    return {name: fn() * slowdown for name, fn in SCENARIOS.items()}


class BaselineMismatch(KeyError):
    """The baseline file does not pin exactly the current scenarios."""


def run_gate(
    baseline_path,
    tolerance: float = DEFAULT_TOLERANCE,
    update: bool = False,
    slowdown: float = 1.0,
) -> GateReport:
    """Compare measured completion times against the committed baseline.

    The baseline must pin exactly the current scenarios: a missing one
    and a stale key (a scenario that no longer exists) both raise
    :class:`BaselineMismatch` before anything is measured.
    """
    if not update:
        with open(baseline_path) as fh:
            baselines = json.load(fh).get("scenarios", {})
        for name in sorted(set(SCENARIOS) ^ set(baselines)):
            problem = "missing from" if name in SCENARIOS else "stale in"
            raise BaselineMismatch(
                f"scenario {name!r} {problem} {baseline_path}; re-run with --update"
            )
    measured = measure(slowdown=slowdown)
    if update:
        payload = {
            "_comment": (
                "Simulated completion times (seconds) of the repro.prof gate "
                "scenarios. Regenerate with: python -m repro.prof --gate "
                "benchmarks/baselines.json --update"
            ),
            "tolerance": tolerance,
            "scenarios": {k: measured[k] for k in sorted(measured)},
        }
        with open(baseline_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        rows = [GateRow(name, measured[name], measured[name]) for name in sorted(measured)]
        return GateReport(rows=rows, tolerance=tolerance, updated=True)
    rows = [GateRow(name, baselines[name], measured[name]) for name in sorted(SCENARIOS)]
    return GateReport(rows=rows, tolerance=tolerance)


__all__ = [
    "BaselineMismatch",
    "DEFAULT_TOLERANCE",
    "GateReport",
    "GateRow",
    "SCENARIOS",
    "measure",
    "run_gate",
]
