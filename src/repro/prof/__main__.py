"""``python -m repro.prof`` — profile a recorded trace, or run the CI gate.

Trace mode::

    python -m repro.prof tests/golden/quickstart.trace.jsonl
    python -m repro.prof trace.jsonl --critical-path --by-branch
    python -m repro.prof trace.jsonl --what-if compute=0.5x,alpha=2x
    python -m repro.prof trace.jsonl --speedscope out.speedscope.json

Gate mode (CI perf-regression check over simulated completion times)::

    python -m repro.prof --gate benchmarks/baselines.json
    python -m repro.prof --gate benchmarks/baselines.json --update

Gate exit codes: 0 passed (or baselines written), 1 a scenario regressed,
2 the baseline file is missing a scenario or pins a stale one.
"""

from __future__ import annotations

import argparse
import sys

from ..trace.events import Trace
from . import (
    build_profile,
    critical_path,
    parse_factors,
    render_attribution,
    render_branches,
    render_critical_path,
    render_per_node,
    render_whatif,
    reprice,
    save_chrome_spans,
    save_speedscope,
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="critical-path profiler over canonical decision traces",
    )
    parser.add_argument("trace", nargs="?", help="trace JSONL file to profile")
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="print the critical path (gating segments, longest first)",
    )
    parser.add_argument(
        "--by-branch",
        action="store_true",
        help="print the per-branch cost-of-exploration breakdown",
    )
    parser.add_argument(
        "--per-node",
        action="store_true",
        help="print the per-node busy/idle attribution table",
    )
    parser.add_argument(
        "--what-if",
        metavar="SPEC",
        help="re-cost under scaled categories, e.g. compute=0.5x,alpha=2x",
    )
    parser.add_argument(
        "--speedscope",
        metavar="PATH",
        help="write a speedscope flamegraph JSON of the span timeline",
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        help="write a Chrome trace_event JSON of the span timeline",
    )
    parser.add_argument(
        "--gate",
        metavar="BASELINES",
        help="run the perf-regression gate against this baselines JSON",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="with --gate: rewrite the baselines from the current engine",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="with --gate: relative slowdown that fails (default 0.05)",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="with --gate: scale measured times (proves the gate can fail)",
    )
    return parser


def run_gate_mode(args) -> int:
    """Exit 0 when the gate passes (or baselines were written), 1 when a
    scenario regressed, 2 when the baseline file does not pin exactly the
    current scenarios."""
    # engine import: keep lazy
    from .gate import DEFAULT_TOLERANCE, BaselineMismatch, run_gate

    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    try:
        report = run_gate(
            args.gate,
            tolerance=tolerance,
            update=args.update,
            slowdown=args.inject_slowdown,
        )
    except BaselineMismatch as exc:
        print(f"gate ERROR: {exc.args[0]}", file=sys.stderr)
        return 2
    if report.updated:
        print(f"baselines written to {args.gate}")
        return 0
    print(report.render())
    return 0 if report.ok else 1


def run_trace_mode(args) -> int:
    trace = Trace.load_jsonl(args.trace)
    profile = build_profile(trace)
    print(render_attribution(profile))
    if args.per_node:
        print()
        print(render_per_node(profile))
    if args.by_branch:
        print()
        print(render_branches(profile))
    if args.critical_path:
        print()
        print(render_critical_path(critical_path(profile), profile.makespan))
    if args.what_if:
        print()
        print(render_whatif(reprice(profile, parse_factors(args.what_if))))
    if args.speedscope:
        save_speedscope(profile, args.speedscope, name=args.trace)
        print(f"speedscope profile written to {args.speedscope}")
    if args.chrome:
        save_chrome_spans(profile, args.chrome)
        print(f"chrome trace written to {args.chrome}")
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.gate:
        return run_gate_mode(args)
    if not args.trace:
        parser.error("a trace path (or --gate BASELINES) is required")
    return run_trace_mode(args)


if __name__ == "__main__":
    sys.exit(main())
