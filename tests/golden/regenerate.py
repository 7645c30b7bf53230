"""Golden decision traces and Prometheus exports: canonical recordings +
regeneration entry point.

The recorded workloads:

* ``quickstart`` — ``examples/quickstart.py`` on a roomy 4-worker cluster
  (the exact job every new user runs first);
* ``explore_choose`` — a monotone-pruning explore/choose job on a starved
  cluster, so the golden trace also pins evictions, spills and pruning.

Traces are byte-stable: timestamps are simulated seconds, stage ids are
per-graph, and the JSONL encoding is canonical (sorted keys, compact
separators).  Any engine change that alters a decision — scheduling
order, eviction victim, pruning point — shows up as a byte diff.

Next to each trace sits ``<name>.prom``: the Prometheus export of the
run's labeled registry (``prometheus_text(cluster.obs)``), which pins
every counter's value *and* its labels.  Two runs are recorded only as
exports: ``session`` (two jobs on one cluster with ``reset=False``, so
registry state carries across runs) and ``failure_cache`` (a cold run
with a result cache, then a warm re-run that serves cache hits while a
node failure and transient task failures are injected).

Regenerate traces and exports together after an *intended* change with::

    PYTHONPATH=src python -m tests.golden.regenerate

then review the diff like any other golden update.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import (
    CallableEvaluator,
    CheckpointConfig,
    Cluster,
    EngineConfig,
    FailureInjector,
    GB,
    MB,
    MDFBuilder,
    Min,
    ResultCache,
    prometheus_text,
    run_mdf,
)
from repro.cluster.fault import TaskFailureEvent

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parents[1]

GOLDEN_FILES = {
    "quickstart": GOLDEN_DIR / "quickstart.trace.jsonl",
    "explore_choose": GOLDEN_DIR / "explore_choose.trace.jsonl",
    # one representative run per lab scheduler, each over the zoo
    # workload that exercises it hardest (wide reordering for HEFT,
    # sibling speculation for speculative, eviction pressure for work
    # stealing, arbitrary order for the random control)
    "policy_heft": GOLDEN_DIR / "policy_heft.trace.jsonl",
    "policy_speculative": GOLDEN_DIR / "policy_speculative.trace.jsonl",
    "policy_wsteal": GOLDEN_DIR / "policy_wsteal.trace.jsonl",
    "policy_random": GOLDEN_DIR / "policy_random.trace.jsonl",
}


def prom_path(name: str) -> Path:
    """The golden Prometheus export of one recorded run."""
    return GOLDEN_DIR / f"{name}.prom"


def load_quickstart_module():
    """Import ``examples/quickstart.py`` (not a package) by file path."""
    path = REPO_ROOT / "examples" / "quickstart.py"
    spec = importlib.util.spec_from_file_location("quickstart_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_explore_choose_mdf():
    """Five filter branches, monotone count evaluator, Min selection.

    Sorted thresholds give monotonically rising scores, so the engine
    prunes the tail branches (Table 1); the tight cluster used by
    :func:`record_explore_choose` forces evictions and spills.
    """
    builder = MDFBuilder("golden-explore-choose")
    src = builder.read_data(list(range(1000)), name="src", nominal_bytes=96 * MB)
    evaluator = CallableEvaluator(len, name="count", monotone=True)
    result = src.explore(
        {"threshold": [50, 150, 400, 700, 900]},
        lambda pipe, p: pipe.transform(
            lambda xs, t=p["threshold"]: [x for x in xs if x < t],
            name=f"filter-{p['threshold']}",
        ),
        name="explore-threshold",
    ).choose(evaluator, Min(), name="keep-smallest")
    result.write(name="out")
    return builder.build()


# Every recorder returns ``(result, cluster)``: the trace is
# ``result.events``, the registry ``cluster.obs``.


def record_quickstart():
    mdf = load_quickstart_module().build_quickstart_mdf()
    cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
    result = run_mdf(mdf, cluster, scheduler="bas", memory="amm", validate=True)
    return result, cluster


def record_explore_choose():
    mdf = build_explore_choose_mdf()
    cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
    result = run_mdf(mdf, cluster, scheduler="bas", memory="amm", validate=True)
    return result, cluster


def _record_lab_policy(workload_name: str, scheduler: str):
    """One lab-zoo workload under one contender scheduler (validated)."""
    from repro.lab.workloads import get_workload

    return get_workload(workload_name).run(
        scheduler=scheduler, memory="amm", validate=True
    )


def record_policy_heft():
    return _record_lab_policy("wide_topk", "heft")


def record_policy_speculative():
    return _record_lab_policy("nested_topk", "speculative")


def record_policy_wsteal():
    return _record_lab_policy("starved_explore", "wsteal")


def record_policy_random():
    return _record_lab_policy("filter_min", "random")


def record_session():
    """Two jobs on one starved cluster, the second with ``reset=False``."""
    cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
    run_mdf(build_explore_choose_mdf(), cluster, scheduler="bas", memory="amm")
    mdf = load_quickstart_module().build_quickstart_mdf()
    result = run_mdf(mdf, cluster, scheduler="bfs", memory="lru", reset=False)
    return result, cluster


def record_failure_cache():
    """A warm, cache-hitting re-run that survives injected failures.

    The cold run fills a :class:`~repro.cache.ResultCache` (with periodic
    checkpoints, so the later failure has both reloads and recomputes);
    the warm run reuses the cluster, hits the cache, loses ``worker-1``
    at stage 2 and retries ``worker-0``'s tasks twice at stage 1.
    """
    mdf = load_quickstart_module().build_quickstart_mdf()
    cluster = Cluster(num_workers=4, mem_per_worker=512 * MB)
    cache = ResultCache()
    checkpoints = CheckpointConfig(interval_stages=2)
    run_mdf(
        mdf,
        cluster,
        config=EngineConfig(pruning=False, cache=cache, checkpointing=checkpoints),
        validate=True,
    )
    failures = FailureInjector.at_stages([(2, "worker-1")])
    failures.task_events.append(TaskFailureEvent(1, "worker-0", attempts=2))
    config = EngineConfig(
        pruning=False, cache=cache, checkpointing=checkpoints, failures=failures
    )
    result = run_mdf(mdf, cluster, config=config, reset=False, validate=True)
    return result, cluster


RECORDERS = {
    "quickstart": record_quickstart,
    "explore_choose": record_explore_choose,
    "policy_heft": record_policy_heft,
    "policy_speculative": record_policy_speculative,
    "policy_wsteal": record_policy_wsteal,
    "policy_random": record_policy_random,
}

#: runs pinned by their Prometheus export only (every trace recorder too)
PROM_RECORDERS = {
    **RECORDERS,
    "session": record_session,
    "failure_cache": record_failure_cache,
}


def main() -> None:
    for name, record in PROM_RECORDERS.items():
        result, cluster = record()
        if name in GOLDEN_FILES:
            path = GOLDEN_FILES[name]
            result.events.save_jsonl(path)
            print(f"{name}: {len(result.events)} events -> {path}")
        path = prom_path(name)
        path.write_text(prometheus_text(cluster.obs))
        print(f"{name}: registry export -> {path}")


if __name__ == "__main__":
    main()
