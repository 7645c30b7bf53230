"""Trace↔telemetry consistency: the bridge rebuilds the live registry.

The decision trace and the labeled registry observe the same execution;
``registry_from_trace`` replays the former into the latter and
``diff_registries`` asserts equality over every guaranteed view — on live
runs and on the golden recordings under ``tests/golden/``.
"""

import re
from pathlib import Path

import pytest

import repro
from repro import Cluster, GB, MB, run_mdf
from repro.obs import CONSISTENCY_VIEWS, diff_registries, registry_from_trace
from repro.obs.bridge import FOLD_FAMILIES
from repro.trace import Trace
from ..conftest import build_filter_mdf, build_nested_mdf
from ..golden.regenerate import (
    GOLDEN_FILES,
    PROM_RECORDERS,
    build_explore_choose_mdf,
    load_quickstart_module,
)


class TestLiveConsistency:
    @pytest.mark.parametrize("policy", ["lru", "amm"])
    @pytest.mark.parametrize("scheduler", ["bas", "bfs"])
    def test_pressured_nested_run(self, policy, scheduler):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(
            build_nested_mdf(), cluster, scheduler=scheduler, memory=policy,
            telemetry=True,
        )
        rebuilt = registry_from_trace(result.events)
        assert diff_registries(result.telemetry.registry, rebuilt) == []

    def test_roomy_filter_run(self):
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, telemetry=True)
        rebuilt = registry_from_trace(result.events)
        assert diff_registries(result.telemetry.registry, rebuilt) == []

    def test_jsonl_round_trip_preserves_consistency(self):
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_nested_mdf(), cluster, memory="amm", telemetry=True)
        replayed = Trace.from_jsonl(result.events.to_jsonl())
        rebuilt = registry_from_trace(replayed)
        assert diff_registries(result.telemetry.registry, rebuilt) == []


class TestGoldenConsistency:
    """The recorded golden traces bridge to the live registries of the runs
    that produced them (byte-stable traces make this a real cross-check)."""

    def test_quickstart_golden(self):
        mdf = load_quickstart_module().build_quickstart_mdf()
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        run_mdf(mdf, cluster, scheduler="bas", memory="amm")
        golden = Trace.load_jsonl(GOLDEN_FILES["quickstart"])
        assert diff_registries(cluster.obs, registry_from_trace(golden)) == []

    def test_explore_choose_golden(self):
        cluster = Cluster(num_workers=2, mem_per_worker=48 * MB)
        run_mdf(build_explore_choose_mdf(), cluster, scheduler="bas", memory="amm")
        golden = Trace.load_jsonl(GOLDEN_FILES["explore_choose"])
        assert diff_registries(cluster.obs, registry_from_trace(golden)) == []


class TestDiffRegistries:
    def test_detects_injected_drift(self):
        cluster = Cluster(num_workers=2, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, telemetry=True)
        rebuilt = registry_from_trace(result.events)
        rebuilt.counter("tasks_executed", branch="ghost", stage="s99").inc(7)
        problems = diff_registries(result.telemetry.registry, rebuilt)
        assert problems
        assert any("tasks_executed" in p and "ghost" in p for p in problems)

    def test_views_cover_acceptance_instruments(self):
        covered = {name for name, _ in CONSISTENCY_VIEWS}
        for required in (
            "tasks_executed",
            "evictions",
            "bytes_read_memory",
            "bytes_read_disk",
            "bytes_written_memory",
            "bytes_written_disk",
        ):
            assert required in covered


def _fold_series(registry, name):
    return {labels: child.value for labels, child in registry.series(name).items()}


class TestRegistryFold:
    """The live registry's fold-owned families come from the same fold a
    replay runs, so they agree on the *full* label set, not only on the
    coarse consistency views."""

    @pytest.mark.parametrize("name", ["failure_cache", "session", "policy_heft"])
    def test_live_equals_replay_on_full_labels(self, name):
        result, cluster = PROM_RECORDERS[name]()
        for source in (result.events, Trace.from_jsonl(result.events.to_jsonl())):
            replayed = registry_from_trace(source)
            for family in FOLD_FAMILIES:
                assert _fold_series(cluster.obs, family) == _fold_series(
                    replayed, family
                ), family

    def test_fold_runs_before_subscribers(self):
        """A subscriber sees counters that already include its event."""
        cluster = Cluster(num_workers=2, mem_per_worker=1 * GB)
        seen = []

        def on_event(event):
            if event.kind == "dataset_access":
                seen.append(cluster.obs.value("partition_hits") + cluster.obs.value(
                    "partition_misses"
                ))

        cluster.trace.subscribe(on_event)
        run_mdf(build_filter_mdf(), cluster, reset=False)
        assert seen == list(range(1, len(seen) + 1))
        assert cluster.trace.subscribers == [on_event]

    def test_fold_error_propagates(self):
        """The fold is engine code, not a detachable subscriber."""

        class Broken:
            def apply(self, event):
                raise RuntimeError("fold bug")

        cluster = Cluster(num_workers=2, mem_per_worker=1 * GB)
        cluster.trace.fold = Broken()
        with pytest.raises(RuntimeError, match="fold bug"):
            run_mdf(build_filter_mdf(), cluster, reset=False)

    def test_replay_tracks_composite_partitions(self):
        """A non-pipelined choose over a composite counts one task per
        member partition, resolved as composite_registered arrives."""
        trace = Trace()
        trace.emit("dataset_registered", dataset="a", producer=None, nbytes=1, partitions=2)
        trace.emit("dataset_registered", dataset="b", producer=None, nbytes=1, partitions=3)
        trace.emit("composite_registered", dataset="ab", members=["a", "b"], producer=None)
        trace.emit("choose_evaluation", evaluator="e", dataset="ab", pipelined=False)
        registry = registry_from_trace(trace)
        assert registry.value("tasks_executed") == 5
        assert registry.max_value("peak_datasets_stored") == 2


class TestDirectCallsGone:
    def test_fold_families_have_no_direct_instrument_calls(self):
        """Engine code records a fold-owned family only by emitting its
        event; a direct counter call would count it twice."""
        src = Path(repro.__file__).parent
        pattern = re.compile(r"\.(?:counter|gauge|histogram)\(\s*f?[\"']([^\"']+)[\"']")
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.name == "bridge.py":
                continue
            for match in pattern.finditer(path.read_text()):
                name = match.group(1)
                if name in FOLD_FAMILIES or name.startswith("profile_"):
                    offenders.append(f"{path.relative_to(src)}: {name}")
        assert offenders == []
