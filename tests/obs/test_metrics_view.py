"""The job-global ``Metrics``: a plain snapshot of the labeled registry."""

from dataclasses import fields

import pytest

from repro import Cluster, GB, run_mdf
from repro.cluster.metrics import _FLOAT_FIELDS, _MAX_FIELDS, Metrics
from repro.obs import MetricsRegistry

from ..conftest import build_filter_mdf


class TestUnbound:
    def test_plain_dataclass_behaviour(self):
        m = Metrics(partition_hits=3)
        m.evictions += 2
        assert m.partition_hits == 3
        assert m.evictions == 2

    def test_as_dict_covers_every_field(self):
        d = Metrics().as_dict()
        for f in fields(Metrics):
            assert f.name in d
        assert "memory_hit_ratio" in d and "total_time" in d


class TestFromRegistry:
    def test_sums_over_children(self):
        reg = MetricsRegistry()
        reg.counter("evictions", node="w0", branch="b1").inc(2)
        reg.counter("evictions", node="w1").inc(3)
        m = Metrics.from_registry(reg)
        assert m.evictions == 5
        assert isinstance(m.evictions, int)

    def test_peak_fields_take_max(self):
        reg = MetricsRegistry()
        reg.gauge("peak_datasets_stored", node="w0").set_max(4)
        reg.gauge("peak_datasets_stored", node="w1").set_max(2)
        assert Metrics.from_registry(reg).peak_datasets_stored == 4

    def test_float_fields_stay_float(self):
        reg = MetricsRegistry()
        reg.counter("time_io", node="w0").inc(0.25)
        m = Metrics.from_registry(reg)
        assert m.time_io == pytest.approx(0.25)
        assert isinstance(m.time_io, float)

    def test_hit_ratio_is_derived(self):
        reg = MetricsRegistry()
        reg.counter("bytes_read_memory", node="w0").inc(75)
        reg.counter("bytes_read_disk", node="w0").inc(25)
        assert Metrics.from_registry(reg).memory_hit_ratio == pytest.approx(0.75)

    def test_snapshot_ignores_later_registry_updates(self):
        reg = MetricsRegistry()
        reg.counter("stages_executed").inc()
        m = Metrics.from_registry(reg)
        reg.counter("stages_executed").inc()
        assert m.stages_executed == 1


class TestMerge:
    def test_merge_sums_counts_and_maxes_peaks(self):
        a = Metrics(evictions=2, peak_datasets_stored=5, time_io=1.0)
        b = Metrics(evictions=3, peak_datasets_stored=4, time_io=0.5)
        merged = a.merge(b)
        assert merged.evictions == 5
        assert merged.peak_datasets_stored == 5
        assert merged.time_io == pytest.approx(1.5)

    def test_merge_iterates_every_dataclass_field(self):
        """Regression: a newly added field must participate in merge()
        automatically instead of silently dropping out of merged reports."""
        ones = Metrics(**{f.name: 1 for f in fields(Metrics)})
        merged = ones.merge(ones)
        for f in fields(Metrics):
            expected = 1 if f.name in _MAX_FIELDS else 2
            assert getattr(merged, f.name) == expected, f.name

    def test_merge_of_registry_snapshots(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.counter("evictions", branch="x").inc(1)
        reg_b.counter("evictions", branch="y").inc(2)
        merged = Metrics.from_registry(reg_a).merge(Metrics.from_registry(reg_b))
        assert merged.evictions == 3

    def test_field_category_sets_are_subsets_of_fields(self):
        names = {f.name for f in fields(Metrics)}
        assert _MAX_FIELDS <= names
        assert _FLOAT_FIELDS <= names


class TestResultSnapshot:
    def test_finished_result_metrics_do_not_change(self):
        """A later run on the same cluster (``reset=False``) keeps adding
        to the registry; the first result's snapshot stays as it was."""
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        r1 = run_mdf(build_filter_mdf(), cluster)
        assert r1.metrics.stages_executed == 5
        r2 = run_mdf(build_filter_mdf(), cluster, reset=False)
        assert r1.metrics.stages_executed == 5
        assert r1.metrics is not r2.metrics
        # the registry is cumulative across the session
        assert r2.metrics.stages_executed == 10

    def test_cluster_metrics_is_a_fresh_snapshot(self):
        cluster = Cluster(num_workers=2, mem_per_worker=1 * GB)
        before = cluster.metrics
        run_mdf(build_filter_mdf(), cluster, reset=False)
        assert before.stages_executed == 0
        assert cluster.metrics.stages_executed == 5
        assert cluster.metrics is not cluster.metrics
        with pytest.raises(AttributeError):
            cluster.metrics = Metrics()
