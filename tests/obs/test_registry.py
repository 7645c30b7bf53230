"""Unit tests for the labeled metrics registry (instruments + aggregation)."""

import math

import pytest

from repro.obs import DEFAULT_BUCKETS, LABEL_NAMES, MetricsRegistry, labels_dict
from repro.obs.registry import Counter, Gauge, Histogram


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_set_and_ratchet(self):
        g = Gauge()
        g.set(5)
        g.set_max(3)
        assert g.value == 5.0
        g.set_max(7)
        assert g.value == 7.0
        g.inc(1)
        g.dec(2)
        assert g.value == 6.0

    def test_histogram_observe_and_quantiles(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.5)
        assert 0.0 <= h.p50 <= 2.0
        assert h.quantile(1.0) >= h.quantile(0.5)

    def test_histogram_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().p95)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_default_buckets_span_micro_to_kiloseconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 1000.0


class TestRegistry:
    def test_counter_children_keyed_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("tasks", node="w0").inc(2)
        reg.counter("tasks", node="w1").inc(3)
        reg.counter("tasks", node="w0").inc(1)
        assert reg.value("tasks") == 6.0
        assert reg.value("tasks", node="w0") == 3.0

    def test_unknown_label_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x", nope="y")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_label_context_merges_into_counters(self):
        reg = MetricsRegistry()
        with reg.label_context(stage="s1", branch="b1"):
            reg.counter("evictions", node="w0").inc()
        (labels,) = reg.series("evictions")
        assert labels_dict(labels) == {"node": "w0", "branch": "b1", "stage": "s1"}

    def test_label_context_nesting_inner_wins(self):
        reg = MetricsRegistry()
        with reg.label_context(branch="outer"):
            with reg.label_context(branch="inner"):
                reg.counter("c").inc()
        (labels,) = reg.series("c")
        assert labels_dict(labels) == {"branch": "inner"}

    def test_explicit_labels_override_ambient(self):
        reg = MetricsRegistry()
        with reg.label_context(stage="ambient"):
            reg.counter("c", stage="explicit").inc()
        (labels,) = reg.series("c")
        assert labels_dict(labels) == {"stage": "explicit"}

    def test_gauges_ignore_ambient_context(self):
        reg = MetricsRegistry()
        with reg.label_context(branch="b1"):
            reg.gauge("mem", node="w0").set(10)
        (labels,) = reg.series("mem")
        assert labels_dict(labels) == {"node": "w0"}

    def test_aggregate_groups_and_sums(self):
        reg = MetricsRegistry()
        reg.counter("bytes", node="w0", dataset="d1").inc(10)
        reg.counter("bytes", node="w0", dataset="d2").inc(5)
        reg.counter("bytes", node="w1", dataset="d1").inc(1)
        assert reg.aggregate("bytes", ("node",)) == {("w0",): 15.0, ("w1",): 1.0}
        assert reg.aggregate("bytes", ()) == {(): 16.0}
        # total is granularity-independent
        assert sum(reg.aggregate("bytes", ("dataset",)).values()) == 16.0

    def test_max_value_over_children(self):
        reg = MetricsRegistry()
        reg.gauge("mem", node="w0").set(4)
        reg.gauge("mem", node="w1").set(9)
        assert reg.max_value("mem") == 9.0
        assert reg.max_value("missing") == 0.0

    def test_histogram_value_is_sum(self):
        reg = MetricsRegistry()
        reg.histogram("lat", stage="s0").observe(1.5)
        reg.histogram("lat", stage="s1").observe(2.5)
        assert reg.value("lat") == pytest.approx(4.0)

    def test_label_names_fixed(self):
        assert LABEL_NAMES == ("node", "branch", "stage", "dataset", "policy")


class TestLabelResolutionMemo:
    """``_resolve`` is memoised; the memo must never change a label set."""

    def test_context_push_and_pop_invalidate(self):
        reg = MetricsRegistry()
        reg.counter("c", node="w0").inc()
        with reg.label_context(branch="b1"):
            reg.counter("c", node="w0").inc()
            with reg.label_context(branch="b2"):
                reg.counter("c", node="w0").inc()
            reg.counter("c", node="w0").inc()
        reg.counter("c", node="w0").inc()
        by_branch = reg.aggregate("c", ("node", "branch"))
        assert by_branch == {("w0", ""): 2.0, ("w0", "b1"): 2.0, ("w0", "b2"): 1.0}

    def test_unknown_label_raises_every_call(self):
        reg = MetricsRegistry()
        for _ in range(3):
            with pytest.raises(ValueError):
                reg.counter("x", nope="y")

    def test_unhashable_value_takes_the_slow_path(self):
        reg = MetricsRegistry()
        reg.counter("c", node=["w", 0]).inc()
        reg.counter("c", node=["w", 0]).inc()
        assert reg.value("c", node="['w', 0]") == 2.0

    def test_equal_hashing_values_keep_their_own_labels(self):
        # 1 == True and they hash alike, but render as different labels
        reg = MetricsRegistry()
        reg.counter("c", node=1).inc()
        reg.counter("c", node=True).inc(2)
        reg.counter("c", node="1").inc(4)
        assert reg.value("c", node="1") == 5.0
        assert reg.value("c", node="True") == 2.0


class TestValueReads:
    def test_unknown_where_label_only_raises_with_children(self):
        reg = MetricsRegistry()
        assert reg.value("missing", nope="x") == 0.0
        reg.counter("c").inc()
        with pytest.raises(ValueError):
            reg.value("c", nope="x")
        with pytest.raises(ValueError):
            reg.max_value("c", nope="x")

    def test_value_filters_on_every_given_label(self):
        reg = MetricsRegistry()
        reg.counter("c", node="w0", dataset="d1").inc(1)
        reg.counter("c", node="w0", dataset="d2").inc(2)
        reg.counter("c", node="w1", dataset="d1").inc(4)
        assert reg.value("c", node="w0", dataset="d1") == 1.0
        assert reg.value("c", dataset="d1") == 5.0
        assert reg.value("c", node="w2") == 0.0
        assert reg.max_value("c", dataset="d1") == 4.0
        assert reg.max_value("c", node="w2") == 0.0
