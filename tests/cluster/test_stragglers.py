"""Tests for straggler simulation and speculative mitigation (§5)."""

import pytest

from repro.cluster.stragglers import (
    SpeculationConfig,
    StragglerProfile,
    apply_stragglers,
)
from repro.obs import MetricsRegistry


def times(**kw):
    return dict(kw)


class TestProfile:
    def test_default_factor_one(self):
        assert StragglerProfile().factor("w0") == 1.0

    def test_slowdown_applied(self):
        profile = StragglerProfile({"w0": 3.0})
        out = apply_stragglers(
            times(w0=1.0, w1=1.0, w2=1.0),
            profile,
            SpeculationConfig(enabled=False),
        )
        assert out["w0"] == 3.0
        assert out["w1"] == 1.0


class TestSpeculation:
    def test_backup_caps_straggler(self):
        profile = StragglerProfile({"w0": 10.0})
        out = apply_stragglers(
            times(w0=1.0, w1=1.0, w2=1.0),
            profile,
            SpeculationConfig(enabled=True, threshold=1.5, restart_overhead=0.1),
        )
        # backup: starts at the median (1.0), redoes 1.0 * 1.1 -> 2.1 total
        assert out["w0"] == pytest.approx(2.1)

    def test_below_threshold_untouched(self):
        profile = StragglerProfile({"w0": 1.2})
        out = apply_stragglers(
            times(w0=1.0, w1=1.0, w2=1.0),
            profile,
            SpeculationConfig(enabled=True, threshold=1.5),
        )
        assert out["w0"] == pytest.approx(1.2)

    def test_backup_not_used_if_slower(self):
        # modest straggle where restarting would not pay off
        profile = StragglerProfile({"w0": 1.6})
        config = SpeculationConfig(enabled=True, threshold=1.5, restart_overhead=0.9)
        out = apply_stragglers(times(w0=1.0, w1=1.0, w2=1.0), profile, config)
        # backup finish = 1.0 + 1.9 = 2.9 > 1.6 -> keep the straggler
        assert out["w0"] == pytest.approx(1.6)

    def test_metrics_counted(self):
        registry = MetricsRegistry()
        profile = StragglerProfile({"w0": 10.0})
        apply_stragglers(
            times(w0=1.0, w1=1.0, w2=1.0),
            profile,
            SpeculationConfig(enabled=True),
            registry,
        )
        assert registry.value("speculative_tasks") == 1

    def test_even_node_count_uses_true_median(self):
        """Regression: the cutoff once used the upper-middle value instead
        of the median, so on 4-node clusters a straggler could hide below
        the inflated threshold and never get a backup."""
        registry = MetricsRegistry()
        profile = StragglerProfile({"w3": 2.8})
        out = apply_stragglers(
            times(w0=1.0, w1=1.0, w2=2.0, w3=1.0),
            profile,
            SpeculationConfig(enabled=True, threshold=1.5, restart_overhead=0.1),
            registry,
        )
        # stretched = [1.0, 1.0, 2.0, 2.8]: true median 1.5 -> cutoff 2.25
        # flags w3 (2.8); the upper-middle bug put the cutoff at 3.0 and
        # silently skipped speculation.  backup finish = 1.5 + 1.1 = 2.6.
        assert registry.value("speculative_tasks") == 1
        assert out["w3"] == pytest.approx(2.6)
        assert out["w2"] == pytest.approx(2.0)

    def test_single_node_no_speculation(self):
        profile = StragglerProfile({"w0": 10.0})
        out = apply_stragglers(times(w0=1.0), profile, SpeculationConfig(enabled=True))
        assert out["w0"] == 10.0

    def test_zero_median_guard(self):
        profile = StragglerProfile({"w0": 10.0})
        out = apply_stragglers(
            times(w0=0.0, w1=0.0), profile, SpeculationConfig(enabled=True)
        )
        assert out == {"w0": 0.0, "w1": 0.0}
