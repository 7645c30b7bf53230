"""Profile collection hook for harness runs (``repro.bench --profile``).

Mirrors the auto-validate hook in :mod:`repro.trace.validate`: the bench
harness installs a :class:`ProfileCollector`, ``run_mdf`` offers every
finished :class:`~repro.engine.runner.JobResult` to it, and the harness
reads back the reconstructed profiles keyed by the label it set before
each run.  Module-level state, same caveats as the validate hook — the
harness is single-threaded.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .spans import SpanProfile, profile_from_result


class ProfileCollector:
    """Accumulates ``(label, SpanProfile)`` pairs across harness runs."""

    def __init__(self) -> None:
        self.label: str = ""
        self.profiles: List[Tuple[str, SpanProfile]] = []

    def record(self, result) -> None:
        self.profiles.append((self.label, profile_from_result(result)))



_collector: Optional[ProfileCollector] = None


def set_profile_collector(collector: Optional[ProfileCollector]) -> None:
    """Install (or with ``None`` remove) the active collector."""
    global _collector
    _collector = collector


def active_profile_collector() -> Optional[ProfileCollector]:
    return _collector


__all__ = ["ProfileCollector", "active_profile_collector", "set_profile_collector"]
