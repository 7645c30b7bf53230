"""Straggler simulation and mitigation (§5 of the paper).

A straggler is a worker that runs slower than its peers, stretching stage
completion times (stages finish when their slowest node finishes).  The
paper notes MDFs need no new mechanism: standard speculative re-execution
applies.  We model both sides:

* :class:`StragglerProfile` — a per-node slowdown factor applied to that
  node's compute and IO time within a stage;
* speculative execution — when a node's stage share exceeds the median
  node time by ``speculation_threshold``, a backup copy is launched on the
  fastest node, and the stage share becomes the minimum of the straggler
  finishing and the backup (which must redo the work from scratch).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StragglerProfile:
    """Per-node slowdown factors (1.0 = nominal speed)."""

    slowdown: Dict[str, float] = field(default_factory=dict)

    def factor(self, node_id: str) -> float:
        return self.slowdown.get(node_id, 1.0)


@dataclass
class SpeculationConfig:
    """Speculative re-execution settings."""

    enabled: bool = True
    #: launch a backup when a node exceeds ``threshold ×`` the median share
    threshold: float = 1.5
    #: backup restart overhead as a fraction of the original work
    restart_overhead: float = 0.1


def apply_stragglers(
    per_node_seconds: Dict[str, float],
    profile: StragglerProfile,
    speculation: SpeculationConfig,
    registry=None,
) -> Dict[str, float]:
    """Stretch per-node stage times by straggler factors, then mitigate.

    Returns the adjusted per-node seconds.  With speculation enabled, a
    straggling node's share is capped at the time a backup copy on the
    fastest node would take (its own nominal work plus restart overhead,
    executed at the fastest node's speed).  Each backup that wins is
    counted as ``speculative_tasks`` in ``registry`` when one is given.
    """
    stretched = {
        node_id: seconds * profile.factor(node_id)
        for node_id, seconds in per_node_seconds.items()
    }
    if not speculation.enabled or len(stretched) < 2:
        return stretched
    median = statistics.median(stretched.values())
    if median <= 0:
        return stretched
    fastest_factor = min(profile.factor(n) for n in stretched)
    mitigated: Dict[str, float] = {}
    for node_id, seconds in stretched.items():
        if seconds > speculation.threshold * median:
            nominal = per_node_seconds[node_id]
            backup = nominal * fastest_factor * (1.0 + speculation.restart_overhead)
            # the backup starts once the slowness is detected (the median)
            backup_finish = median + backup
            if backup_finish < seconds:
                seconds = backup_finish
                if registry is not None:
                    registry.counter("speculative_tasks").inc()
        mitigated[node_id] = seconds
    return mitigated
