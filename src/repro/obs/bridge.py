"""Trace→metrics fold: the decision trace feeds the metrics registry.

The decision trace (:mod:`repro.trace`) and the metrics registry
(:mod:`repro.obs.registry`) observe the same execution at different
altitudes — one event per decision vs labeled aggregates.  The trace is
the record; :class:`RegistryFold` derives the registry families it can
reproduce from it, one :meth:`~RegistryFold.apply` per event.  The same
fold runs in two places:

* **live** — the cluster hands its trace a fold over its registry, and
  :meth:`Trace.emit <repro.trace.events.Trace.emit>` applies it to every
  committed event before notifying subscribers;
* **replay** — :func:`registry_from_trace` folds a finished trace (or its
  JSONL export) into a fresh registry.

Attribution mirrors the engine exactly: the master wraps each scheduled
stage (including its deferred choose evaluation and selection) in a
``{stage, branch}`` label context, so the fold attributes every event to
the most recent ``stage_scheduled`` (or ``stage_reexecuted``) event, and
recovery work after ``node_failed``/``recovery_started`` to no stage.

:data:`FOLD_FAMILIES` are owned by the fold: engine code records them only
by emitting events.  The four :data:`DIRECT_FAMILIES` stay direct registry
calls because the trace cannot reproduce their live labels; a replay
rebuilds them on the coarse views :data:`CONSISTENCY_VIEWS` lists.
Quantities the trace does not record (per-node time breakdowns, latency
histograms) are left empty by a replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..prof.spans import registry_categories
from ..trace.events import EVENT_SCHEMA
from .registry import MetricsRegistry

#: (instrument, label dimensions) pairs on which a replayed registry must
#: equal the live registry of the run that recorded the trace.
CONSISTENCY_VIEWS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("evictions", ("node", "branch", "stage", "dataset", "policy")),
    ("evictions_free", ("node", "branch", "stage", "dataset", "policy")),
    ("bytes_read_memory", ("node", "branch", "stage", "dataset")),
    ("bytes_read_disk", ("node", "branch", "stage", "dataset")),
    ("bytes_written_memory", ("node", "branch", "stage", "dataset")),
    ("bytes_written_disk", ("node", "branch", "stage", "dataset")),
    ("partition_hits", ("node", "branch", "stage", "dataset")),
    ("partition_misses", ("node", "branch", "stage", "dataset")),
    ("tasks_executed", ("branch", "stage")),
    ("stages_executed", ("branch", "stage")),
    ("branches_executed", ("branch",)),
    ("branches_pruned", ("branch",)),
    ("datasets_discarded", ("dataset",)),
    ("choose_evaluations", ("branch", "stage", "dataset")),
    ("scheduler_selections", ("branch", "stage", "policy")),
    ("recoveries", ("node",)),
    ("recovery_reexecutions", ("node",)),
    ("stages_reexecuted", ("branch", "stage")),
    ("task_retries", ("node", "branch", "stage")),
    ("cache_hits", ("branch", "stage", "dataset", "policy")),
    ("cache_misses", ("branch", "stage")),
    ("cache_bytes_saved", ("branch", "stage", "dataset", "policy")),
    ("cache_compute_seconds_saved", ("branch", "stage", "dataset", "policy")),
    ("cache_admissions", ("branch", "stage", "dataset", "policy")),
    # post-recovery revalidation invalidates entries outside any stage's
    # label context while the fold's stage is the last re-executed one,
    # so only the dataset dimension is trace-reconstructible
    ("cache_invalidations", ("dataset",)),
    # profiler category totals (repro.prof), folded from the extended
    # stage_completed / span events through the same category mapping the
    # profiler uses ("reload" is a profiler-only refinement of "io", so it
    # has no counter here)
    ("profile_compute_seconds", ("branch", "stage")),
    ("profile_io_seconds", ("branch", "stage")),
    ("profile_network_seconds", ("branch", "stage")),
    ("profile_overhead_seconds", ("branch", "stage")),
    ("profile_evaluator_seconds", ("branch", "stage")),
    ("profile_recovery_seconds", ("branch", "stage")),
)

#: families the engine records directly (the trace lacks their live
#: labels: ``task_dispatched`` names no node, and events outside a
#: stage's label context would inherit the previous stage's labels);
#: only a replay folds them, on their :data:`CONSISTENCY_VIEWS` dims
DIRECT_FAMILIES: Tuple[str, ...] = (
    "tasks_executed",
    "datasets_discarded",
    "branches_executed",
    "cache_invalidations",
)

#: families whose live series come only from the fold, on the full label set
FOLD_FAMILIES: Tuple[str, ...] = tuple(
    name for name, _ in CONSISTENCY_VIEWS if name not in DIRECT_FAMILIES
)


class RegistryFold:
    """Fold decision-trace events, one at a time, into a metrics registry.

    ``replay=True`` additionally rebuilds the :data:`DIRECT_FAMILIES` and
    the ``peak_datasets_stored`` gauge, which a live registry records
    directly.  Every instrument is looked up through ``self.registry`` on
    each event, so instrumentation wrapped around the registry's methods
    sees every fold call.  The step for event kind ``k`` is method ``_k``.
    """

    def __init__(self, registry: MetricsRegistry, replay: bool = False):
        self.registry = registry
        self.replay = replay
        #: the stage/branch the next events belong to
        self.stage: Optional[str] = None
        self.branch: Optional[str] = None
        #: stage id -> outstanding stage_reexecuted announcements: the next
        #: stage_completed of that stage is recovery work (same pairing the
        #: profiler uses — inputs are secured before the announcement)
        self._reexec_pending: Dict[str, int] = {}
        #: replay only: dataset id -> partition count (composites resolved
        #: as they register) and the live dataset set (peak gauge)
        self._partitions: Dict[str, int] = {}
        self._live: set = set()

    def apply(self, event) -> None:
        """Fold one committed event into the registry."""
        step = _STEPS.get(event.kind)
        if step is not None:
            step(self, event.data)

    def _count(self, name: str, amount: float = 1, **labels) -> None:
        """Bump one counter, attributed to the current stage and branch."""
        self.registry.counter(
            name, stage=self.stage, branch=self.branch, **labels
        ).inc(amount)

    # ----------------------------------------------------------- scheduling
    def _stage_scheduled(self, data) -> None:
        self.stage = data["stage"]
        self.branch = data.get("branch")
        self._count("scheduler_selections", policy=data.get("rationale"))

    def _task_dispatched(self, data) -> None:
        counter = self.registry.counter
        counter("stages_executed", stage=data["stage"], branch=self.branch).inc()
        if self.replay:
            counter("tasks_executed", stage=data["stage"], branch=self.branch).inc(
                data["num_tasks"]
            )

    # ----------------------------------------------------------- data plane
    def _dataset_access(self, data) -> None:
        node, dataset, nbytes = data["node"], data["dataset"], data["nbytes"]
        if data["hit"]:
            self._count("partition_hits", node=node, dataset=dataset)
            self._count("bytes_read_memory", nbytes, node=node, dataset=dataset)
        else:
            self._count("partition_misses", node=node, dataset=dataset)
            self._count("bytes_read_disk", nbytes, node=node, dataset=dataset)

    def _source_read(self, data) -> None:
        self._count(
            "bytes_read_disk", data["nbytes"], node=data["node"], dataset=data["dataset"]
        )

    def _partition_stored(self, data) -> None:
        tier = "memory" if data["tier"] == "memory" else "disk"
        self._count(
            f"bytes_written_{tier}",
            data["nbytes"],
            node=data["node"],
            dataset=data["dataset"],
        )

    def _partition_evicted(self, data) -> None:
        node, dataset = data["node"], data["dataset"]
        self._count("evictions", node=node, dataset=dataset, policy=data["policy"])
        if data["spilled"]:
            self._count("bytes_written_disk", data["nbytes"], node=node, dataset=dataset)
        else:
            self._count("evictions_free", node=node, dataset=dataset, policy=data["policy"])

    def _checkpoint_written(self, data) -> None:
        self._count("bytes_written_disk", data["nbytes"], dataset=data["dataset"])

    # ---------------------------------------------------- dataset lifecycle
    def _dataset_registered(self, data) -> None:
        if self.replay:
            self._partitions[data["dataset"]] = data["partitions"]
            self._note_live(data["dataset"])

    def _composite_registered(self, data) -> None:
        if self.replay:
            members = data["members"]
            self._partitions[data["dataset"]] = sum(
                self._partitions.get(member, 0) for member in members
            )
            self._note_live(data["dataset"], absorbed=members)

    def _note_live(self, dataset: str, absorbed=()) -> None:
        self._live.add(dataset)
        self._live.difference_update(absorbed)
        self.registry.gauge("peak_datasets_stored").set_max(len(self._live))

    def _dataset_discarded(self, data) -> None:
        if self.replay:
            self._live.discard(data["dataset"])
            self.registry.counter("datasets_discarded", dataset=data["dataset"]).inc()

    # --------------------------------------------------------------- choose
    def _choose_evaluation(self, data) -> None:
        self._count("choose_evaluations", dataset=data["dataset"])
        if self.replay and not data["pipelined"]:
            # a non-pipelined evaluation re-reads every partition of the
            # branch dataset as one task each (executor.evaluate_branch)
            self._count("tasks_executed", self._partitions.get(data["dataset"], 0))

    def _branch_evaluated(self, data) -> None:
        if self.replay:
            self.registry.counter(
                "branches_executed", branch=data["branch"], stage=self.stage
            ).inc()

    def _branch_pruned(self, data) -> None:
        self.registry.counter(
            "branches_pruned", branch=data["branch"], stage=self.stage
        ).inc()

    # ------------------------------------------------------------- recovery
    def _node_failed(self, data) -> None:
        # recovery work before the first re-executed stage (reloads, free
        # drops) runs outside any stage's label context
        self.stage = None
        self.branch = None

    _recovery_started = _node_failed

    def _stage_reexecuted(self, data) -> None:
        self.stage = data["stage"]
        self.branch = data["branch"]
        self._reexec_pending[self.stage] = self._reexec_pending.get(self.stage, 0) + 1
        self._count("stages_reexecuted")

    def _recovery(self, data) -> None:
        action = data["action"]
        if action == "dropped":
            return
        self._count("recoveries", node=data["node"])
        if action == "recompute":
            self._count("recovery_reexecutions", node=data["node"])
        else:
            self._count(
                "bytes_read_disk", data["nbytes"], node=data["node"], dataset=data["dataset"]
            )

    def _task_retried(self, data) -> None:
        self._count("task_retries", data["attempts"], node=data["node"])

    # -------------------------------------------------------------- profile
    def _stage_completed(self, data) -> None:
        if "io" in data and "per_node_io" in data:
            pending = self._reexec_pending.get(data["stage"], 0)
            if pending:
                self._reexec_pending[data["stage"]] = pending - 1
            self._profile(data, recovery=pending > 0)

    def _span(self, data) -> None:
        self._profile(data, activity=data["activity"])

    def _profile(
        self, data, activity: Optional[str] = None, recovery: bool = False
    ) -> None:
        """Fold one span's category split into the profile counters."""
        for category, seconds in registry_categories(
            data["io"],
            data["compute"],
            data["network"],
            data["overhead"],
            activity=activity,
            recovery=recovery,
        ).items():
            self._count(f"profile_{category}_seconds", seconds)

    # ---------------------------------------------------------------- cache
    def _cache_hit(self, data) -> None:
        labels = dict(dataset=data["dataset"], policy=data["tier"])
        self._count("cache_hits", **labels)
        self._count("cache_bytes_saved", data["nbytes"], **labels)
        self._count("cache_compute_seconds_saved", data["saved_seconds"], **labels)

    def _cache_miss(self, data) -> None:
        self._count("cache_misses")

    def _cache_admit(self, data) -> None:
        self._count("cache_admissions", dataset=data["dataset"], policy=data["tier"])

    def _cache_invalidate(self, data) -> None:
        if self.replay:
            self._count("cache_invalidations", dataset=data["dataset"])


#: event kind -> fold step (kinds without a step carry no registry facts)
_STEPS = {
    kind: getattr(RegistryFold, f"_{kind}")
    for kind in EVENT_SCHEMA
    if hasattr(RegistryFold, f"_{kind}")
}


def registry_from_trace(trace) -> MetricsRegistry:
    """Fold a trace into a fresh registry (the replay side of the fold).

    Accepts a live :class:`~repro.trace.events.Trace` or one rebuilt from
    its JSONL export (:meth:`~repro.trace.events.Trace.load_jsonl`).
    """
    registry = MetricsRegistry()
    fold = RegistryFold(registry, replay=True)
    for event in trace:
        fold.apply(event)
    return registry


def diff_registries(
    live: MetricsRegistry,
    rebuilt: MetricsRegistry,
    views: Tuple[Tuple[str, Tuple[str, ...]], ...] = CONSISTENCY_VIEWS,
) -> List[str]:
    """Differences between two registries over the guaranteed views.

    Returns human-readable mismatch descriptions (empty = consistent).
    Used by the telemetry↔trace regression tests.
    """
    problems: List[str] = []
    for name, dims in views:
        a = live.aggregate(name, dims)
        b = rebuilt.aggregate(name, dims)
        for key in sorted(set(a) | set(b)):
            va, vb = a.get(key, 0.0), b.get(key, 0.0)
            if abs(va - vb) > 1e-9:
                labels = dict(zip(dims, key)) if dims else "(total)"
                problems.append(
                    f"{name}{labels}: live={va} rebuilt-from-trace={vb}"
                )
    return problems


__all__ = [
    "CONSISTENCY_VIEWS",
    "DIRECT_FAMILIES",
    "FOLD_FAMILIES",
    "RegistryFold",
    "diff_registries",
    "registry_from_trace",
]
