"""Per-layer timing from outside the engine.

The benchmark builds every layer object itself (scheduler, memory policy,
backend, result cache, cluster with its trace and registry) and, for a
traced run, replaces the public methods it calls on *those instances* with
timed wrappers.  Nothing in ``src/`` changes: instance attributes shadow the
class methods only on the objects this module instruments.

Time is attributed as *self* time: a wrapped call that runs inside another
wrapped call (``register_dataset`` -> eviction -> ``Trace.emit``) charges
its elapsed time to its own bucket and removes it from its caller's.  The
root span around ``run_mdf`` is ``engine.self_s``, so the buckets of one
job sum to its traced wall time by construction.  Calls made outside a root span
(reading a finished result's metrics) are not timed.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterable

#: registry methods timed as ``obs.registry_s`` -- the lookups and reads
#: the engine and the ``Metrics`` proxy make.  ``label_context`` is a
#: context manager whose body is the stage itself, so it stays untimed;
#: instrument updates (``Counter.inc``) live on slotted objects and stay
#: untimed too.
REGISTRY_METHODS = (
    "counter",
    "gauge",
    "histogram",
    "value",
    "max_value",
    "series",
    "aggregate",
    "snapshot",
)
BACKEND_METHODS = ("map_chain", "run_global", "run_join")
CLUSTER_STORE_METHODS = ("register_dataset", "register_composite")

ROOT = "engine.self_s"


class LayerSpans:
    """Self-time buckets and call counts for one measured unit: a job, a
    session of jobs, or a service run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._stack: list = []
        self.wall_s = 0.0

    # ------------------------------------------------------------ timing
    def _wrap(self, bucket: str, fn: Callable) -> Callable:
        stack = self._stack
        seconds = self.seconds
        calls = self.calls
        clock = time.perf_counter
        seconds.setdefault(bucket, 0.0)
        calls.setdefault(bucket, 0)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # outside any job (e.g. reading a result's metrics)
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                seconds[bucket] += elapsed - child
                calls[bucket] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def instrument(self, obj: Any, methods: Iterable[str], bucket: str) -> None:
        """Time ``obj.<method>`` for each name as ``bucket`` (self time)."""
        for name in methods:
            setattr(obj, name, self._wrap(bucket, getattr(obj, name)))

    def run_root(self, bucket: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` as a root span charged to ``bucket``: only calls made
        inside a root span are timed."""
        if self._stack:
            raise RuntimeError("root span started inside another span")
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._stack.pop()
            self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed - child
            self.calls[bucket] = self.calls.get(bucket, 0) + 1
            self.wall_s += elapsed

    # ---------------------------------------------------- instrumentation
    def instrument_job(self, cluster, scheduler, policy, backend) -> None:
        """Wrap every engine-side layer object one ``run_mdf`` call uses.

        ``cluster.reset()`` replaces the trace and the registry, so the
        caller resets the cluster *before* this and runs with
        ``reset=False``.  A result cache outlives one job and is wrapped
        once, with :meth:`instrument_cache`.
        """
        self.instrument(scheduler, ["select"], "engine.scheduler.select_s")
        self.instrument(backend, BACKEND_METHODS, "engine.backends.op_s")
        self.instrument(cluster, CLUSTER_STORE_METHODS, "cluster.store_s")
        self.instrument(cluster, ["load_partition"], "cluster.load_s")
        self.instrument(cluster.obs, REGISTRY_METHODS, "obs.registry_s")
        self._instrument_eviction(policy)
        self._instrument_emit(cluster.trace)

    def _instrument_eviction(self, policy) -> None:
        # the round ranks at creation and hands out victims from pop(); both
        # are the policy's ranking work
        bucket = "cluster.evict_rank_s"
        make_round = self._wrap(bucket, policy.eviction_round)

        def eviction_round(*args, **kwargs):
            round_ = make_round(*args, **kwargs)
            round_.pop = self._wrap(bucket, round_.pop)
            return round_

        policy.eviction_round = eviction_round

    def _instrument_emit(self, trace) -> None:
        emit = self._wrap("trace.emit_s", trace.emit)
        counts = self.counts
        counts.setdefault("cluster.evictions", 0)
        counts.setdefault("cluster.rank_entries", 0)

        def counted_emit(kind, **data):
            if kind == "partition_evicted":
                counts["cluster.evictions"] += 1
                counts["cluster.rank_entries"] += len(data.get("ranking") or ())
            return emit(kind, **data)

        trace.emit = counted_emit

    def instrument_cache(self, cache) -> None:
        """Time ``ResultCache.lookup`` (counting hits) and ``admit``."""
        lookup = self._wrap("cache.lookup_s", cache.lookup)
        counts = self.counts
        counts.setdefault("cache.hits", 0)

        def counted_lookup(*args, **kwargs):
            hit = lookup(*args, **kwargs)
            if hit is not None:
                counts["cache.hits"] += 1
            return hit

        cache.lookup = counted_lookup
        self.instrument(cache, ["admit"], "cache.admit_s")
