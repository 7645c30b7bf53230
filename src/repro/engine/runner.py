"""Top-level execution API: ``run_mdf`` and friends.

This is the function downstream users call::

    from repro import run_mdf, Cluster, GB

    cluster = Cluster(num_workers=8, mem_per_worker=4 * GB)
    result = run_mdf(mdf, cluster, scheduler="bas", memory="amm")
    print(result.completion_time, result.output)

``scheduler`` picks any registered scheduling policy by name — the paper's
branch-aware ``"bas"`` (Algorithm 1), the ``"bfs"`` baseline, or one of
the lab contenders (``"heft"``, ``"speculative"``, ``"wsteal"``,
``"random"``; see :mod:`repro.engine.policies`).  ``memory`` picks the
eviction policy by name (``"lru"``, ``"amm"``/Algorithm 2, or any name in
:data:`repro.cluster.memory.EVICTION_POLICIES`).  The cluster is reset
before the run (cold caches) unless ``reset=False``.
"""

from __future__ import annotations

from typing import Optional, Union

from ..cluster.cluster import Cluster
from ..cluster.memory import MemoryPolicy, make_policy
from ..core.mdf import MDF
from ..obs.telemetry import Telemetry
from ..obs.timeline import TelemetryConfig, TimelineSampler
from ..prof.collect import active_profile_collector
from ..trace.validate import assert_valid, auto_validate_enabled
from .job import EngineConfig, JobResult
from .master import Master
from .policies import available_schedulers, make_scheduler, register_scheduler
from .scheduler import Scheduler


def run_mdf(
    mdf: MDF,
    cluster: Cluster,
    scheduler: Union[str, Scheduler] = "bas",
    memory: Union[str, MemoryPolicy, None] = None,
    config: Optional[EngineConfig] = None,
    reset: bool = True,
    validate: Optional[bool] = None,
    telemetry: Union[bool, float, TelemetryConfig, None] = None,
    live=None,
    backend=None,
) -> JobResult:
    """Execute an MDF on a cluster and return the job result.

    Parameters
    ----------
    mdf:
        The meta-dataflow to execute (validated before the run).
    cluster:
        The simulated cluster.  Its clock and metrics are reset first
        unless ``reset=False`` (warm-cache continuation runs).
    scheduler:
        A registered policy name — ``"bas"`` (default, Algorithm 1),
        ``"bfs"``, ``"heft"``, ``"speculative"``, ``"wsteal"``,
        ``"random"`` or anything added via
        :func:`~repro.engine.policies.register_scheduler` — or a
        scheduler object.
    memory:
        ``"lru"``, ``"amm"``, a policy object, or None to keep the
        cluster's current policy.
    config:
        Engine knobs; defaults to incremental choose + pruning on.  A
        :class:`~repro.cluster.fault.FailureInjector` in ``config.failures``
        makes the run pay real recovery costs: lost partitions reload from
        checkpoints or recompute from lineage
        (:class:`~repro.engine.recovery.RecoveryManager`), and the
        ``recovery_sound`` validator checks the replay discipline.
    validate:
        Run the paper-invariant checkers (:mod:`repro.trace.validate`)
        over the recorded decision trace after the job finishes, raising
        :class:`~repro.trace.validate.InvariantViolation` on any breach.
        ``None`` (default) defers to the process-wide auto-validate flag
        (``repro.trace.set_auto_validate`` / ``python -m repro.bench
        --validate``).
    telemetry:
        Attach a :class:`~repro.obs.telemetry.Telemetry` bundle to the
        result (labeled registry, simulated-clock timeline, exporters).
        ``True`` samples at the default interval, a float sets the
        sampling interval in simulated seconds, and a
        :class:`~repro.obs.timeline.TelemetryConfig` gives full control.
        ``None``/``False`` (default) skips the sampler; the registry is
        always recorded and reachable as ``cluster.obs``.
    live:
        Attach a :class:`~repro.live.monitor.LiveMonitor` to the trace
        bus for the run's duration (streaming NDJSON, online
        progress/ETA, watchdogs; see ``docs/live_monitoring.md``).
        ``True`` builds a default monitor, a string/path streams the
        NDJSON there, a prebuilt monitor is attached as-is, and
        ``None`` (default) attaches nothing unless a process-wide
        :class:`~repro.live.hook.LiveHook` is installed (``python -m
        repro.bench --live``); ``False`` forces monitoring off even
        then.  The monitor is detached before returning and reachable
        as ``result.live``.  Live subscribers are pure observers — a
        monitored run's trace is byte-identical to an unmonitored one.
    backend:
        A :class:`~repro.engine.backends.SerialBackend` instance (or
        subclass) that runs the real operator work; every ``map_chain``,
        ``run_global`` and ``run_join`` call goes through it.  ``None``
        (default) uses a fresh one.  The executor charges every simulated
        cost before handing payloads over, so the backend cannot move a
        simulated number.
    """
    config = config or EngineConfig()
    if reset:
        cluster.reset()
    if memory is not None:
        cluster.policy = make_policy(memory) if isinstance(memory, str) else memory
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, config)
    sampler: Optional[TimelineSampler] = None
    if telemetry is not None and telemetry is not False:
        if isinstance(telemetry, TelemetryConfig):
            tconfig = telemetry
        elif telemetry is True:
            tconfig = TelemetryConfig()
        else:
            tconfig = TelemetryConfig(interval=float(telemetry))
        sampler = TimelineSampler(
            cluster, interval=tconfig.interval, max_samples=tconfig.max_samples
        ).attach()
    # --- live monitoring (repro.live): attach after reset, detach always.
    # Imported lazily — repro.live depends on the engine's estimator, so a
    # module-level import here would be circular.
    monitor = None
    hook = hook_buffer = None
    if live is None:
        from ..live.hook import active_live_hook

        hook = active_live_hook()
        if hook is not None:
            monitor, hook_buffer = hook.monitor_for_run()
    elif live is not False:
        from ..live.monitor import LiveMonitor

        if isinstance(live, LiveMonitor):
            monitor = live
        elif live is True:
            monitor = LiveMonitor()
        else:  # a path or writable stream for the NDJSON sink
            monitor = LiveMonitor(stream=live)
    if monitor is not None:
        from ..live.plan import LivePlan

        plan = LivePlan.from_mdf(
            mdf,
            cluster.num_workers,
            cost_model=cluster.cost_model,
            task_overhead=config.task_overhead,
            partitions_per_worker=config.partitions_per_worker,
        )
        monitor.attach(cluster.trace, plan=plan, registry=cluster.obs)
    master = Master(mdf, cluster, scheduler=scheduler, config=config, backend=backend)
    try:
        result = master.run()
    finally:
        if sampler is not None:
            sampler.detach()
        if monitor is not None:
            monitor.detach()
        # release single-flight leases a shared-store cache may still hold
        # (discarded deferred tails, failed runs) so concurrent jobs
        # waiting on them unblock promptly
        finish = getattr(config.cache, "finish_run", None)
        if finish is not None:
            finish()
    if monitor is not None:
        result.live = monitor
        if hook is not None:
            hook.record(monitor, hook_buffer, result)
    if sampler is not None:
        result.telemetry = Telemetry(cluster.obs, sampler, metrics=result.metrics)
    if validate is None:
        validate = auto_validate_enabled()
    if validate:
        assert_valid(result.events)
    collector = active_profile_collector()
    if collector is not None:
        collector.record(result)
    return result
