"""The three benchmark workloads: ts_sweep, dl_session and svc_open.

Each ``run_<workload>(ctx)`` builds its inputs from ``ctx.seed``, runs for
``ctx.seconds`` of measured time, checks every job against a reference and
returns ``(end_to_end, per_layer)`` metric dicts (plain floats).  With
``ctx.trace`` the measured jobs run instrumented (see ``layers.py``) and
the per-layer dict is filled; the end-to-end dict, measured with the
timers on, then shows the tracing overhead.  Without it the per-layer
dict is empty.  Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    GB,
    MB,
    Cluster,
    DiskCacheStore,
    EngineConfig,
    ResultCache,
    make_policy,
    make_scheduler,
    run_mdf,
    validate_trace,
)
from repro.engine.backends import SerialBackend
from repro.lab.workloads import get_workload
from repro.service import DONE, QUEUED, RUNNING, JobService
from repro.service.worker import outputs_digest
from repro.workloads.datagen import cifar_like, oil_well_trace
from repro.workloads.deeplearning import MLPTrainer
from repro.workloads.mdfs import deep_learning_mdf, time_series_mdf
from repro.workloads.timeseries import granularity_grid

from hostspeed import HostSpeed
from layers import ROOT, LayerSpans

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 15

TS_BRANCHES = 256
#: per-worker memory: the 576-branch grid's branches-per-byte on 2 GB
#: workers, so 256 branches evict about as the paper's 576 sweep does
TS_MEM_PER_WORKER = 1 * GB
TS_POINTS = 5_000
#: seeded traces per run, taken in turn: the job's cost moves with the
#: trace by up to ~10%, so one trace per run would put that in the spread
TS_INPUTS = 3
DL_SAMPLES = 1_000
DL_FEATURES = 768
SVC_RATE = 3.0  # jobs/s; the dispatcher stays below half busy on a slow host
SVC_TENANTS = ("t0", "t1", "t2")
SVC_SHARED = ("dl_grid", "time_series", "synthetic_grid", "wide_topk", "nested_topk")
SVC_WORKLOADS = SVC_SHARED + tuple(f"svc_private_{t}" for t in SVC_TENANTS)

#: measuring stops here, so a whole run stays well within 180 s
DEADLINE_S = 150.0


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    #: time metrics in raw seconds, before scaling to the reference host speed
    raw: Dict[str, float] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def check(self, label: str, problems: List[str]) -> None:
        """Count one checked job; any problem makes it a failed job."""
        self.attempted += 1
        self.fail(label, problems)

    def fail(self, label: str, problems: List[str]) -> None:
        """Record problems of the run as a whole (not of one job)."""
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > DEADLINE_S


# ---------------------------------------------------------------- helpers
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p80(values: List[float]) -> float:
    """80th percentile, interpolated between order statistics: the highest
    decile with at least ten of svc_open's jobs beyond it (18 of the 90 a
    30-second run submits)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=5, method="inclusive")[-1]


def reset_peak_rss() -> None:
    """Lower this process's peak RSS (``VmHWM``) to its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """This process's peak RSS since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_setup(build: Callable[[], Any], ctx: "Context") -> Tuple[Any, List[float]]:
    """Run ``build`` SETUP_REPS times; keep the last product and the times,
    each at the reference host speed (their raw median goes to ``ctx.raw``)."""
    times, raw = [], []
    product = None
    speed = HostSpeed()
    for _ in range(SETUP_REPS):
        product = None
        gc.collect()
        start = time.perf_counter()
        product = build()
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * speed.scale())
    ctx.raw["setup_s"] = median(raw)
    return product, times


@dataclass
class Outcome:
    """What one finished ``run_mdf`` call is checked on."""

    wall_s: float
    finished: float  # perf_counter() when run_mdf returned
    rss_mb: float  # peak RSS of the process during the call
    sim: float
    hit: float
    digest: str
    stages: int
    events: int
    validate_s: float = 0.0
    jsonl_mb: float = 0.0


def run_job(
    mdf,
    cluster: Cluster,
    config: EngineConfig,
    spans: Optional[LayerSpans] = None,
    trace_size: bool = False,
    validate: bool = True,
) -> Tuple[Outcome, List[str]]:
    """One ``run_mdf`` call with benchmark-built layer objects.

    Only the call itself is timed, and the process's peak RSS is taken
    over the call alone; digest, the seven validators and (with
    ``trace_size``) trace serialisation run after it.  References skip the
    validators: they only supply the digest every measured job (which is
    validated) must match.  The JobResult is dropped before return.
    """
    scheduler = make_scheduler("bas", config)
    policy = make_policy("amm")
    backend = SerialBackend()
    cluster.reset()
    if spans is not None:
        spans.instrument_job(cluster, scheduler, policy, backend)
    kwargs = dict(
        scheduler=scheduler,
        memory=policy,
        config=config,
        reset=False,
        validate=False,
        live=False,
        backend=backend,
    )
    try:
        reset_peak_rss()
        if spans is not None:
            before = spans.wall_s
            result = spans.run_root(ROOT, run_mdf, mdf, cluster, **kwargs)
            wall = spans.wall_s - before
        else:
            start = time.perf_counter()
            result = run_mdf(mdf, cluster, **kwargs)
            wall = time.perf_counter() - start
        finished = time.perf_counter()
        rss_mb = peak_rss_mb()
    finally:
        backend.close()
    outcome = Outcome(
        wall_s=wall,
        finished=finished,
        rss_mb=rss_mb,
        sim=result.completion_time,
        hit=result.memory_hit_ratio,
        digest=outputs_digest(result.outputs),
        stages=len(result.trace),
        events=len(result.events) if result.events is not None else 0,
    )
    violations = []
    if validate:
        start = time.perf_counter()
        violations = validate_trace(result.events)
        outcome.validate_s = time.perf_counter() - start
    if trace_size and result.events is not None:
        outcome.jsonl_mb = len(result.events.to_jsonl()) / 1e6
    problems = [f"validator: {v}" for v in violations[:3]]
    if len(violations) > 3:
        problems.append(f"... {len(violations)} violations in all")
    del result
    cluster.reset()  # drop the trace and registry the cluster still holds
    return outcome, problems


def mismatches(got: Outcome, want: Outcome, fields=("digest", "sim", "hit")) -> List[str]:
    return [
        f"{name} {getattr(got, name)!r} != reference {getattr(want, name)!r}"
        for name in fields
        if getattr(got, name) != getattr(want, name)
    ]


class ClosedLoop:
    """One client that sends its next request (a ts_sweep job, a dl_session
    session) as soon as the previous one is complete.  A request is *due*
    at the previous one's completion, so its latency also covers the
    client's own work in between: checking and releasing the result.  The
    host-speed probes between requests are not part of it."""

    def __init__(self) -> None:
        self.start = self.due = time.perf_counter()
        self.latencies: List[float] = []
        self.raw: List[float] = []

    def complete(self, done: float, scale: float) -> None:
        self.raw.append(done - self.due)
        self.latencies.append(self.raw[-1] * scale)
        self.due = done

    def pause(self, seconds: float) -> None:
        """The client did not wait on the system for ``seconds``."""
        self.due += seconds

    def metrics(self, ctx: "Context") -> Dict[str, float]:
        ctx.raw["latency_p50_s"] = median(self.raw)
        return {"latency_p50_s": median(self.latencies)}


def layer_metrics(units: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over measured units (a job, a session) of each layer value."""
    keys = sorted({k for unit in units for k in unit})
    return {k: median([unit.get(k, 0.0) for unit in units]) for k in keys}


def spans_to_layers(spans: LayerSpans, outcomes: List[Outcome]) -> Dict[str, float]:
    """The per-layer metrics of one measured unit (one or more jobs that
    shared one LayerSpans)."""
    sec, calls, counts = spans.seconds, spans.calls, spans.counts
    evictions = counts.get("cluster.evictions", 0)
    lookups = calls.get("cache.lookup_s", 0)
    return {
        "engine.scheduler.select_s": sec.get("engine.scheduler.select_s", 0.0),
        "engine.scheduler.select_calls": calls.get("engine.scheduler.select_s", 0),
        "engine.backends.op_s": sec.get("engine.backends.op_s", 0.0),
        "engine.backends.op_calls": calls.get("engine.backends.op_s", 0),
        "engine.self_s": sec.get("engine.self_s", 0.0),
        "cluster.store_s": sec.get("cluster.store_s", 0.0),
        "cluster.store_calls": calls.get("cluster.store_s", 0),
        "cluster.load_s": sec.get("cluster.load_s", 0.0),
        "cluster.load_calls": calls.get("cluster.load_s", 0),
        "cluster.evict_rank_s": sec.get("cluster.evict_rank_s", 0.0),
        "cluster.evictions": evictions,
        "cluster.rank_entries_per_eviction": (
            counts.get("cluster.rank_entries", 0) / evictions if evictions else 0.0
        ),
        "obs.registry_s": sec.get("obs.registry_s", 0.0),
        "obs.registry_calls": calls.get("obs.registry_s", 0),
        "trace.emit_s": sec.get("trace.emit_s", 0.0),
        "trace.events": sum(o.events for o in outcomes),
        "trace.jsonl_mb": sum(o.jsonl_mb for o in outcomes),
        "trace.validate_s": sum(o.validate_s for o in outcomes),
        "cache.lookup_s": sec.get("cache.lookup_s", 0.0),
        "cache.lookups": lookups,
        "cache.hit_ratio": counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "cache.admit_s": sec.get("cache.admit_s", 0.0),
    }


def unfired(layers: Dict[str, float], names: Tuple[str, ...]) -> List[str]:
    """Layer values that read 0 although the workload exercises the layer:
    the program stopped using the benchmark-built object, so its timers
    never fired and the time moved into ``engine.self_s`` unseen."""
    return [f"{name} is 0: that layer was never timed" for name in names if not layers.get(name)]


#: the layer values each traced workload must see move (per measured unit)
TS_LAYERS = (
    "engine.scheduler.select_calls",
    "engine.backends.op_calls",
    "cluster.store_calls",
    "cluster.load_calls",
    "cluster.evict_rank_s",
    "cluster.evictions",
    "obs.registry_calls",
    "trace.emit_s",
)
DL_LAYERS = (
    "engine.scheduler.select_calls",
    "engine.backends.op_calls",
    "cluster.store_calls",
    "cache.lookups",
    "cache.hit_ratio",
    "cache.admit_s",
    "cache.store_writes",
)
SVC_LAYERS = ("service.submit_s", "service.pump_s", "trace.validate_s")


# ---------------------------------------------------------------- ts_sweep
def _ts_build(seed: int):
    def build():
        mdfs, build_s = [], 0.0
        for i in range(TS_INPUTS):
            trace = oil_well_trace(TS_POINTS, seed * TS_INPUTS + i)
            start = time.perf_counter()
            mdfs.append(
                time_series_mdf(trace, granularity_grid(TS_BRANCHES), nominal_bytes=64 * MB)
            )
            build_s += time.perf_counter() - start
        return mdfs, Cluster(num_workers=8, mem_per_worker=TS_MEM_PER_WORKER), build_s

    return build


def run_ts_sweep(ctx: Context):
    (mdfs, cluster, build_s), setup_times = timed_setup(_ts_build(ctx.seed), ctx)
    # the references: solo, cache-off, untraced; they also warm the process
    refs = []
    for i, mdf in enumerate(mdfs):
        ref, problems = run_job(mdf, cluster, EngineConfig(), validate=False)
        ctx.check(f"ts_sweep reference {i}", problems)
        refs.append(ref)

    speed = HostSpeed()
    loop = ClosedLoop()
    walls, raw_walls, rss, units = [], [], [], []
    n = 0
    while n < 1 or time.perf_counter() - loop.start < ctx.seconds:
        spans = LayerSpans() if ctx.trace else None
        mdf, ref = mdfs[n % TS_INPUTS], refs[n % TS_INPUTS]
        outcome, problems = run_job(mdf, cluster, EngineConfig(), spans, trace_size=ctx.trace)
        scale = speed.scale()
        loop.complete(outcome.finished, scale)
        loop.pause(speed.probe_s[-1])
        problems += mismatches(outcome, ref)
        if spans is not None:
            unit = spans_to_layers(spans, [outcome])
            unit["core.stages"] = outcome.stages
            units.append(unit)
            problems += unfired(unit, TS_LAYERS)
        ctx.check(f"ts_sweep job {n}", problems)
        walls.append(outcome.wall_s * scale)
        raw_walls.append(outcome.wall_s)
        rss.append(outcome.rss_mb)
        del outcome, spans
        gc.collect()
        n += 1
        if ctx.out_of_time():
            break

    e2e = {
        "job_wall_s": median(walls),
        # cache off: every timed job re-runs an input the reference run
        # already computed, and recomputes all of it
        "warm_job_wall_s": median(walls),
        # every job repeats its reference exactly (checked above)
        "sim_completion_s": statistics.fmean(r.sim for r in refs),
        "memory_hit_ratio": statistics.fmean(r.hit for r in refs),
        "peak_rss_mb": max(rss),
        "setup_s": median(setup_times),
    }
    e2e.update(loop.metrics(ctx))
    ctx.raw["job_wall_s"] = median(raw_walls)
    ctx.notes["jobs"] = n
    layers = {}
    if ctx.trace:
        layers = layer_metrics(units)
        layers["core.build_s"] = build_s
    return e2e, layers


# -------------------------------------------------------------- dl_session
def _dl_config(cache: Optional[ResultCache]) -> EngineConfig:
    # materialised choose: every branch result lives long enough to be
    # written to the store, so the warm re-run reads all 128 back
    return EngineConfig(pruning=False, incremental_choose=False, cache=cache)


def _dl_build(seed: int):
    def build():
        data = cifar_like(DL_SAMPLES, features=DL_FEATURES, seed=seed)
        start = time.perf_counter()
        mdf = deep_learning_mdf(
            data, mode="exhaustive", trainer=MLPTrainer(hidden=16, epochs=2)
        )
        build_s = time.perf_counter() - start
        return mdf, Cluster(num_workers=4, mem_per_worker=4 * GB), build_s

    return build


def run_dl_session(ctx: Context):
    (mdf, cluster, build_s), setup_times = timed_setup(_dl_build(ctx.seed), ctx)
    ref, problems = run_job(mdf, cluster, _dl_config(None), validate=False)
    ctx.check("dl_session reference", problems)

    speed = HostSpeed()
    loop = ClosedLoop()
    walls: Dict[str, List[float]] = {"cold": [], "warm": []}
    raw_walls: Dict[str, List[float]] = {"cold": [], "warm": []}
    rss, units = [], []
    expected: Dict[str, Outcome] = {}
    sessions = 0
    while sessions < 2 or time.perf_counter() - loop.start < ctx.seconds:
        store_dir = os.path.join(ctx.workdir, f"dl-store-{sessions}")
        cache = ResultCache(store=DiskCacheStore(store_dir))
        spans = LayerSpans() if ctx.trace else None
        if spans is not None:
            spans.instrument_cache(cache)
        outcomes, scales = [], []
        for phase in ("cold", "warm"):
            # each phase runs on a fresh cluster; warm reads the cold
            # run's results back from the session's store
            job_cluster = Cluster(num_workers=4, mem_per_worker=4 * GB)
            outcome, problems = run_job(
                mdf, job_cluster, _dl_config(cache), spans, trace_size=ctx.trace
            )
            # a cold run matches the cache-off reference exactly (store
            # writes are not charged to the simulated clock); a warm run
            # matches the reference's digest and repeats exactly across
            # sessions and traced runs
            first = expected.setdefault(phase, ref if phase == "cold" else outcome)
            problems += mismatches(outcome, first)
            if phase == "warm":  # the session's spans cover both runs
                problems += mismatches(outcome, ref, fields=("digest",))
            ctx.check(f"dl_session {sessions} {phase}", problems)
            scales.append(speed.scale())
            walls[phase].append(outcome.wall_s * scales[-1])
            raw_walls[phase].append(outcome.wall_s)
            rss.append(outcome.rss_mb)
            outcomes.append(outcome)
        # the probe between the two jobs is not the session's latency
        loop.pause(speed.probe_s[-2])
        loop.complete(outcomes[-1].finished, statistics.fmean(scales))
        loop.pause(speed.probe_s[-1])
        if spans is not None:
            unit = spans_to_layers(spans, outcomes)
            unit["core.stages"] = outcomes[0].stages
            unit["cache.store_writes"] = cache.stats.store_writes
            units.append(unit)
            ctx.fail(f"dl_session {sessions} layers", unfired(unit, DL_LAYERS))
        ctx.notes.setdefault("store_hits_warm", cache.stats.store_hits)
        del cache, spans, outcomes
        shutil.rmtree(store_dir, ignore_errors=True)
        gc.collect()
        sessions += 1
        if ctx.out_of_time():
            break

    ctx.notes["sessions"] = sessions
    e2e = {
        "job_wall_s": median(walls["cold"]),
        "warm_job_wall_s": median(walls["warm"]),
        "sim_completion_s": expected["cold"].sim,
        "memory_hit_ratio": expected["cold"].hit,
        "peak_rss_mb": max(rss),
        "setup_s": median(setup_times),
    }
    e2e.update(loop.metrics(ctx))
    ctx.raw["job_wall_s"] = median(raw_walls["cold"])
    ctx.raw["warm_job_wall_s"] = median(raw_walls["warm"])
    layers = {}
    if ctx.trace:
        layers = layer_metrics(units)
        layers["core.build_s"] = build_s
    return e2e, layers


# ---------------------------------------------------------------- svc_open
def svc_schedule(seed: int, seconds: float) -> List[Tuple[float, str, str]]:
    """``(due offset, tenant, zoo workload)`` for every submission.

    Poisson arrivals at SVC_RATE over ``seconds``: exponential gaps, drawn
    stratified (one gap per quantile stratum, in seeded order) so every seed
    gets the same set of gaps and only their order -- the burst pattern --
    varies.  The mix is drawn in seeded blocks that each hold every
    workload once; private workloads go to their own tenant, shared ones to
    a seeded tenant.
    """
    rng = random.Random(seed)
    count = max(1, round(SVC_RATE * seconds))
    gaps = [-math.log(1.0 - (i + 0.5) / count) / SVC_RATE for i in range(count)]
    rng.shuffle(gaps)
    jobs, offset, block = [], 0.0, []
    for gap in gaps:
        if not block:
            block = list(SVC_WORKLOADS)
            rng.shuffle(block)
        workload = block.pop()
        if workload.startswith("svc_private_"):
            tenant = workload[len("svc_private_"):]
        else:
            tenant = rng.choice(SVC_TENANTS)
        jobs.append((offset, tenant, workload))
        offset += gap
    return jobs


def svc_references() -> Dict[str, str]:
    """Solo, cache-off, untraced digest of every zoo workload in the mix.

    Computed after the measured run: the pool forks from a dispatcher that
    has run no job, as a freshly started service would."""
    digests = {}
    for name in SVC_WORKLOADS:
        workload = get_workload(name)
        result = run_mdf(
            workload.make_mdf(),
            workload.make_cluster(),
            scheduler="bas",
            memory="amm",
            config=workload.make_config(),
            validate=False,
            live=False,
        )
        digests[name] = outputs_digest(result.outputs)
    return digests


class ValidateTimer:
    """Times ``validate_trace`` inside the pool workers.

    Workers are forked from this process, so they inherit the wrapped
    module attribute; each appends its timings to a file per pid under
    ``directory`` (workers share no memory with the dispatcher).
    """

    def __init__(self, directory: str) -> None:
        import repro.service.worker as worker

        self.directory = directory
        self._module = worker
        self._original = worker.validate_trace
        os.makedirs(directory, exist_ok=True)
        original = self._original

        def timed_validate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                path = os.path.join(directory, str(os.getpid()))
                with open(path, "a") as fh:
                    fh.write(f"{elapsed!r}\n")

        worker.validate_trace = timed_validate

    def restore(self) -> None:
        self._module.validate_trace = self._original

    def seconds(self) -> List[float]:
        out = []
        for name in sorted(os.listdir(self.directory)):
            with open(os.path.join(self.directory, name)) as fh:
                out += [float(line) for line in fh if line.strip()]
        return out


def _svc_start(ctx: Context, rep: int) -> JobService:
    spool = os.path.join(ctx.workdir, f"svc-{rep}")
    service = JobService(
        workers=2,
        tenants={t: 1.0 for t in SVC_TENANTS},
        spool=spool,
        cache_dir=os.path.join(spool, "cache"),
    )
    # the pool forks lazily on the first admission; fork it here so the
    # fork is set-up, not the first job's latency
    service._ensure_pool()
    return service


def run_svc_open(ctx: Context):
    validate_timer = ValidateTimer(os.path.join(ctx.workdir, "validate")) if ctx.trace else None
    setup_times, raw_setup, service = [], [], None
    speed = HostSpeed()
    try:
        for rep in range(SETUP_REPS):
            if service is not None:
                service.close()
                service = None
            gc.collect()
            start = time.perf_counter()
            schedule = svc_schedule(ctx.seed, ctx.seconds)
            service = _svc_start(ctx, rep)
            raw_setup.append(time.perf_counter() - start)
            setup_times.append(raw_setup[-1] * speed.scale())
        ctx.raw["setup_s"] = median(raw_setup)
        return _svc_measure(ctx, service, schedule, setup_times, speed, validate_timer)
    finally:
        if service is not None:
            service.close()
        if validate_timer is not None:
            validate_timer.restore()


def _svc_measure(ctx, service, schedule, setup_times, speed, validate_timer):
    spans = LayerSpans() if ctx.trace else None
    if spans is not None:
        spans.instrument(service, ["submit"], "service.submit_s")
        spans.instrument(service, ["pump"], "service.pump_s")
    due_of: Dict[str, float] = {}
    lags: List[float] = []
    speed.probe()  # a probe right before the measured run starts
    reset_peak_rss()
    t0 = time.time()

    def idle(until: float) -> bool:
        """Nothing queued or running, and the next submission is due after
        a probe would end with room to spare."""
        return until - time.time() > 3 * speed.probe_s[-1] and not any(
            r.status in (QUEUED, RUNNING) for r in service.records.values()
        )

    def generate() -> None:
        for offset, tenant, workload in schedule:
            due = t0 + offset
            while True:
                now = time.time()
                if now >= due:
                    break
                if not service.pump():
                    if idle(due):
                        speed.probe()  # the host's speed through the run
                    else:
                        time.sleep(min(due - now, 0.002))
            lags.append(time.time() - due)
            due_of[service.submit(tenant, workload)] = due
            service.pump()

    if spans is not None:  # submit/pump are timed inside the generator span
        spans.run_root("service.generator_s", generate)
    else:
        generate()
    schedule_end = time.time()
    backlog = sum(1 for r in service.records.values() if r.status == QUEUED)
    service.drain(timeout=max(30.0, DEADLINE_S - (time.perf_counter() - ctx.started)))
    elapsed = time.time() - t0
    rss_mb = peak_rss_mb()  # the dispatcher's own peak over the measured run
    speed.probe()

    digests = svc_references()
    latencies, walls, sims, queue_waits, collects = [], [], [], [], []
    raw_latencies: List[float] = []
    walls_of: Dict[str, List[float]] = {}
    warm_walls_of: Dict[str, List[float]] = {}
    raw_walls_of: Dict[str, List[float]] = {}
    raw_warm_walls_of: Dict[str, List[float]] = {}
    first_done: Dict[str, float] = {}
    records = sorted(service.records.values(), key=lambda r: r.finished_at or 0.0)
    for record in records:
        result = record.result or {}
        name = record.spec.workload
        problems = []
        if record.status != DONE or not result.get("ok"):
            problems.append(f"status {record.status}: {record.error}")
        elif result.get("outputs_digest") != digests[name]:
            problems.append("digest differs from the solo reference")
        elif result.get("violations"):
            problems.append(f"{result['violations']} validator violations")
        ctx.check(f"svc_open {record.job_id} ({name})", problems)
        if problems:
            continue
        due = due_of[record.job_id]
        latency = record.finished_at - due
        latency_scale = speed.factor(due, record.finished_at)
        wall_scale = speed.factor(record.started_at, record.finished_at)
        latencies.append(latency * latency_scale)
        raw_latencies.append(latency)
        walls.append(result["wall_s"])
        walls_of.setdefault(name, []).append(result["wall_s"] * wall_scale)
        raw_walls_of.setdefault(name, []).append(result["wall_s"])
        sims.append(result["completion_time"])
        if name in first_done and first_done[name] <= record.started_at:
            warm_walls_of.setdefault(name, []).append(result["wall_s"] * wall_scale)
            raw_warm_walls_of.setdefault(name, []).append(result["wall_s"])
        first_done.setdefault(name, record.finished_at)
        queue_wait = record.started_at - due
        queue_waits.append(queue_wait)
        collects.append(latency - queue_wait - result["wall_s"])

    registry = service.obs.registry
    memory_bytes = registry.value("bytes_read_memory")
    disk_bytes = registry.value("bytes_read_disk")
    # tails amplify host noise (a submission is late by the dispatcher's
    # busy time minus its gap; the latency tail is queueing behind it), so
    # they are reported, not gated: per-layer metrics and notes
    lag_p80 = p80(lags)
    latency_p80 = p80(latencies)
    ctx.notes.update(
        jobs=len(schedule),
        latency_p80_s=latency_p80,
        generator_lag_p80_s=lag_p80,
        backlog_at_schedule_end=backlog,
        schedule_s=schedule_end - t0,
        drain_s=elapsed - (schedule_end - t0),
    )
    layers = {}
    if spans is not None:
        busy = spans.seconds["service.submit_s"] + spans.seconds["service.pump_s"]
        layers = {
            "service.submit_s": spans.seconds["service.submit_s"],
            "service.pump_s": spans.seconds["service.pump_s"],
            "service.dispatcher_busy_frac": busy / (schedule_end - t0),
            "service.latency_p80_s": latency_p80,
            "service.generator_lag_p80_s": lag_p80,
            "service.backlog_at_schedule_end": backlog,
            "service.queue_wait_p50_s": median(queue_waits),
            "service.worker_run_p50_s": median(walls),
            "service.collect_p50_s": median(collects),
            "service.state_json_kb": _kb(service.spool, "state.json"),
            "service.events_log_kb": _kb(service.spool, "service_events.ndjson"),
            "trace.validate_s": median(validate_timer.seconds()),
        }
        ctx.fail("svc_open layers", unfired(layers, SVC_LAYERS))
    ctx.raw.update(
        job_wall_s=per_workload_wall(raw_walls_of),
        warm_job_wall_s=per_workload_wall(raw_warm_walls_of),
        latency_p50_s=median(raw_latencies),
    )
    ctx.notes["probes"] = len(speed.probes)
    e2e = {
        "job_wall_s": per_workload_wall(walls_of),
        "warm_job_wall_s": per_workload_wall(warm_walls_of),
        # mean, not median: the median of a fixed mix is one workload's
        # constant; the mean moves with the share of warm jobs
        "sim_completion_s": statistics.fmean(sims) if sims else 0.0,
        "memory_hit_ratio": (
            memory_bytes / (memory_bytes + disk_bytes) if memory_bytes + disk_bytes else 1.0
        ),
        "peak_rss_mb": rss_mb,
        "setup_s": median(setup_times),
        "latency_p50_s": median(latencies),
    }
    return e2e, layers


def per_workload_wall(walls_of: Dict[str, List[float]]) -> float:
    """Geometric mean over zoo workloads of each one's median worker wall.

    The mix holds workloads whose jobs take from a few to a hundred
    milliseconds, so the median of all jobs lands on whichever workload the
    seed's few extra draws push to the middle.  Weighting every workload
    equally keeps the metric on the work, not on the mix."""
    medians = [median(walls) for walls in walls_of.values() if walls]
    if not medians:
        return 0.0
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def _kb(directory: str, name: str) -> float:
    path = os.path.join(directory, name)
    return os.path.getsize(path) / 1024.0 if os.path.exists(path) else 0.0


WORKLOADS = {
    "ts_sweep": run_ts_sweep,
    "dl_session": run_dl_session,
    "svc_open": run_svc_open,
}
