"""Worker-side stage execution on the simulated cluster.

A stage is a pipelined chain of narrow operators, optionally headed by a
source (which reads the job input from distributed storage) or a wide
operator (which shuffles all partitions).  Execution

1. loads the input partitions — memory hits cost memory-read time, misses
   cost disk-read time plus promotion (which may trigger evictions),
2. runs the real operator functions partition by partition, charging the
   operator cost model against the node's compute rate, and
3. stores the output partitions, which may again evict under pressure.

Per-node times are combined into stage *wall* times (the slowest node
gates the stage), after straggler stretching and speculative mitigation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.stragglers import apply_stragglers
from ..core.datasets import Dataset, Partition, split_payload
from ..core.errors import SchedulingError
from ..core.operators import Join, Operator, Source
from ..core.stages import Stage
from .backends import SerialBackend
from .job import EngineConfig


def _split_bytes(total: int, count: int) -> List[int]:
    """Split ``total`` nominal bytes across ``count`` partitions exactly.

    The remainder lands on the first partitions so that
    ``sum(_split_bytes(t, n)) == max(0, t)`` always holds (the old
    ``total // count`` stamp leaked up to ``count - 1`` bytes per stage).
    """
    count = max(1, count)
    base, extra = divmod(max(0, int(total)), count)
    return [base + 1 if i < extra else base for i in range(count)]


@dataclass
class StageTimes:
    """Wall-clock components of one executed stage (simulated seconds)."""

    io: float = 0.0
    compute: float = 0.0
    network: float = 0.0
    overhead: float = 0.0
    #: straggler/retry-adjusted per-node seconds the walls were taken from
    #: (``io``/``compute`` are their maxima); recorded on the trace so the
    #: profiler can attribute busy vs idle time per node
    per_node_io: Dict[str, float] = field(default_factory=dict)
    per_node_compute: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.io + self.compute + self.network + self.overhead


@dataclass
class StageOutcome:
    """Result of executing one stage.

    With ``defer_store=True`` the produced dataset is returned in
    ``pending`` instead of being registered on the cluster: the master
    evaluates the branch result in-flight first and only materialises it
    if the choose keeps it (R3: losers are never stored at all).
    """

    output_dataset_id: Optional[str]
    times: StageTimes
    num_tasks: int
    pending: Optional[Dataset] = None
    #: lineage fingerprint of the produced output (None = uncacheable).
    #: Carried on deferred outcomes so the master can admit the output to
    #: the result cache when ``commit_store`` materialises it.
    fingerprint: Optional[str] = None


class StageExecutor:
    """Executes stages against a cluster under an :class:`EngineConfig`."""

    def __init__(
        self,
        cluster: Cluster,
        config: EngineConfig,
        backend: Optional[SerialBackend] = None,
    ):
        self.cluster = cluster
        self.config = config
        #: node id -> pending transient task-failure attempts, consumed by
        #: the next executed stage (retry-with-backoff, §5)
        self._pending_task_faults: Dict[str, int] = {}
        #: the data plane: who actually runs operator functions over
        #: payloads (a caller-owned instance, or a fresh one)
        self.backend = backend if backend is not None else SerialBackend()

    def inject_task_faults(self, faults: Dict[str, int]) -> None:
        """Schedule transient task failures for the next executed stage."""
        for node_id, attempts in faults.items():
            self._pending_task_faults[node_id] = (
                self._pending_task_faults.get(node_id, 0) + attempts
            )

    # ------------------------------------------------------------- helpers
    def _wall(
        self,
        per_node_io: Dict[str, float],
        per_node_compute: Dict[str, float],
        network: float,
        num_tasks: int,
        per_node_tasks: Optional[Dict[str, int]] = None,
        consume_faults: bool = False,
    ) -> StageTimes:
        """Combine per-node times into stage walls, honouring stragglers.

        Also attributes the (straggler-adjusted) per-node times, the task
        counts, and a per-task latency estimate to the labeled registry;
        the ambient label context supplies stage/branch.

        ``consume_faults`` is True only for real stage-execution walls:
        injected transient task failures are scheduled "for the next
        executed stage" and must not be drained by choose evaluations,
        cache-hit serving or sink finalisation walls in between.
        """
        profile = self.config.stragglers
        if profile is not None:
            per_node_io = apply_stragglers(
                per_node_io, profile, self.config.speculation, self.cluster.obs
            )
            per_node_compute = apply_stragglers(
                per_node_compute, profile, self.config.speculation, self.cluster.obs
            )
        if consume_faults and self._pending_task_faults:
            faults, self._pending_task_faults = self._pending_task_faults, {}
            per_node_io = dict(per_node_io)
            per_node_compute = dict(per_node_compute)
            for node_id, attempts in sorted(faults.items()):
                if attempts <= 0:
                    continue
                # each failed attempt redoes the node's full IO + compute
                # share, plus exponential backoff between attempts
                node_io = per_node_io.get(node_id, 0.0)
                node_compute = per_node_compute.get(node_id, 0.0)
                backoff = sum(
                    self.config.retry_backoff * (2 ** i) for i in range(attempts)
                )
                per_node_io[node_id] = node_io * (1 + attempts)
                per_node_compute[node_id] = node_compute * (1 + attempts) + backoff
                self.cluster.trace.emit(
                    "task_retried",
                    node=node_id,
                    attempts=attempts,
                    seconds=(node_io + node_compute) * attempts + backoff,
                )
        io = max(per_node_io.values(), default=0.0)
        compute = max(per_node_compute.values(), default=0.0)
        overhead = num_tasks * self.config.task_overhead
        obs = self.cluster.obs
        for node_id, seconds in per_node_io.items():
            obs.counter("time_io", node=node_id).inc(seconds)
            self.cluster.note_busy(node_id, seconds)
        for node_id, seconds in per_node_compute.items():
            obs.counter("time_compute", node=node_id).inc(seconds)
            self.cluster.note_busy(node_id, seconds)
        if network:
            obs.counter("time_network").inc(network)
        attributed = 0
        if per_node_tasks:
            for node_id, count in per_node_tasks.items():
                if count <= 0:
                    continue
                obs.counter("tasks_executed", node=node_id).inc(count)
                attributed += count
                per_task = (
                    per_node_io.get(node_id, 0.0) + per_node_compute.get(node_id, 0.0)
                ) / count
                histogram = obs.histogram("task_seconds", node=node_id)
                for _ in range(count):
                    histogram.observe(per_task)
        if num_tasks > attributed:
            obs.counter("tasks_executed").inc(num_tasks - attributed)
        return StageTimes(
            io=io,
            compute=compute,
            network=network,
            overhead=overhead,
            per_node_io=dict(per_node_io),
            per_node_compute=dict(per_node_compute),
        )

    def _charge_chain(
        self,
        ops: List[Operator],
        nbytes: int,
        node_id: str,
        per_node_compute: Dict[str, float],
    ) -> int:
        """Charge a narrow chain's modelled compute for one partition.

        Control-plane half of the old inline chain loop: accumulates the
        per-operator compute times in the same order as before (float
        accumulation order is part of the byte-identity contract) and
        returns the chain's nominal output bytes.  The data-plane half —
        actually transforming the payloads — runs in :meth:`_apply_chain`.
        """
        cur_bytes = nbytes
        for op in ops:
            cost = op.compute_cost(cur_bytes)
            per_node_compute[node_id] = per_node_compute.get(node_id, 0.0) + (
                self.cluster.cost_model.compute_time(cost)
            )
            cur_bytes = op.output_bytes(cur_bytes)
        return cur_bytes

    def _apply_chain(self, ops: List[Operator], payloads: List[Any]) -> List[Any]:
        """Run the pure payload transform of a narrow chain."""
        if not ops:
            return list(payloads)
        return self.backend.map_chain(ops, payloads)

    # ------------------------------------------------------ result cache
    def _note_miss(self, stage: Stage, fingerprint: Optional[str], reason: str) -> None:
        """Account one consulted-but-executed stage (cache off stays silent)."""
        cache = self.config.cache
        cache.stats.misses += 1
        tenant = getattr(cache, "tenant", None)
        if tenant:
            self.cluster.obs.counter("cache_tenant_misses", policy=tenant).inc()
        self.cluster.trace.emit(
            "cache_miss", stage=stage.id, fingerprint=fingerprint, reason=reason
        )

    def _chain_cost_estimate(self, ops: List[Operator], nbytes: int) -> float:
        """Modelled compute seconds of one partition through a narrow chain."""
        cost_model = self.cluster.cost_model
        total, cur = 0.0, nbytes
        for op in ops:
            total += cost_model.compute_time(op.compute_cost(cur))
            cur = op.output_bytes(cur)
        return total

    def _input_read_estimate(self, record) -> float:
        """Modelled serial seconds to read every partition of a dataset."""
        cost_model = self.cluster.cost_model
        total = 0.0
        for key, nbytes in zip(record.partition_keys, record.partition_bytes):
            if self.cluster.key_in_memory(key):
                total += cost_model.mem_read_time(nbytes)
            else:
                total += cost_model.disk_read_time(nbytes)
        return total

    def _recompute_estimate(
        self, stage: Stage, input_ids: List[str]
    ) -> Optional[float]:
        """Modelled serial cost of running the stage cold.

        Drives the profitability gate and the ``saved_seconds`` a hit
        reports.  Serial sums on both sides of the comparison (the store
        cost is identical on both and omitted).  ``None`` when the input
        size cannot be known without executing (a source without
        ``nominal_bytes``), in which case the gate is skipped.
        """
        cost_model = self.cluster.cost_model
        head = stage.head
        if isinstance(head, Source):
            if head.nominal_bytes is None:
                return None
            nparts = self.cluster.num_workers * self.config.partitions_per_worker
            per_part = max(1, head.nominal_bytes // nparts)
            return nparts * (
                cost_model.disk_read_time(per_part)
                + self._chain_cost_estimate(stage.ops[1:], per_part)
            )
        records = [self.cluster.record(i) for i in input_ids]
        total = sum(self._input_read_estimate(r) for r in records)
        if head.narrow:
            for nbytes in records[0].partition_bytes:
                total += self._chain_cost_estimate(stage.ops, nbytes)
            return total
        # wide / join: all-to-all shuffle, global head, pipelined rest
        total_bytes = sum(r.nbytes for r in records)
        workers = max(1, self.cluster.num_workers)
        total += cost_model.network_time(int(total_bytes / workers))
        total += cost_model.compute_time(head.compute_cost(total_bytes))
        per_part = max(1, head.output_bytes(total_bytes) // workers)
        total += workers * self._chain_cost_estimate(stage.ops[1:], per_part)
        return total

    def _hit_read_estimate(self, hit) -> float:
        """Modelled serial cost of serving the hit's bytes by residency."""
        cost_model = self.cluster.cost_model
        if hit.tier == "store":
            return sum(cost_model.disk_read_time(b) for b in hit.partition_bytes)
        total = 0.0
        for (owner, pos), nbytes in zip(hit.locations, hit.partition_bytes):
            record = self.cluster.record(owner)
            if self.cluster.key_in_memory(record.partition_keys[pos]):
                total += cost_model.mem_read_time(nbytes)
            else:
                total += cost_model.disk_read_time(nbytes)
        return total

    def _try_cache(
        self,
        stage: Stage,
        fingerprint: Optional[str],
        input_ids: List[str],
        defer_store: bool,
    ) -> Optional[StageOutcome]:
        """Serve the stage from the result cache, or return ``None`` (miss).

        A hit is served only when the modelled read cost beats the
        modelled recompute cost (``cache.cost_based``): under the paper's
        cost model a disk-resident entry can be slower than recomputing a
        cheap operator, and a cache that slows the job down is worse than
        no cache.
        """
        cache = self.config.cache
        if cache is None or fingerprint is None:
            return None
        hit = cache.lookup(fingerprint, self.cluster)
        if hit is None:
            self._note_miss(stage, fingerprint, "cold")
            return None
        recompute = self._recompute_estimate(stage, input_ids)
        saved_seconds = 0.0
        if recompute is not None:
            read_cost = self._hit_read_estimate(hit)
            if cache.cost_based and read_cost >= recompute:
                self._note_miss(stage, fingerprint, "not-profitable")
                return None
            saved_seconds = max(0.0, recompute - read_cost)
        return self._serve_hit(stage, hit, defer_store, saved_seconds)

    def _serve_hit(
        self, stage: Stage, hit, defer_store: bool, saved_seconds: float
    ) -> StageOutcome:
        """Materialise a cache hit as the stage's output dataset.

        Cluster-tier bytes are read through the normal ``load_partition``
        path (charged by residency, attributed to the live owning dataset
        so R3 keeps holding); store-tier bytes are charged a disk read per
        partition but touch no live slot, so no per-node byte counters
        move (the trace records no access to back them).  Either way the
        output is a fresh first-class dataset: it stores (and evicts)
        exactly like a cold stage's output would.
        """
        cache = self.config.cache
        cluster = self.cluster
        per_node_io: Dict[str, float] = {}
        per_node_tasks: Dict[str, int] = {}
        out_parts: List[Partition] = []
        store_seconds: Dict[str, float] = {}
        if hit.tier == "cluster":
            owners = sorted({owner for owner, _ in hit.locations})
            with cluster.protect(owners):
                for index, (owner, pos) in enumerate(hit.locations):
                    payload, seconds, node_id = cluster.load_partition(owner, pos)
                    per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
                    per_node_tasks[node_id] = per_node_tasks.get(node_id, 0) + 1
                    out_parts.append(
                        Partition("", index, payload, hit.partition_bytes[index])
                    )
                output = Dataset(
                    out_parts,
                    dataset_id=f"d:{stage.tail.name}",
                    producer=stage.tail.name,
                )
                self._emit_hit(stage, output.id, hit, saved_seconds)
                if not defer_store:
                    store_seconds = cluster.register_dataset(output)
                    cache.admit(hit.fingerprint, output, cluster)
        else:
            cache.stats.store_hits += 1
            for index, payload in enumerate(hit.payloads):
                node = cluster.node_for_partition(index)
                nbytes = hit.partition_bytes[index]
                per_node_io[node.id] = per_node_io.get(node.id, 0.0) + (
                    cluster.cost_model.disk_read_time(nbytes)
                )
                per_node_tasks[node.id] = per_node_tasks.get(node.id, 0) + 1
                # copy on serve: the hit's payloads belong to the cache
                # blob — aliasing them into a live dataset would let any
                # downstream in-place mutation corrupt every later hit
                payload = pickle.loads(
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                )
                out_parts.append(Partition("", index, payload, nbytes))
            output = Dataset(
                out_parts, dataset_id=f"d:{stage.tail.name}", producer=stage.tail.name
            )
            self._emit_hit(stage, output.id, hit, saved_seconds)
            if not defer_store:
                store_seconds = cluster.register_dataset(output)
                cache.admit(hit.fingerprint, output, cluster)
        num_tasks = hit.num_partitions
        if defer_store:
            times = self._wall(per_node_io, {}, 0.0, num_tasks, per_node_tasks)
            return StageOutcome(
                output.id,
                times,
                num_tasks,
                pending=output,
                fingerprint=hit.fingerprint,
            )
        for node_id, seconds in store_seconds.items():
            per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
        times = self._wall(per_node_io, {}, 0.0, num_tasks, per_node_tasks)
        return StageOutcome(output.id, times, num_tasks, fingerprint=hit.fingerprint)

    def _emit_hit(self, stage: Stage, dataset_id: str, hit, saved_seconds: float) -> None:
        cache = self.config.cache
        cache.stats.hits += 1
        cache.stats.bytes_saved += hit.total_bytes
        cache.stats.compute_seconds_saved += saved_seconds
        obs = self.cluster.obs
        # tenant-labelled accounting (shared cross-tenant stores only; these
        # counters are additive — not part of the fold's replay views)
        tenant = getattr(cache, "tenant", None)
        if tenant:
            obs.counter("cache_tenant_hits", policy=tenant).inc()
            owner = getattr(hit, "owner_tenant", None)
            if owner and owner != tenant:
                cache.stats.cross_tenant_hits += 1
                obs.counter(
                    "cache_cross_tenant_hits", policy=f"{owner}->{tenant}"
                ).inc()
        self.cluster.trace.emit(
            "cache_hit",
            stage=stage.id,
            dataset=dataset_id,
            fingerprint=hit.fingerprint,
            tier=hit.tier,
            nbytes=hit.total_bytes,
            saved_seconds=saved_seconds,
        )

    def _maybe_admit(self, fingerprint: Optional[str], output: Dataset) -> None:
        """Remember a freshly registered stage output in the result cache."""
        cache = self.config.cache
        if cache is not None and fingerprint is not None:
            cache.admit(fingerprint, output, self.cluster)

    # ------------------------------------------------------------- execute
    def execute(
        self,
        stage: Stage,
        input_dataset_id: Optional[str],
        defer_store: bool = False,
        fingerprint: Optional[str] = None,
    ) -> StageOutcome:
        """Run one non-choose stage; returns its output dataset and times."""
        head = stage.head
        if isinstance(head, Source):
            cached = self._try_cache(stage, fingerprint, [], defer_store)
            if cached is not None:
                return cached
            return self._execute_source_stage(stage, fingerprint)
        if input_dataset_id is None:
            raise SchedulingError(f"stage {stage.id} has no input dataset")
        cached = self._try_cache(stage, fingerprint, [input_dataset_id], defer_store)
        if cached is not None:
            return cached
        if head.narrow:
            return self._execute_narrow_stage(
                stage, input_dataset_id, defer_store, fingerprint
            )
        return self._execute_wide_stage(
            stage, input_dataset_id, defer_store, fingerprint
        )

    def execute_join(
        self,
        stage: Stage,
        left_id: str,
        right_id: str,
        defer_store: bool = False,
        fingerprint: Optional[str] = None,
    ) -> StageOutcome:
        """Run a stage headed by a two-input :class:`Join` operator.

        Both operands are gathered (each partition read where it lives,
        bytes crossing the network once), the join function runs over the
        concatenated payloads, and the result is re-partitioned and fed
        through the rest of the stage's narrow chain.
        """
        cached = self._try_cache(stage, fingerprint, [left_id, right_id], defer_store)
        if cached is not None:
            return cached
        head, rest = stage.ops[0], stage.ops[1:]
        assert isinstance(head, Join)
        per_node_io: Dict[str, float] = {}
        per_node_compute: Dict[str, float] = {}
        per_node_tasks: Dict[str, int] = {}
        operands = []
        total_bytes = 0
        with self.cluster.protect([left_id, right_id]):
            for dataset_id in (left_id, right_id):
                record = self.cluster.record(dataset_id)
                payloads = []
                for index in range(record.num_partitions):
                    payload, seconds, node_id = self.cluster.load_partition(
                        dataset_id, index
                    )
                    per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
                    per_node_tasks[node_id] = per_node_tasks.get(node_id, 0) + 1
                    payloads.append(payload)
                total_bytes += record.nbytes
                operands.append(payloads)
            share = total_bytes / max(1, self.cluster.num_workers)
            network = self.cluster.cost_model.network_time(int(share))
            per_worker_compute = self.cluster.cost_model.compute_time(
                head.compute_cost(total_bytes) / self.cluster.num_workers
            )
            for node in self.cluster.alive_nodes:
                per_node_compute[node.id] = (
                    per_node_compute.get(node.id, 0.0) + per_worker_compute
                )
            from ..core.datasets import concat_payloads

            left_payload = concat_payloads(operands[0])
            right_payload = concat_payloads(operands[1])
            joined = self.backend.run_join(head, left_payload, right_payload)
            out_payloads = split_payload(joined, self.cluster.num_workers)
            out_total = head.output_bytes(total_bytes)
            part_bytes = _split_bytes(out_total, len(out_payloads))
            out_bytes_list = [
                self._charge_chain(
                    rest,
                    part_bytes[index],
                    self.cluster.node_for_partition(index).id,
                    per_node_compute,
                )
                for index in range(len(out_payloads))
            ]
            out_payloads = self._apply_chain(rest, out_payloads)
            out_parts: List[Partition] = [
                Partition("", index, payload, out_bytes_list[index])
                for index, payload in enumerate(out_payloads)
            ]
            output = Dataset(
                out_parts, dataset_id=f"d:{stage.tail.name}", producer=stage.tail.name
            )
            if not defer_store:
                store_seconds = self.cluster.register_dataset(output)
        num_tasks = sum(len(p) for p in operands)
        if defer_store:
            times = self._wall(
                per_node_io,
                per_node_compute,
                network,
                num_tasks,
                per_node_tasks,
                consume_faults=True,
            )
            return StageOutcome(
                output.id, times, num_tasks, pending=output, fingerprint=fingerprint
            )
        self._maybe_admit(fingerprint, output)
        for node_id, seconds in store_seconds.items():
            per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
        times = self._wall(
            per_node_io,
            per_node_compute,
            network,
            num_tasks,
            per_node_tasks,
            consume_faults=True,
        )
        return StageOutcome(output.id, times, num_tasks, fingerprint=fingerprint)

    def commit_store(
        self, dataset: Dataset, fingerprint: Optional[str] = None
    ) -> StageTimes:
        """Materialise a deferred stage output (charge the store)."""
        store_seconds = self.cluster.register_dataset(dataset)
        self._maybe_admit(fingerprint, dataset)
        io = max(store_seconds.values(), default=0.0)
        for node_id, seconds in store_seconds.items():
            self.cluster.obs.counter("time_io", node=node_id).inc(seconds)
            self.cluster.note_busy(node_id, seconds)
        return StageTimes(io=io, per_node_io=dict(store_seconds))

    def commit_restore(
        self,
        dataset: Dataset,
        into: str,
        keys: Optional[List[Tuple[str, int]]] = None,
    ) -> StageTimes:
        """Store a re-executed stage's output back into an existing record.

        Recovery counterpart of :meth:`commit_store`: the dataset id is
        already registered — only the (missing) partitions in ``keys`` are
        written back into their original slots, so surviving partitions
        keep their residency and the record's identity is preserved.
        """
        store_seconds = self.cluster.restore_partitions(dataset, into=into, keys=keys)
        io = max(store_seconds.values(), default=0.0)
        for node_id, seconds in store_seconds.items():
            self.cluster.obs.counter("time_io", node=node_id).inc(seconds)
            self.cluster.note_busy(node_id, seconds)
        return StageTimes(io=io, per_node_io=dict(store_seconds))

    def _execute_source_stage(
        self, stage: Stage, fingerprint: Optional[str] = None
    ) -> StageOutcome:
        source = stage.head
        assert isinstance(source, Source)
        nparts = self.cluster.num_workers * self.config.partitions_per_worker
        raw = source.generate(nparts, producer=stage.tail.name)
        per_node_io: Dict[str, float] = {}
        per_node_compute: Dict[str, float] = {}
        per_node_tasks: Dict[str, int] = {}
        # Reading the job input from distributed storage is a disk read.
        chain = stage.ops[1:]
        in_payloads: List[Any] = []
        out_bytes_list: List[int] = []
        for partition in raw.partitions:
            node = self.cluster.node_for_partition(partition.index)
            self.cluster.trace.emit(
                "source_read",
                dataset=raw.id,
                index=partition.index,
                node=node.id,
                nbytes=partition.nominal_bytes,
            )
            per_node_io[node.id] = per_node_io.get(node.id, 0.0) + (
                self.cluster.cost_model.disk_read_time(partition.nominal_bytes)
            )
            per_node_tasks[node.id] = per_node_tasks.get(node.id, 0) + 1
            out_bytes_list.append(
                self._charge_chain(
                    chain, partition.nominal_bytes, node.id, per_node_compute
                )
            )
            in_payloads.append(partition.data)
        out_payloads = self._apply_chain(chain, in_payloads)
        out_parts: List[Partition] = [
            Partition(raw.id, partition.index, out_payloads[i], out_bytes_list[i])
            for i, partition in enumerate(raw.partitions)
        ]
        output = Dataset(out_parts, dataset_id=f"d:{stage.tail.name}", producer=stage.tail.name)
        store_seconds = self.cluster.register_dataset(output)
        self._maybe_admit(fingerprint, output)
        for node_id, seconds in store_seconds.items():
            per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
        times = self._wall(
            per_node_io,
            per_node_compute,
            0.0,
            len(out_parts),
            per_node_tasks,
            consume_faults=True,
        )
        return StageOutcome(output.id, times, len(out_parts), fingerprint=fingerprint)

    def _execute_narrow_stage(
        self,
        stage: Stage,
        input_dataset_id: str,
        defer_store: bool = False,
        fingerprint: Optional[str] = None,
    ) -> StageOutcome:
        record = self.cluster.record(input_dataset_id)
        per_node_io: Dict[str, float] = {}
        per_node_compute: Dict[str, float] = {}
        per_node_tasks: Dict[str, int] = {}
        with self.cluster.protect([input_dataset_id]):
            in_payloads: List[Any] = []
            out_bytes_list: List[int] = []
            for index in range(record.num_partitions):
                payload, seconds, node_id = self.cluster.load_partition(
                    input_dataset_id, index
                )
                per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
                per_node_tasks[node_id] = per_node_tasks.get(node_id, 0) + 1
                nbytes = record.partition_bytes[index]
                out_bytes_list.append(
                    self._charge_chain(stage.ops, nbytes, node_id, per_node_compute)
                )
                in_payloads.append(payload)
            out_payloads = self._apply_chain(stage.ops, in_payloads)
            out_parts: List[Partition] = [
                Partition("", index, payload, out_bytes_list[index])
                for index, payload in enumerate(out_payloads)
            ]
            output = Dataset(
                out_parts, dataset_id=f"d:{stage.tail.name}", producer=stage.tail.name
            )
            if not defer_store:
                store_seconds = self.cluster.register_dataset(output)
        if defer_store:
            times = self._wall(
                per_node_io,
                per_node_compute,
                0.0,
                len(out_parts),
                per_node_tasks,
                consume_faults=True,
            )
            return StageOutcome(
                output.id,
                times,
                len(out_parts),
                pending=output,
                fingerprint=fingerprint,
            )
        self._maybe_admit(fingerprint, output)
        for node_id, seconds in store_seconds.items():
            per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
        times = self._wall(
            per_node_io,
            per_node_compute,
            0.0,
            len(out_parts),
            per_node_tasks,
            consume_faults=True,
        )
        return StageOutcome(output.id, times, len(out_parts), fingerprint=fingerprint)

    def _execute_wide_stage(
        self,
        stage: Stage,
        input_dataset_id: str,
        defer_store: bool = False,
        fingerprint: Optional[str] = None,
    ) -> StageOutcome:
        """Wide head: gather all partitions (shuffle), then pipeline the rest."""
        record = self.cluster.record(input_dataset_id)
        head, rest = stage.ops[0], stage.ops[1:]
        per_node_io: Dict[str, float] = {}
        per_node_compute: Dict[str, float] = {}
        per_node_tasks: Dict[str, int] = {}
        payloads: List[Any] = []
        total_bytes = 0
        with self.cluster.protect([input_dataset_id]):
            for index in range(record.num_partitions):
                payload, seconds, node_id = self.cluster.load_partition(
                    input_dataset_id, index
                )
                per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
                per_node_tasks[node_id] = per_node_tasks.get(node_id, 0) + 1
                payloads.append(payload)
                total_bytes += record.partition_bytes[index]
            # all-to-all shuffle: every byte crosses the network once; each
            # node sends its share in parallel
            share = total_bytes / max(1, self.cluster.num_workers)
            network = self.cluster.cost_model.network_time(int(share))
            head_cost = head.compute_cost(total_bytes)
            # global computation is spread across the workers
            per_worker_compute = self.cluster.cost_model.compute_time(
                head_cost / self.cluster.num_workers
            )
            for node in self.cluster.alive_nodes:
                per_node_compute[node.id] = (
                    per_node_compute.get(node.id, 0.0) + per_worker_compute
                )
            mid_payloads = self.backend.run_global(head, payloads)
            nout = len(mid_payloads)
            out_total = head.output_bytes(total_bytes)
            part_bytes = _split_bytes(out_total, nout)
            out_bytes_list = [
                self._charge_chain(
                    rest,
                    part_bytes[index],
                    self.cluster.node_for_partition(index).id,
                    per_node_compute,
                )
                for index in range(nout)
            ]
            final_payloads = (
                self.backend.map_chain(rest, mid_payloads) if rest else list(mid_payloads)
            )
            out_parts: List[Partition] = [
                Partition("", index, payload, out_bytes_list[index])
                for index, payload in enumerate(final_payloads)
            ]
            output = Dataset(
                out_parts, dataset_id=f"d:{stage.tail.name}", producer=stage.tail.name
            )
            if not defer_store:
                store_seconds = self.cluster.register_dataset(output)
        if defer_store:
            times = self._wall(
                per_node_io,
                per_node_compute,
                network,
                len(payloads),
                per_node_tasks,
                consume_faults=True,
            )
            return StageOutcome(
                output.id,
                times,
                len(payloads),
                pending=output,
                fingerprint=fingerprint,
            )
        self._maybe_admit(fingerprint, output)
        for node_id, seconds in store_seconds.items():
            per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
        times = self._wall(
            per_node_io,
            per_node_compute,
            network,
            len(payloads),
            per_node_tasks,
            consume_faults=True,
        )
        return StageOutcome(output.id, times, len(payloads), fingerprint=fingerprint)

    # ------------------------------------------------------------ evaluate
    def evaluate_pipelined(self, evaluator, dataset: Dataset) -> Tuple[float, StageTimes]:
        """Evaluate a branch result as part of the stage that produced it.

        §4.2: "the evaluator function is executed by worker nodes and
        applied directly to the result datasets of each branch" — when the
        choose runs incrementally, the evaluator pipelines with the tail
        stage, so the freshly produced partitions are scored without being
        re-read (they may not even be stored yet).  Only the evaluator's
        compute cost is charged.
        """
        per_node_compute: Dict[str, float] = {}
        for partition in dataset.partitions:
            node = self.cluster.node_for_partition(partition.index)
            cost = evaluator.cost_factor * partition.nominal_bytes
            per_node_compute[node.id] = per_node_compute.get(node.id, 0.0) + (
                self.cluster.cost_model.compute_time(cost)
            )
        score = evaluator.score(dataset)
        self.cluster.trace.emit(
            "choose_evaluation",
            evaluator=evaluator.name,
            dataset=dataset.id,
            pipelined=True,
        )
        times = self._wall({}, per_node_compute, 0.0, 0)
        self.cluster.obs.histogram(
            "choose_evaluation_seconds", dataset=dataset.id
        ).observe(times.total)
        return score, times

    def evaluate_branch(self, evaluator, dataset_id: str) -> Tuple[float, StageTimes]:
        """Run a choose evaluator over a branch result (worker side).

        Reads the branch dataset (normal hit/miss accounting) and charges
        the evaluator's compute cost on each node.  With the
        ``evaluator_on_master`` ablation, the branch result additionally
        crosses the network to the master and the evaluation runs serially
        there.
        """
        record = self.cluster.record(dataset_id)
        per_node_io: Dict[str, float] = {}
        per_node_compute: Dict[str, float] = {}
        per_node_tasks: Dict[str, int] = {}
        parts: List[Partition] = []
        with self.cluster.protect([dataset_id]):
            for index in range(record.num_partitions):
                payload, seconds, node_id = self.cluster.load_partition(dataset_id, index)
                per_node_io[node_id] = per_node_io.get(node_id, 0.0) + seconds
                per_node_tasks[node_id] = per_node_tasks.get(node_id, 0) + 1
                nbytes = record.partition_bytes[index]
                parts.append(Partition(dataset_id, index, payload, nbytes))
                cost = evaluator.cost_factor * nbytes
                per_node_compute[node_id] = per_node_compute.get(node_id, 0.0) + (
                    self.cluster.cost_model.compute_time(cost)
                )
        dataset = Dataset(parts, dataset_id=dataset_id, producer=record.producer)
        score = evaluator.score(dataset)
        network = 0.0
        if self.config.evaluator_on_master:
            # ship the branch result to the master and evaluate serially
            network = self.cluster.cost_model.network_time(record.nbytes)
            serial = sum(per_node_compute.values())
            per_node_compute = {"master": serial}
            per_node_tasks = {"master": record.num_partitions}
        self.cluster.trace.emit(
            "choose_evaluation",
            evaluator=evaluator.name,
            dataset=dataset_id,
            pipelined=False,
        )
        times = self._wall(
            per_node_io, per_node_compute, network, record.num_partitions, per_node_tasks
        )
        self.cluster.obs.histogram(
            "choose_evaluation_seconds", dataset=dataset_id
        ).observe(times.total)
        return score, times
