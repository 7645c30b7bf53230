"""The stock eviction rounds against the generic per-eviction re-ranking.

The stock AMM and LRU policies rank a round once and reuse each slot's
ranking entry across rounds while the slot, ``acc(d)`` and
``last_access`` are unchanged.  A subclass that overrides
``select_victim`` (here: by delegating straight to the parent) falls back
to ``_GenericEvictionRound``, which re-runs ``select_victim`` and
``ranking_snapshot`` per eviction with fresh entries.  Both must produce
the same trace bytes and outputs on evicting runs, including pinned data
and node failures (the transient one reloads checkpoints through
``Node.promote``).
"""

import random

import pytest

from repro import Cluster, Dataset, EngineConfig, FailureInjector, MB, run_mdf
from repro.cluster.fault import CheckpointConfig
from repro.cluster.memory import AMMPolicy, LRUPolicy, _GenericEvictionRound
from repro.service.worker import outputs_digest
from repro.workloads import granularity_grid, oil_well_trace, time_series_mdf


class DelegatingAMM(AMMPolicy):
    def select_victim(self, node, candidates):
        return super().select_victim(node, candidates)


class DelegatingLRU(LRUPolicy):
    def select_victim(self, node, candidates):
        return super().select_victim(node, candidates)


STOCK = {"amm": AMMPolicy, "lru": LRUPolicy}
GENERIC = {"amm": DelegatingAMM, "lru": DelegatingLRU}

CONFIGS = {
    "plain": {},
    "pinned": {"pin_producers": frozenset({"read-trace"})},
    "transient_failure": {
        "failures": lambda: FailureInjector.at_stages([(30, "worker-1")]),
        "checkpointing": CheckpointConfig(),
    },
    "permanent_failure": {
        "failures": lambda: FailureInjector.at_stages(
            [(30, "worker-1")], permanent=True
        ),
        "checkpointing": CheckpointConfig(),
    },
}


@pytest.fixture(scope="module")
def mdf():
    return time_series_mdf(
        oil_well_trace(2_000), granularity_grid(64), nominal_bytes=64 * MB
    )


def run(mdf, policy, config="plain", on_event=None):
    options = {
        name: value() if callable(value) else value
        for name, value in CONFIGS[config].items()
    }
    cluster = Cluster(8, 256 * MB)
    if on_event is not None:
        cluster.trace.subscribe(on_event)
    return run_mdf(
        mdf, cluster, memory=policy, config=EngineConfig(**options), reset=False
    )


def evictions(result):
    return result.events.filter("partition_evicted")


def distinct_entries(result):
    return len({id(entry) for e in evictions(result) for entry in e.data["ranking"]})


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("policy", sorted(STOCK))
def test_fast_round_matches_generic_round(mdf, policy, config):
    stock = run(mdf, STOCK[policy](), config)
    generic = run(mdf, GENERIC[policy](), config)
    assert evictions(stock), "the configuration must evict"
    assert stock.events.to_jsonl() == generic.events.to_jsonl()
    assert outputs_digest(stock.outputs) == outputs_digest(generic.outputs)
    assert stock.completion_time == generic.completion_time


@pytest.mark.parametrize("seed", range(4))
def test_acc_change_alone_invalidates_entries(seed):
    """acc(d) moving while a slot is neither touched nor replaced (a
    pruned reader, say) must re-rank it: drive the cluster directly with
    access counts that change between stores."""

    def drive(policy):
        rng = random.Random(seed)
        cluster = Cluster(2, 4 * MB, policy=policy)
        accs = {}
        policy.bind(lambda dataset: accs.get(dataset, 0), cluster.cost_model.alpha)
        for step in range(24):
            accs = {f"d{k}": rng.randrange(4) for k in range(step)}
            nominal = rng.choice([1, 2]) * MB
            cluster.register_dataset(
                Dataset.from_data(
                    [step, step], num_partitions=2, dataset_id=f"d{step}",
                    nominal_bytes=nominal,
                )
            )
        return cluster.trace

    stock, generic = drive(AMMPolicy()), drive(DelegatingAMM())
    assert len(stock.filter("partition_evicted")) > 10
    assert stock.to_jsonl() == generic.to_jsonl()


@pytest.mark.parametrize("policy", sorted(STOCK))
def test_generic_round_is_the_fallback(mdf, policy):
    """The delegating subclasses really take the generic path: every entry
    of theirs is fresh, while the stock policy shares unchanged ones."""
    cluster = Cluster(8, 256 * MB)
    node = cluster.nodes[0]
    node.put(("d", 0), [1], 10, 0.0, in_memory=True)
    round_ = GENERIC[policy]().eviction_round(node, node.eviction_candidates())
    assert isinstance(round_, _GenericEvictionRound)
    stock = run(mdf, STOCK[policy]())
    generic = run(mdf, GENERIC[policy]())
    total = sum(len(e.data["ranking"]) for e in evictions(generic))
    assert distinct_entries(generic) == total
    assert distinct_entries(stock) < total


@pytest.mark.parametrize("policy", sorted(STOCK))
def test_shared_entries_are_never_mutated(mdf, policy):
    """An emitted event serialises to the same bytes at the end of the run
    as right after it was emitted, although later events share its
    ranking entries."""
    first = {}

    def capture(event):
        if event.kind == "partition_evicted" and not first:
            first["event"] = event
            first["json"] = event.to_json()

    result = run(mdf, STOCK[policy](), on_event=capture)
    assert len(evictions(result)) > 1
    assert first["event"].to_json() == first["json"]


@pytest.mark.parametrize("policy", sorted(STOCK))
def test_ranking_work_per_eviction_is_bounded(mdf, policy):
    """Host-independent work gate: distinct ranking-entry dicts per
    eviction.  Rebuilding every entry per eviction costs one dict per
    candidate (about 45 here); reusing unchanged entries costs about 6."""
    result = run(mdf, STOCK[policy]())
    assert distinct_entries(result) <= 10 * len(evictions(result))
