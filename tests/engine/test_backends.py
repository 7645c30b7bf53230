"""The data-plane seam: every operator call of a run goes through the
``SerialBackend`` instance passed to ``run_mdf(backend=)``."""

from collections import Counter

from repro import Cluster, GB, MB, MDFBuilder
from repro.core.operators import Filter, Map
from repro.engine import run_mdf
from repro.engine.backends import SerialBackend


class TestSerialBackend:
    def test_map_chain_preserves_order(self):
        backend = SerialBackend()
        ops = [Map(lambda x: x + 1, name="inc"), Filter(lambda x: x % 2 == 0, name="even")]
        out = backend.map_chain(ops, [[1, 2, 3], [4, 5, 6]])
        assert out == [[2, 4], [6]]


class SpyBackend(SerialBackend):
    def __init__(self):
        self.calls = Counter()

    def map_chain(self, ops, payloads):
        self.calls["map_chain"] += 1
        return super().map_chain(ops, payloads)

    def run_global(self, op, payloads):
        self.calls["run_global"] += 1
        return super().run_global(op, payloads)

    def run_join(self, op, left, right):
        self.calls["run_join"] += 1
        return super().run_join(op, left, right)


def narrow_wide_join_mdf():
    b = MDFBuilder("seam")
    left = (
        b.read_data(list(range(40)), name="left", nominal_bytes=16 * MB)
        .map(lambda x: x * 3, name="triple")
        .aggregate(lambda xs: sorted(xs, reverse=True), name="sort", selectivity=1.0)
    )
    right = b.read_data([1, 2], name="right", nominal_bytes=MB)
    (
        left.join(right, lambda l, r: [x + y for x in l for y in r], name="cross")
        .filter(lambda x: x % 2 == 0, name="even")
        .write(name="out")
    )
    return b.build()


def test_every_operator_call_goes_through_the_injected_backend():
    spy = SpyBackend()
    seen = run_mdf(narrow_wide_join_mdf(), Cluster(3, 1 * GB), backend=spy)
    plain = run_mdf(narrow_wide_join_mdf(), Cluster(3, 1 * GB))
    assert spy.calls["map_chain"] > 0
    assert spy.calls["run_global"] > 0
    assert spy.calls["run_join"] > 0
    assert seen.outputs == plain.outputs
    assert seen.events.to_jsonl() == plain.events.to_jsonl()
