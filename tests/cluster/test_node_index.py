"""Property test: the node's in-memory index agrees with a full slot scan.

``Node`` keeps its in-memory slots in an index so eviction queries never
scan disk-resident slots.  After every step of a random sequence of
``put``/``promote``/``demote``/``remove``/``fail_memory``/``clear`` (with
pin, protect and checkpoint flags toggled in between), the indexed
queries must return exactly what a scan of every slot returns, in the
same order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node

#: few keys, so steps keep revisiting the same slots
KEYS = st.tuples(st.sampled_from("ab"), st.integers(min_value=0, max_value=1))
#: the index-moving operations repeated, so they are drawn more often
OPS = st.sampled_from(
    ["put"] * 3
    + ["promote", "demote"] * 2
    + ["remove", "touch", "pin", "protect", "checkpoint", "fail_memory", "clear"]
)
#: (operation, key, nbytes, in_memory); each operation reads what it needs
STEPS = st.tuples(OPS, KEYS, st.integers(1, 400), st.booleans())


def scan_in_memory(node):
    return [s for s in node.slots.values() if s.in_memory]


def scan_memory_datasets(node):
    return {s.dataset_id for s in node.slots.values() if s.in_memory}


def scan_eviction_candidates(node):
    unpinned = [
        s
        for s in node.slots.values()
        if s.in_memory and s.key not in node.protected and not s.pinned
    ]
    if unpinned:
        return unpinned
    return [
        s for s in node.slots.values() if s.in_memory and s.key not in node.protected
    ]


def identities(slots):
    return [id(s) for s in slots]


def apply(node, step, now):
    op, key, nbytes, in_memory = step
    if op == "put":
        node.put(key, [now], nbytes, now, in_memory=in_memory)
    elif op == "remove":
        node.remove(key)
    elif op == "fail_memory":
        node.fail_memory()
    elif op == "clear":
        node.clear()
    elif op == "protect":
        node.protected ^= {key}
    elif not node.has(key):
        return
    elif op in ("promote", "touch"):
        getattr(node, op)(key, now)
    elif op == "demote":
        node.demote(key)
    else:  # toggle a flag
        slot = node.slot(key)
        flag = "pinned" if op == "pin" else "checkpointed"
        setattr(slot, flag, not getattr(slot, flag))


A, B = ("a", 0), ("b", 0)


@settings(max_examples=600, deadline=None)
@given(st.lists(STEPS, max_size=40))
# the out-of-order cases: a slot re-enters memory at its old position,
# behind memory slots stored after it
@example([("put", A, 5, False), ("put", B, 5, True), ("promote", A, 5, True)])
@example([("put", A, 5, False), ("put", B, 5, True), ("put", A, 7, True)])
@example(
    [
        ("put", A, 5, True),
        ("put", B, 5, True),
        ("checkpoint", A, 5, True),
        ("fail_memory", A, 5, True),
        ("promote", A, 5, True),
        ("put", B, 5, True),
    ]
)
def test_index_matches_full_scan(steps):
    node = Node("w0", 10**9)
    for now, step in enumerate(steps):
        apply(node, step, float(now))
        assert identities(node.in_memory_slots()) == identities(scan_in_memory(node))
        assert node.memory_datasets() == scan_memory_datasets(node)
        assert identities(node.eviction_candidates()) == identities(
            scan_eviction_candidates(node)
        )
        assert node.mem_used == sum(s.nbytes for s in scan_in_memory(node))


def test_clear_empties_node():
    node = Node("w0", 1000)
    node.put(("d", 0), [1], 400, 0.0, in_memory=True)
    node.put(("d", 1), [1], 400, 0.0, in_memory=False)
    node.protected.add(("d", 0))
    seen = []
    node.observer = lambda: seen.append(node.mem_used)
    node.clear()
    assert node.slots == {} and node.protected == set()
    assert node.mem_used == 0 and node.in_memory_slots() == []
    assert seen == [0]
