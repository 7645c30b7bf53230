"""Memory management policies: LRU baseline and AMM (Algorithm 2).

When a node exhausts its memory, the policy picks the partition to evict.

* :class:`LRUPolicy` — evicts the least-recently-used partition, the policy
  of existing systems (Spark) the paper compares against.
* :class:`AMMPolicy` — anticipatory memory management: ranks each in-memory
  partition by the preference ``pre(d) = acc(d) · δ(n, d) · α`` where
  ``acc(d)`` is the number of *future* accesses the MDF structure implies
  (consumers of ``pro(d)`` not yet executed, minus pruned branches),
  ``δ(n, d)`` is the partition's size at the node, and ``α`` the hardware
  disk/memory cost ratio.  The partition with the lowest preference is
  evicted.

Two degenerate variants (:class:`AccessOnlyPolicy`, :class:`SizeOnlyPolicy`)
isolate the contribution of each factor in the preference formula — the
ablation DESIGN.md §5 calls out.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from .node import Node, Slot

AccessCounter = Callable[[str], int]  # dataset_id -> remaining future accesses


class _GenericEvictionRound:
    """Per-eviction re-ranking, exactly as the historical eviction loop.

    Used for policies that override ``select_victim``/``ranking_snapshot``
    (including the deliberately-broken ones the validator tests ship): each
    :meth:`pop` re-runs both over the remaining candidates, so any custom
    behaviour — sound or not — is preserved observably unchanged.
    """

    def __init__(self, policy: "MemoryPolicy", node: Node, candidates: List[Slot]):
        self._policy = policy
        self._node = node
        self._candidates = list(candidates)

    def pop(self) -> Tuple[Optional[Slot], Optional[List[Dict[str, Any]]]]:
        if not self._candidates:
            return None, None
        victim = self._policy.select_victim(self._node, self._candidates)
        ranking = self._policy.ranking_snapshot(self._candidates)
        self._candidates.remove(victim)
        return victim, ranking


class _RankedEvictionRound:
    """Heap-ordered victims over one precomputed ranking pass.

    Within one ``_ensure_space`` call nothing that feeds the ranking can
    change — ``acc`` (the master mutates consumers only between stages),
    ``last_access`` (no loads happen mid-store) and sizes are all frozen —
    so a round ranks once and victims pop off a heap in ``O(log n)``.
    Each event's ranking snapshot is the surviving candidates in their
    original (node-store) order, exactly what a fresh
    ``ranking_snapshot`` over fresh ``eviction_candidates`` would have
    produced.  On the paper workloads a store usually needs one victim,
    so a round rarely pops twice; what makes repeated rounds cheap is the
    per-slot entry reuse in :meth:`MemoryPolicy._memo_round`.  The
    first snapshot is the entries list itself: the round never mutates
    it, and the trace may keep it.
    """

    def __init__(
        self,
        candidates: List[Slot],
        entries: List[Dict[str, Any]],
        order_keys: List[Any],
    ):
        # order keys end in the slot key, so they are unique per node and
        # a popped key finds its candidate by identity in ``_keys``
        self._slots = list(candidates)
        self._entries = entries
        self._keys = order_keys
        self._heap = list(order_keys)
        heapq.heapify(self._heap)
        self._alive: Optional[List[bool]] = None  # all alive before a pop

    def pop(self) -> Tuple[Optional[Slot], Optional[List[Dict[str, Any]]]]:
        if not self._heap:
            return None, None
        i = self._keys.index(heapq.heappop(self._heap))
        if self._alive is None:
            ranking = self._entries
            self._alive = [True] * len(self._entries)
        else:
            ranking = [e for e, alive in zip(self._entries, self._alive) if alive]
        self._alive[i] = False
        return self._slots[i], ranking


class MemoryPolicy:
    """Strategy deciding which in-memory partition a node evicts."""

    name = "base"

    def select_victim(self, node: Node, candidates: List[Slot]) -> Slot:
        raise NotImplementedError

    def bind(self, access_counter: Optional[AccessCounter], alpha: float) -> None:
        """Called by the engine before execution with workflow context.

        The default implementation ignores the context; AMM stores it.
        """

    def should_spill(self, slot: Slot) -> bool:
        """Whether an evicted partition must be written to disk.

        Workflow-oblivious policies cannot tell dead data from live data,
        so they always pay the spill.  AMM knows from the MDF structure
        when a dataset has no future readers (``acc = 0``) and drops it
        for free instead — requirement R4 in action.
        """
        return True

    def ranking_snapshot(self, candidates: List[Slot]) -> List[Dict[str, Any]]:
        """What this policy ranked an eviction's candidates by.

        Recorded into every ``partition_evicted`` trace event so invariant
        validators can re-derive the decision.  Workflow-oblivious policies
        only expose recency; AMM overrides this to expose the full
        ``pre(d)`` inputs.
        """
        return [_recency_entry(slot) for slot in candidates]

    def _memo_round(
        self,
        candidates: List[Slot],
        token: Any,
        access_counter: Optional[AccessCounter],
        build: Callable[[Slot, Optional[int]], Tuple[Dict[str, Any], Any]],
    ) -> _RankedEvictionRound:
        """A ranked round that reuses each slot's cached entry and order key.

        ``build(slot, acc)`` makes a candidate's ``(entry, order_key)``; the
        pair is cached on the slot (``Slot.rank_memo``) and reused while the
        slot object, ``acc(d)`` and ``last_access`` are unchanged and
        ``token`` (this policy's binding) is the same, so an unchanged
        candidate shares one entry dict across every eviction that ranks
        it.  Entries are never mutated once built: the trace holds them.
        ``acc`` cannot change within a round, so it is looked up once per
        dataset.
        """
        entries: List[Dict[str, Any]] = []
        keys: List[Any] = []
        accs: Dict[str, Optional[int]] = {}
        for slot in candidates:
            dataset = slot.key[0]
            if dataset in accs:
                acc = accs[dataset]
            else:
                acc = accs[dataset] = (
                    access_counter(dataset) if access_counter is not None else None
                )
            memo = slot.rank_memo
            # identity for last_access: a touch rebinds it.  acc must also
            # match in type, since 1 and 1.0 serialise differently
            if (
                memo is None
                or memo[0] is not token
                or memo[2] is not slot.last_access
                or not (memo[1] is acc or (memo[1] == acc and type(memo[1]) is type(acc)))
            ):
                entry, key = build(slot, acc)
                memo = slot.rank_memo = (token, acc, slot.last_access, entry, key)
            entries.append(memo[3])
            keys.append(memo[4])
        return _RankedEvictionRound(candidates, entries, keys)

    def eviction_round(self, node: Node, candidates: List[Slot]):
        """Victim iterator for one ``_ensure_space`` call.

        Returns an object whose ``pop()`` yields ``(victim, ranking)``
        pairs until the candidates run dry (``(None, None)``).  The base
        implementation re-ranks per eviction — byte-identical to the
        historical loop for any subclass; LRU/AMM override it with a
        single-pass ranked round when their stock ranking is in effect.
        """
        return _GenericEvictionRound(self, node, candidates)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class LRUPolicy(MemoryPolicy):
    """Least-recently-used eviction (the Spark/Tachyon baseline)."""

    name = "lru"

    def select_victim(self, node: Node, candidates: List[Slot]) -> Slot:
        return min(candidates, key=lambda s: (s.last_access, s.key))

    def eviction_round(self, node: Node, candidates: List[Slot]):
        if (
            type(self).select_victim is not LRUPolicy.select_victim
            or type(self).ranking_snapshot is not MemoryPolicy.ranking_snapshot
        ):
            return super().eviction_round(node, candidates)
        return self._memo_round(candidates, self, None, _lru_rank)


class AMMPolicy(MemoryPolicy):
    """Anticipatory memory management (Algorithm 2).

    ``pre(d) = acc(d) · δ(n, d) · α``; the slot with the lowest preference
    is evicted.  Ties break towards least-recently-used so behaviour is
    deterministic and degrades gracefully to LRU when the MDF provides no
    signal (all counts equal).
    """

    name = "amm"

    def __init__(self):
        self._access_counter: Optional[AccessCounter] = None
        self._alpha: float = 1.0
        #: identifies the binding cached ranking entries were built under
        self._rank_token = object()

    def bind(self, access_counter: Optional[AccessCounter], alpha: float) -> None:
        self._access_counter = access_counter
        self._alpha = alpha
        self._rank_token = object()

    def preference(self, slot: Slot) -> float:
        """The keep-in-memory preference ``pre(d)`` of one partition."""
        acc = 1
        if self._access_counter is not None:
            acc = self._access_counter(slot.dataset_id)
        return acc * slot.nbytes * self._alpha

    def select_victim(self, node: Node, candidates: List[Slot]) -> Slot:
        return min(candidates, key=lambda s: (self.preference(s), s.last_access, s.key))

    def should_spill(self, slot: Slot) -> bool:
        if self._access_counter is None:
            return True
        return self._access_counter(slot.dataset_id) > 0

    def ranking_snapshot(self, candidates: List[Slot]) -> List[Dict[str, Any]]:
        """The full ``pre(d) = acc(d)·δ(n,d)·α`` inputs per candidate."""
        out: List[Dict[str, Any]] = []
        for slot in candidates:
            acc = (
                self._access_counter(slot.dataset_id)
                if self._access_counter is not None
                else None
            )
            out.append(_amm_entry(slot, acc, self.preference(slot)))
        return out

    def _memo_rank(self, slot: Slot, acc: Optional[int]) -> Tuple[Dict[str, Any], Any]:
        # the stock preference, from the acc already looked up
        pre = (1 if acc is None else acc) * slot.nbytes * self._alpha
        return _amm_entry(slot, acc, pre), (pre, slot.last_access, slot.key)

    def eviction_round(self, node: Node, candidates: List[Slot]):
        if (
            type(self).select_victim is not AMMPolicy.select_victim
            or type(self).ranking_snapshot is not AMMPolicy.ranking_snapshot
        ):
            return super().eviction_round(node, candidates)
        if type(self).preference is AMMPolicy.preference:
            return self._memo_round(
                candidates, self._rank_token, self._access_counter, self._memo_rank
            )
        # an ablation's own pre(d): one ranking pass feeds both the heap
        # order and every event's snapshot, without entry reuse
        entries = self.ranking_snapshot(candidates)
        keys = [
            (entry["pre"], slot.last_access, slot.key)
            for slot, entry in zip(candidates, entries)
        ]
        return _RankedEvictionRound(candidates, entries, keys)

    def preference_order(self, node: Node) -> List[Slot]:
        """All in-memory slots ordered by rising preference (eviction order).

        This is the list the master ships to workers with each scheduling
        decision in the paper's implementation (§5).  The decorate-sort
        computes ``pre(d)`` once per slot (``acc`` lookups are the costly
        part on large nodes) instead of once per comparison.
        """
        decorated = [
            (self.preference(s), s.last_access, s.key, s)
            for s in node.in_memory_slots()
        ]
        decorated.sort(key=lambda d: d[:3])
        return [d[3] for d in decorated]


def _recency_entry(slot: Slot) -> Dict[str, Any]:
    return {
        "dataset": slot.dataset_id,
        "index": slot.key[1],
        "nbytes": slot.nbytes,
        "last_access": slot.last_access,
    }


def _lru_rank(slot: Slot, acc: None) -> Tuple[Dict[str, Any], Any]:
    return _recency_entry(slot), (slot.last_access, slot.key)


def _amm_entry(slot: Slot, acc: Optional[int], pre: float) -> Dict[str, Any]:
    entry = _recency_entry(slot)
    entry["acc"] = acc
    entry["pre"] = pre
    return entry


class AccessOnlyPolicy(AMMPolicy):
    """Ablation: AMM preference reduced to the future-access count only."""

    name = "amm-access-only"

    def preference(self, slot: Slot) -> float:
        acc = 1
        if self._access_counter is not None:
            acc = self._access_counter(slot.dataset_id)
        return float(acc)


class SizeOnlyPolicy(AMMPolicy):
    """Ablation: AMM preference reduced to partition size only."""

    name = "amm-size-only"

    def preference(self, slot: Slot) -> float:
        return float(slot.nbytes)


#: Public alias for the eviction seam: a memory policy *is* the eviction
#: policy (``select_victim`` + ``should_spill`` + ``ranking_snapshot``).
EvictionPolicy = MemoryPolicy

# ------------------------------------------------------------------ registry

#: name -> factory() -> MemoryPolicy.  Mirrors the scheduler registry in
#: :mod:`repro.engine.policies`; factories return a fresh instance per
#: call (policies hold per-run bindings via :meth:`MemoryPolicy.bind`).
EVICTION_POLICIES: Dict[str, Callable[[], MemoryPolicy]] = {}


def register_eviction_policy(
    name: str, factory: Callable[[], MemoryPolicy]
) -> None:
    """Register an eviction policy under ``name`` for string resolution."""
    if name in EVICTION_POLICIES:
        raise ValueError(f"eviction policy {name!r} already registered")
    EVICTION_POLICIES[name] = factory


def available_policies() -> List[str]:
    """Registered eviction-policy names, sorted."""
    return sorted(EVICTION_POLICIES)


def make_policy(name: str) -> MemoryPolicy:
    """Resolve an eviction-policy name to a fresh instance.

    Used by ``run_mdf(memory=...)``, the benchmarks and the policy lab;
    any name added via :func:`register_eviction_policy` resolves here.
    """
    try:
        factory = EVICTION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown memory policy {name!r} (registered: {available_policies()})"
        ) from None
    return factory()


register_eviction_policy("lru", LRUPolicy)
register_eviction_policy("amm", AMMPolicy)
register_eviction_policy("amm-access-only", AccessOnlyPolicy)
register_eviction_policy("amm-size-only", SizeOnlyPolicy)
