"""Selection functions for choose operators (Definition 3.3, Table 1).

A selection function ``ρ_v : (D × R)^i -> D`` picks the datasets of a subset
of branches based on their evaluator scores.  The paper lists the common
functions and two properties that unlock optimisations (Table 1):

* ``associative`` — the selection can be evaluated incrementally, branch by
  branch, so losing datasets are discarded the moment they lose
  (*incremental discard*);
* ``non_exhaustive`` — a valid subset can be selected without seeing all
  scores, so once the subset is complete the not-yet-executed branches are
  skipped entirely (*superfluous-branch pruning*).

Each selection function exposes a batch API (:meth:`select`) and an
incremental API (:meth:`incremental` returning an
:class:`IncrementalSelector`), the latter being what branch-aware scheduling
drives.  The incremental selector reports, after each offered score, which
branches are definitively discarded and whether the selection is already
complete.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

Score = float
BranchId = str


class IncrementalDecision:
    """Outcome of offering one branch score to an incremental selector.

    Attributes
    ----------
    discarded:
        Branch ids whose datasets are now known to lose and can be freed —
        possibly including previously kept branches that were knocked out.
    done:
        True when the selection is complete and all not-yet-offered branches
        are superfluous (non-exhaustive selections only).
    """

    __slots__ = ("discarded", "done")

    def __init__(self, discarded: Optional[Set[BranchId]] = None, done: bool = False):
        self.discarded = discarded or set()
        self.done = done

    def __repr__(self) -> str:  # pragma: no cover
        return f"IncrementalDecision(discarded={sorted(self.discarded)}, done={self.done})"


class IncrementalSelector:
    """Stateful incremental evaluation of a selection function.

    Subclasses implement :meth:`offer`; :meth:`finalize` returns the kept
    branch ids once every (non-pruned) branch was offered.
    """

    def offer(self, branch_id: BranchId, score: Score) -> IncrementalDecision:
        raise NotImplementedError

    def finalize(self) -> List[BranchId]:
        raise NotImplementedError


class SelectionFunction:
    """Base class for all selection functions.

    ``associative`` and ``non_exhaustive`` are the Table 1 property flags.
    ``ranked`` marks selections whose kept *order* is meaningful (top-k's
    best-first ranking); unranked selections keep a plain set, and the
    engine presents it in branch-domain order so the choose output is
    independent of the evaluation order the scheduler happened to pick.
    """

    associative: bool = True
    non_exhaustive: bool = False
    ranked: bool = False

    def select(self, scored: Sequence[Tuple[BranchId, Score]]) -> List[BranchId]:
        """Batch selection: returns the kept branch ids, in offer order."""
        selector = self.incremental()
        alive: Dict[BranchId, None] = {}
        for branch_id, score in scored:
            decision = selector.offer(branch_id, score)
            alive[branch_id] = None
            for discarded in decision.discarded:
                alive.pop(discarded, None)
            if decision.done:
                break
        kept = set(selector.finalize())
        return [b for b in alive if b in kept]

    def incremental(self) -> IncrementalSelector:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return type(self).__name__


# --------------------------------------------------------------------- top-k


class _TopKSelector(IncrementalSelector):
    def __init__(self, k: int, largest: bool):
        self.k = k
        self.largest = largest
        self.kept: List[Tuple[Score, BranchId]] = []  # sorted best-first

    def offer(self, branch_id: BranchId, score: Score) -> IncrementalDecision:
        self.kept.append((score, branch_id))
        self.kept.sort(key=lambda t: t[0], reverse=self.largest)
        if len(self.kept) <= self.k:
            return IncrementalDecision()
        dropped_score, dropped_id = self.kept.pop()
        return IncrementalDecision(discarded={dropped_id})

    def finalize(self) -> List[BranchId]:
        return [b for _, b in self.kept]


class TopK(SelectionFunction):
    """Keeps the ``k`` branches with the best scores.

    Associative (a running top-k is maintained and losers are discarded
    immediately) but exhaustive: every branch must be scored before the
    final top-k is known.  ``largest=True`` keeps the highest scores.
    """

    ranked = True
    associative = True
    non_exhaustive = False

    def __init__(self, k: int, largest: bool = True):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.largest = largest

    def incremental(self) -> IncrementalSelector:
        return _TopKSelector(self.k, self.largest)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TopK(k={self.k}, largest={self.largest})"


class Max(TopK):
    """Keeps the single branch with the highest score."""

    def __init__(self):
        super().__init__(k=1, largest=True)


class Min(TopK):
    """Keeps the single branch with the lowest score."""

    def __init__(self):
        super().__init__(k=1, largest=False)


# ----------------------------------------------------------------- threshold


class _PredicateSelector(IncrementalSelector):
    def __init__(self, accept, limit: Optional[int] = None):
        self.accept = accept
        self.limit = limit
        self.kept: List[BranchId] = []

    def offer(self, branch_id: BranchId, score: Score) -> IncrementalDecision:
        if self.limit is not None and len(self.kept) >= self.limit:
            return IncrementalDecision(discarded={branch_id}, done=True)
        if self.accept(score):
            self.kept.append(branch_id)
            done = self.limit is not None and len(self.kept) >= self.limit
            return IncrementalDecision(done=done)
        return IncrementalDecision(discarded={branch_id})

    def finalize(self) -> List[BranchId]:
        return list(self.kept)


class Threshold(SelectionFunction):
    """Keeps every branch whose score is above (or below) a threshold.

    Each branch decision is independent, so the function is associative:
    losers are discarded as soon as they are scored.  It is exhaustive —
    all branches must still be scored, because every passing branch is kept.
    """

    associative = True
    non_exhaustive = False

    def __init__(self, threshold: float, above: bool = True):
        self.threshold = threshold
        self.above = above

    def _accept(self, score: Score) -> bool:
        return score >= self.threshold if self.above else score <= self.threshold

    def incremental(self) -> IncrementalSelector:
        return _PredicateSelector(self._accept)

    def __repr__(self) -> str:  # pragma: no cover
        op = ">=" if self.above else "<="
        return f"Threshold(score {op} {self.threshold})"


class Interval(SelectionFunction):
    """Keeps every branch whose score falls inside ``[low, high]``."""

    associative = True
    non_exhaustive = False

    def __init__(self, low: float, high: float):
        if low > high:
            raise ValueError("interval low must be <= high")
        self.low = low
        self.high = high

    def _accept(self, score: Score) -> bool:
        return self.low <= score <= self.high

    def incremental(self) -> IncrementalSelector:
        return _PredicateSelector(self._accept)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Interval([{self.low}, {self.high}])"


class KThreshold(Threshold):
    """Keeps the *first* ``k`` branches whose score passes the threshold.

    Non-exhaustive: once ``k`` branches pass, the remaining branches —
    executed or not — are superfluous and can be skipped (Table 1).
    """

    associative = True
    non_exhaustive = True

    def __init__(self, k: int, threshold: float, above: bool = True):
        super().__init__(threshold, above)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def incremental(self) -> IncrementalSelector:
        return _PredicateSelector(self._accept, limit=self.k)

    def __repr__(self) -> str:  # pragma: no cover
        op = ">=" if self.above else "<="
        return f"KThreshold(first {self.k} with score {op} {self.threshold})"


class KInterval(Interval):
    """Keeps the first ``k`` branches whose score falls inside the interval."""

    associative = True
    non_exhaustive = True

    def __init__(self, k: int, low: float, high: float):
        super().__init__(low, high)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def incremental(self) -> IncrementalSelector:
        return _PredicateSelector(self._accept, limit=self.k)

    def __repr__(self) -> str:  # pragma: no cover
        return f"KInterval(first {self.k} in [{self.low}, {self.high}])"


# ---------------------------------------------------------------------- mode


class _ModeSelector(IncrementalSelector):
    def __init__(self, precision: int):
        self.precision = precision
        self.scores: List[Tuple[BranchId, Score]] = []

    def offer(self, branch_id: BranchId, score: Score) -> IncrementalDecision:
        self.scores.append((branch_id, round(score, self.precision)))
        return IncrementalDecision()  # mode can never discard early

    def finalize(self) -> List[BranchId]:
        if not self.scores:
            return []
        counts = Counter(score for _, score in self.scores)
        mode_score, _ = counts.most_common(1)[0]
        return [b for b, s in self.scores if s == mode_score]


class Mode(SelectionFunction):
    """Keeps the branches whose score equals the most frequent score.

    The mode is *not* associative (Table 1): no branch can be discarded
    before all scores are known, so neither incremental discard nor
    superfluous-branch pruning applies.
    """

    associative = False
    non_exhaustive = False

    def __init__(self, precision: int = 9):
        self.precision = precision

    def incremental(self) -> IncrementalSelector:
        return _ModeSelector(self.precision)
