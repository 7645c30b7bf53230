"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on small shared virtual machines whose CPU speed moves
in phases of tens of seconds.  On a 2-vCPU KVM guest (Xeon, Python 3.11)
a fixed pure-Python loop went from 0.80 s to 1.24 s between phases with no
steal time, and one ts_sweep job from 1.3 s to 2.2 s inside one process.
A run lands in one or two phases, so the raw seconds of the same code
spread by far more than a 25% bound between runs.

Every time metric is therefore reported at a reference host speed: the
raw seconds of a measured unit divided by the host's *slowness*, the mean
of :func:`host_probe` run right before and right after the unit.  The
probe times two fixed pieces of work and averages their ratios to
reference times: pure-Python code that allocates small objects, fills a
dict and a heap and sorts (the kind of work the engine's control plane
does), and numpy matrix products of the shape the MLP trainer runs.  Over
25 back-to-back jobs on the host above, the scaled times varied less than
the raw ones: coefficient of variation 0.146 -> 0.086 for a ts_sweep job
and 0.136 -> 0.093 for a cold dl_session job (the Python part alone:
0.081 and 0.125).  The probe imports nothing from the program, so a slower
program still reads slower.  The raw seconds are printed on the
``raw seconds:`` line before the metrics.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import time
from typing import List

import numpy as np

#: seconds each part of the probe takes on the reference host (the 2-vCPU
#: KVM guest above, in its fast phase); time metrics are reported at the
#: speed these describe
PYTHON_REF_S = 0.045
NUMPY_REF_S = 0.045
#: records the Python part allocates
PYTHON_N = 30_000
#: matrix-product rounds of the numpy part
NUMPY_ROUNDS = 30


class _Rec:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def python_probe_s() -> float:
    """Seconds for the pure-Python part.  The collector is off while it
    runs, so the size of the program's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, heap = {}, []
        for i in range(PYTHON_N):
            rec = _Rec(i % 997, float(i))
            table[(i % 4093, "k")] = rec
            heapq.heappush(heap, (rec.value * 0.5 % 13.0, i))
            if len(heap) > 256:
                heapq.heappop(heap)
        ranked = sorted(table.values(), key=lambda r: (r.key, r.value))
        labels = [f"{r.key}:{r.value!r}" for r in ranked[:2000]]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(labels) != 2000:  # keeps the work live
        raise AssertionError
    return elapsed


_ARRAYS: List[np.ndarray] = []


def _numpy_part() -> float:
    """Seconds for forward and gradient products of a 1000 x 768 batch
    through a 16-unit layer.  The batch is made once and kept, so probing
    during a measured run does not raise the process's peak memory."""
    if not _ARRAYS:
        _ARRAYS.append(np.random.default_rng(0).standard_normal((1000, 768)))
    batch = _ARRAYS[0]
    weights = np.full((768, 16), 0.01)
    start = time.perf_counter()
    for _ in range(NUMPY_ROUNDS):
        hidden = np.maximum(batch @ weights, 0.0)
        weights -= 1e-6 * (batch.T @ hidden)
    return time.perf_counter() - start


def host_probe() -> float:
    """The host's slowness: 1.0 at the reference speed, 2.0 when the probe
    takes twice its reference time."""
    return (python_probe_s() / PYTHON_REF_S + _numpy_part() / NUMPY_REF_S) / 2.0


class HostSpeed:
    """Probes taken between measured units, with the wall-clock time
    (``time.time()``) at which each was taken.

    A closed loop calls :meth:`scale` as each unit ends: it probes and
    returns the factor for that unit, from the probe before it and the one
    just made, which is the next unit's probe before.  An open loop probes
    when it is idle and asks :meth:`factor` for any interval.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.at: List[float] = []
        #: seconds each probe took: time the caller did not measure
        self.probe_s: List[float] = []
        self.probe()

    def probe(self) -> None:
        start = time.time()
        self.probes.append(host_probe())
        self.at.append(time.time())
        self.probe_s.append(self.at[-1] - start)

    def scale(self) -> float:
        self.probe()
        return 2.0 / (self.probes[-2] + self.probes[-1])

    def factor(self, start: float, end: float) -> float:
        """The factor for a unit that ran from ``start`` to ``end``: from
        the last probe that ended before it and the first that ended after
        it (the nearest one when there is none on a side)."""
        before = max(bisect.bisect_left(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return 2.0 / (self.probes[before] + self.probes[after])
