"""The engine's data plane: who runs the *real* operator work.

The engine keeps two strictly separated planes:

* the **control plane** — scheduling, cost accounting, trace emission and
  the simulated clock — is what every simulated number and trace byte is
  derived from;
* the **data plane** — the actual Python execution of operator functions
  over partition payloads — is pure (``nominal bytes in → nominal bytes
  out`` never depends on payload values), so it cannot be observed by the
  cost model.

The executor charges every cost and emits every trace event *before*
handing payloads to :class:`SerialBackend`, in the calling process.  The
paper's parallelism (SEEP's cluster workers) is modelled on the simulated
clock, not by running operators in other processes.  ``run_mdf(backend=)``
accepts an instance (or subclass) so callers can observe the data plane.
"""

from __future__ import annotations

from typing import Any, List

from ..core.operators import Operator

__all__ = ["SerialBackend"]


class SerialBackend:
    """Runs every operator in-process, partition by partition, in order."""

    def map_chain(self, ops: List[Operator], payloads: List[Any]) -> List[Any]:
        """Apply a narrow operator chain to each payload, preserving order."""
        out: List[Any] = []
        for payload in payloads:
            cur = payload
            for op in ops:
                cur = op.apply_partition(cur)
            out.append(cur)
        return out

    def run_global(self, op: Operator, payloads: List[Any]) -> List[Any]:
        """Run a wide head's global computation over all partitions."""
        return op.apply_global(payloads)

    def run_join(self, op: Operator, left: Any, right: Any) -> Any:
        """Run a join head over the gathered operand payloads."""
        return op.apply_join(left, right)

    def close(self) -> None:
        """Release resources; the serial data plane holds none."""
