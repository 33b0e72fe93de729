"""Continuous estimation service: resident engine + asyncio query front.

The batch layer (:mod:`repro.core.batch`) answers "run B trials now";
this package answers "keep answering size queries forever while the
overlays churn".  Three pieces:

* :class:`ChurnDelta` — pure-data description of one membership change
  (which ids leave, how many join);
* :class:`ResidentEngine` — keeps graphs
  (:class:`repro.graphs.delta.ResidentGraph`), flood kernels, and
  union-stack payloads cached across epochs; a delta splices the
  Hamiltonian cycles, rebuilds the CSR from them, and invalidates only
  the caches that contained the mutated overlay.  Every estimation path
  delegates to the stock batch entry points, so results stay
  bit-for-bit equal to cold per-epoch runs;
* :class:`EstimationService` — bounded-queue asyncio front fusing
  concurrent size queries into batched engine rounds, with churn
  commands as ordering barriers and a draining ``aclose()``.

See CONTRIBUTING.md ("Continuous estimation service") for the cache
invalidation rules and delta semantics.
"""

from .delta import ChurnDelta
from .engine import ResidentEngine, SizeQuery
from .front import EstimationService

__all__ = [
    "ChurnDelta",
    "EstimationService",
    "ResidentEngine",
    "SizeQuery",
]
