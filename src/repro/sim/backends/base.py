"""Kernel-backend protocol for the flood kernels.

A backend supplies the *compute* behind
:class:`repro.sim.flood.FloodKernel`'s per-round reductions.  The kernel
object keeps the layout state — CSR arrays, uniform-degree metadata,
cached tiled gather plans — and validates shapes; each public method then
dispatches to its backend, which receives the kernel instance plus the
value arrays.  Two implementations ship:

* ``numpy`` (:mod:`.numpy_backend`) — the default: fancy-index gathers
  plus segmented ``reduceat`` reductions (general CSR); on uniform degree,
  one ``np.take`` of every neighbor slot into a cached scratch when a
  state row is at most 32 bytes, else per-neighbor-slot row gathers.
  Always available.
* ``numba`` (:mod:`.numba_backend`) — optional: a single fused gather+max
  loop compiled with ``@njit(parallel=True, cache=True)``, threading over
  rows *inside* one kernel call, with no ``(n, B)``-plane temporaries.
  Guarded import; unsupported dtypes fall back to numpy per call.

Backends are **bit-for-bit interchangeable**: integer max-flooding is
exact and order-independent, so every backend must return identical
arrays for identical inputs.  The contract is enforced by the 5-engine
equivalence grid (``tests/integration/test_engine_equivalence.py``) and
the state-dtype ladder properties
(``tests/property/test_dtype_ladder_properties.py``), which CI runs under
every available backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from ..._types import AnyArray
    from ..flood import FloodKernel

__all__ = ["BackendUnavailableError", "KernelBackend"]


class BackendUnavailableError(RuntimeError):
    """A shipped backend cannot run in this environment.

    Raised by constructing :class:`~.numba_backend.NumbaBackend` directly
    without numba installed.  :func:`repro.sim.backends.resolve_backend`
    never raises this — it falls back to numpy with a one-time warning.
    """


@runtime_checkable
class KernelBackend(Protocol):
    """Compute provider behind :class:`repro.sim.flood.FloodKernel`.

    Implementations are stateless apart from memoization/warning caches,
    so one instance per backend name is shared by every kernel (see
    :func:`repro.sim.backends.resolve_backend`).  ``kernel`` gives access to
    the CSR layout (``indptr``/``indices``), the row count ``n``, the
    uniform-degree fast-path metadata, and the cached gather plans.
    """

    #: Name of the backend ("numpy" or "numba").
    name: str

    def neighbor_max(
        self, kernel: FloodKernel, sent: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        """``out[v] = max(sent[u] for u in N(v))`` over a 1-D value array."""
        ...

    def neighbor_max_batch(
        self, kernel: FloodKernel, sent: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        """Row-wise neighbor-max over a ``(B, n)`` value matrix."""
        ...

    def neighbor_max_stacked(
        self, kernel: FloodKernel, values: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        """Neighbor-max over an ``(n, B)`` trials-as-columns matrix.

        Must handle both the uniform-degree layout and the general CSR
        layout, for every integer dtype of the engines' state ladder
        (int8, int16, int32, int64) — the result keeps ``values``' dtype.
        ``out`` (when given) never aliases ``values`` at engine call
        sites, but implementations must stay correct under aliasing
        (gather into a buffer ``out`` does not share, then reduce or
        copy).  Per-kernel scratch lives on the kernel object and is
        dropped by :meth:`~repro.sim.flood.FloodKernel.invalidate_plans`.
        """
        ...
