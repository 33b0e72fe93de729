"""Kernel-backend protocol for the flood kernels.

A backend supplies the *compute* behind
:meth:`repro.sim.flood.FloodKernel.neighbor_max_stacked`, the batched
engines' per-round neighbor-max.  The kernel object keeps the layout
state — the d-regular CSR, its degree, the cached gather plan — and
validates shapes; the backend receives the kernel instance plus the value
matrix.  Two implementations ship:

* ``numpy`` (:mod:`.numpy_backend`) — the default: runs of one slot-major
  ``np.take`` of every neighbor slot into a cached scratch, each reduced
  by one ``max`` over the slot axis.  Always available.
* ``numba`` (:mod:`.numba_backend`) — optional: a single fused gather+max
  loop compiled with ``@njit(parallel=True, cache=True)``, threading over
  rows *inside* one kernel call, with no ``(d, n, B)`` scratch.  Guarded
  import; unsupported dtypes fall back to numpy per call.

The scalar kernel, :meth:`~repro.sim.flood.FloodKernel.neighbor_max`, is
not a backend method: it is one segmented ``reduceat`` on every backend.

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
    uniform degree, and the cached gather plan.
    """

    #: Name of the backend ("numpy" or "numba").
    name: str

    def neighbor_max_stacked(
        self, kernel: FloodKernel, values: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        """Neighbor-max over an ``(n, B)`` trials-as-columns matrix.

        The kernel's CSR has one degree ``d >= 1`` at every node.  Must
        handle every integer dtype of the engines' state ladder (int8,
        int16, int32, int64) — the result keeps ``values``' dtype.
        ``out`` (when given) never aliases ``values`` at engine call
        sites, but implementations must stay correct under aliasing
        (gather into a buffer ``out`` does not share, then reduce or
        copy).  Per-kernel scratch lives on the kernel object and is
        dropped by :meth:`~repro.sim.flood.FloodKernel.invalidate_plans`.
        """
        ...
