"""Optional numba kernel backend: fused gather+max with in-kernel threading.

One compiled loop replaces the numpy backend's d gathers + d-1
``np.maximum`` passes (uniform degree) or the ``(B*nnz,)`` gather +
``reduceat`` (general CSR): for each row the kernel walks the CSR
neighbor span once and folds the running max straight into ``out``,
with no ``(n, B)``-plane temporaries, and ``prange`` threads over rows
*inside* the single kernel call.  The union-stack layout — one big
d-regular CSR — compiles as-is.

The import is guarded: without numba the module still imports (``prange``
aliases ``range`` and the kernels stay pure Python), so the backend's
logic is fully testable on numba-less runners by monkeypatching
``NUMBA_AVAILABLE``; only :func:`repro.sim.backends.resolve_backend`'s
availability gate decides whether the backend is ever selected for real.

Dtype support is int8/int16/int32/int64 — every rung of the engines'
state-dtype ladder (see :mod:`repro.core.batch`); the loops are generic,
so numba compiles one specialization per dtype on first use.  Anything
else falls back to the numpy backend per call, with a one-time warning
per dtype — integer max is exact, so the fallback is bit-for-bit
identical.
The ``(B, n)`` tiled-``reduceat`` layout (``neighbor_max_batch``) always
delegates to numpy: no engine hot path uses it, and the stacked layout is
where fusion pays.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .base import BackendUnavailableError
from .numpy_backend import NumpyBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..._types import AnyArray
    from ..flood import FloodKernel

__all__ = ["NUMBA_AVAILABLE", "NumbaBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:
    njit = None
    prange = range
    NUMBA_AVAILABLE = False


def _jit(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Compile ``fn`` when numba is present; keep it pure Python otherwise.

    The kernels are written once, in nopython-compatible Python, so the
    uncompiled functions compute the exact same result — that is what the
    monkeypatched-availability tests run.
    """
    if NUMBA_AVAILABLE:  # pragma: no cover - compiled path needs numba
        return njit(parallel=True, cache=True)(fn)
    return fn


@_jit
def _flat_csr(
    sent: AnyArray, indptr: AnyArray, indices: AnyArray, out: AnyArray
) -> None:
    """1-D neighbor-max: ``out[v] = max(sent[u] for u in N(v))``."""
    n = out.shape[0]
    for v in prange(n):
        lo = indptr[v]
        hi = indptr[v + 1]
        best = sent[indices[lo]]
        for e in range(lo + 1, hi):
            u = indices[e]
            if sent[u] > best:
                best = sent[u]
        out[v] = best


@_jit
def _stacked_csr(
    values: AnyArray, indptr: AnyArray, indices: AnyArray, out: AnyArray
) -> None:
    """Fused gather+max over an ``(n, B)`` trials-as-columns matrix.

    Covers the uniform-degree and general CSR layouts alike: row ``v``'s
    neighbor span is walked once, the first neighbor initializes
    ``out[v]``, and every further neighbor folds in with a branch-free
    running max over the B contiguous column values.
    """
    n = out.shape[0]
    b = out.shape[1]
    for v in prange(n):
        lo = indptr[v]
        hi = indptr[v + 1]
        u = indices[lo]
        for j in range(b):
            out[v, j] = values[u, j]
        for e in range(lo + 1, hi):
            u = indices[e]
            for j in range(b):
                if values[u, j] > out[v, j]:
                    out[v, j] = values[u, j]


#: Engine state dtypes the compiled kernels are specialized for: the
#: whole int8 -> int16 -> int32 -> int64 ladder.
_SUPPORTED_DTYPES = frozenset(
    np.dtype(dt) for dt in (np.int8, np.int16, np.int32, np.int64)
)


class NumbaBackend:
    """``@njit(parallel=True, cache=True)`` fused gather+max kernels."""

    name = "numba"

    def __init__(self) -> None:
        if not NUMBA_AVAILABLE:
            raise BackendUnavailableError(
                "numba is not installed; the 'numba' kernel backend is "
                "unavailable (install numba or use backend='numpy'/'auto')"
            )
        self._numpy = NumpyBackend()
        self._warned_dtypes: set[str] = set()

    def _supported(self, values: AnyArray) -> bool:
        if values.dtype in _SUPPORTED_DTYPES:
            return True
        key = values.dtype.name
        if key not in self._warned_dtypes:
            self._warned_dtypes.add(key)
            warnings.warn(
                f"numba kernel backend does not support dtype {key}; "
                "falling back to the numpy backend for these calls",
                RuntimeWarning,
                stacklevel=4,
            )
        return False

    def neighbor_max(
        self, kernel: FloodKernel, sent: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        sent = np.ascontiguousarray(sent)
        if not self._supported(sent):
            return self._numpy.neighbor_max(kernel, sent, out)
        if (
            out is None
            or out.dtype != sent.dtype
            or not out.flags["C_CONTIGUOUS"]
            or np.may_share_memory(out, sent)
        ):
            buf = np.empty(kernel.n, dtype=sent.dtype)
            _flat_csr(sent, kernel.indptr, kernel.indices, buf)
            if out is not None:
                np.copyto(out, buf)
                return out
            return buf
        _flat_csr(sent, kernel.indptr, kernel.indices, out)
        return out

    def neighbor_max_batch(
        self, kernel: FloodKernel, sent: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        # The (B, n) tiled-reduceat layout has no compiled variant; the
        # engines' hot path is the stacked layout below.
        return self._numpy.neighbor_max_batch(kernel, sent, out)

    def neighbor_max_stacked(
        self, kernel: FloodKernel, values: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        values = np.ascontiguousarray(values)
        if not self._supported(values):
            return self._numpy.neighbor_max_stacked(kernel, values, out)
        if (
            out is None
            or out.dtype != values.dtype
            or not out.flags["C_CONTIGUOUS"]
            or np.may_share_memory(out, values)
        ):
            buf = np.empty(values.shape, dtype=values.dtype)
            _stacked_csr(values, kernel.indptr, kernel.indices, buf)
            if out is not None:
                np.copyto(out, buf)
                return out
            return buf
        _stacked_csr(values, kernel.indptr, kernel.indices, out)
        return out
