"""Default numpy kernel backend: gather + segmented/slot-wise reductions.

This is the original :class:`repro.sim.flood.FloodKernel` compute,
extracted behind the :class:`~.base.KernelBackend` protocol.  Shape
validation stays in the kernel wrappers; these methods receive
already-validated arrays plus the kernel instance for its CSR layout and
cached gather plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..._types import AnyArray
    from ..flood import FloodKernel

__all__ = ["NumpyBackend"]

#: Widest ``(n, B)`` row, in bytes, that the uniform-degree path gathers
#: with one ``np.take`` over every neighbor slot.  The take needs a
#: ``degree * n``-row scratch, so the cap bounds it at ``32 * degree * n``
#: bytes (0.8 MB at n = 3072, d = 8); wider rows (int32 state past
#: ``B = 8``) gather slot by slot into ``(n, B)`` temporaries instead.
#: Every engine state of the benchmarked workloads fits under the cap.
ONE_TAKE_MAX_ROW_BYTES = 32


class NumpyBackend:
    """Fancy-index gathers + ``reduceat`` / one-take or per-slot max passes."""

    name = "numpy"

    def neighbor_max(
        self, kernel: FloodKernel, sent: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        gathered = sent[kernel.indices]
        result = np.maximum.reduceat(gathered, kernel._starts)
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def neighbor_max_batch(
        self, kernel: FloodKernel, sent: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        batch = sent.shape[0]
        gather_idx, starts = kernel._batch_plan(batch)
        gathered = np.ascontiguousarray(sent).reshape(-1)[gather_idx]
        result = np.maximum.reduceat(gathered, starts).reshape(batch, kernel.n)
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def neighbor_max_stacked(
        self, kernel: FloodKernel, values: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        """Neighbor-max over ``(n, B)`` state, in ``values``' own dtype.

        Uniform degree ``d``: a row of at most
        :data:`ONE_TAKE_MAX_ROW_BYTES` bytes (int8 state up to ``B = 32``,
        int32 up to ``B = 8``) is gathered for all ``d`` slots by one
        ``np.take`` into the kernel's cached ``(d * n, B)`` scratch and
        reduced by one ``max(axis=0)`` over the ``(d, n, B)`` stack; wider
        rows take ``d`` per-slot row gathers folded with in-place
        ``np.maximum``.  Other graphs use the tiled ``reduceat`` layout.
        """
        if not kernel._uniform_degree:
            # General CSR: transpose into the (B, n) tiled-reduceat layout
            # and back out.  The transposes copy, so `result` never aliases
            # `values` and the copyto below is always safe.
            result = self.neighbor_max_batch(
                kernel, np.ascontiguousarray(values.T)
            ).T
            if out is not None:
                np.copyto(out, result)
                return out
            return np.ascontiguousarray(result)
        degree = kernel._uniform_degree
        if degree > 1 and values.itemsize * values.shape[1] <= ONE_TAKE_MAX_ROW_BYTES:
            # One take of every slot's rows, then one reduction over the
            # slot axis.  The take lands in the kernel's scratch before
            # ``out`` is written, so ``out`` may alias ``values``; "clip"
            # skips the bounds pass (and the staging copy of ``out``) that
            # the default "raise" mode costs — the columns are valid rows.
            # The method and ufunc forms skip the wrappers' dispatch.
            flat, scratch = kernel._take_plan(values.dtype, values.shape[1])
            values.take(flat, axis=0, out=scratch, mode="clip")
            if out is None:
                out = np.empty(values.shape, dtype=values.dtype)
            np.maximum.reduce(
                scratch.reshape(degree, kernel.n, values.shape[1]), axis=0, out=out
            )
            return out
        cols = kernel._cols()
        if degree == 1:
            result = values[cols[0]]
            if out is not None:
                np.copyto(out, result)
                return out
            return result
        # Later slots re-read ``values``, so an aliasing ``out`` is only
        # written once the fold is done.
        target = out
        if out is not None and np.may_share_memory(out, values):
            target = None
        result = np.maximum(values[cols[0]], values[cols[1]], out=target)
        for j in range(2, degree):
            np.maximum(result, values[cols[j]], out=result)
        if out is not None and result is not out:
            np.copyto(out, result)
            return out
        return result
