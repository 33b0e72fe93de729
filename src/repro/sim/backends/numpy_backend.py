"""Default numpy kernel backend: a chunked slot-major take + one max.

Shape and degree validation stay in :class:`repro.sim.flood.FloodKernel`;
this backend receives an already validated ``(n, B)`` matrix plus the
kernel instance for its uniform degree and cached gather plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..._types import AnyArray
    from ..flood import FloodKernel

__all__ = ["NumpyBackend"]

#: Largest gather scratch, in bytes, that one ``np.take`` fills.  A gather
#: of ``r`` nodes needs a ``(degree * r, B)`` scratch, so rows are taken in
#: runs of ``TAKE_SCRATCH_BYTES // (degree * B * itemsize)`` nodes.  Every
#: engine state of the benchmarked workloads (up to n = 3072, d = 8,
#: B = 16 in int8: 384 KiB) is gathered in a single run; wider states stay
#: in cache run by run instead of streaming one large scratch.
TAKE_SCRATCH_BYTES = 512 * 1024


class NumpyBackend:
    """Runs of one slot-major ``np.take`` and one ``max`` over the slots."""

    name = "numpy"

    def neighbor_max_stacked(
        self, kernel: FloodKernel, values: AnyArray, out: AnyArray | None = None
    ) -> AnyArray:
        """Neighbor-max over ``(n, B)`` state, in ``values``' own dtype.

        Each run of nodes is gathered for all ``d`` neighbor slots by one
        ``np.take`` into the kernel's cached ``(d * rows, B)`` scratch and
        reduced by one ``max(axis=0)`` over the ``(d, rows, B)`` stack
        (see :data:`TAKE_SCRATCH_BYTES` and
        :meth:`~repro.sim.flood.FloodKernel._take_plan`, which caches the
        runs).
        """
        runs = kernel._take_plan(values.dtype, values.shape[1], TAKE_SCRATCH_BYTES)
        # A single run takes every row into the scratch before ``out`` is
        # written, so ``out`` may alias ``values``; with several runs a
        # later run would read rows an earlier one wrote, so the result
        # goes through a fresh buffer.
        target = out
        if target is None or (len(runs) > 1 and np.may_share_memory(target, values)):
            target = np.empty(values.shape, dtype=values.dtype)
        for cols, span, stack, lo, hi in runs:
            # "clip" skips the bounds pass (and the staging copy of the
            # scratch) that the default "raise" mode costs — the columns
            # are valid rows.  The method and ufunc forms skip the
            # wrappers' dispatch.
            values.take(cols, axis=0, out=span, mode="clip")
            np.maximum.reduce(stack, axis=0, out=target[lo:hi])
        if out is not None and target is not out:
            np.copyto(out, target)
            return out
        return target
