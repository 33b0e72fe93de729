"""Vectorized max-flooding kernel over CSR adjacency.

This is the hot path of the whole library: one protocol run performs
``Theta(log^3 n)`` flooding rounds, each of which computes, for every node,
the maximum of its neighbors' transmitted values.  The flooded graph is
always H, which is d-regular by construction (the union of ``d / 2``
random Hamiltonian cycles), so a kernel requires one degree ``d >= 1`` at
every node and rejects any other CSR.

Independent trials (seeds x configs) run the *same* adjacency, so the
batched kernel, :meth:`FloodKernel.neighbor_max_stacked`, floods an
``(n, B)`` trials-as-columns matrix in one call: every node's ``B`` trial
values are one contiguous row, gathered whole for each neighbor slot.  At
experiment sizes a single trial's arrays are small enough that numpy call
overhead dominates; batching amortizes it across trials (see
``benchmarks/bench_batch.py``).  The 1-D :meth:`FloodKernel.neighbor_max`
of the scalar runner and baselines is a plain gather + segmented
``np.maximum.reduceat`` that shares no gather code with the batched one.

Colors are positive integers; ``0`` is the sentinel for "nothing sent"
(crashed node, suppressed message), so a plain integer max implements
"ignore missing".

Batches may also span *different networks*.  :class:`UnionFloodKernel`
stacks the networks block-diagonally on the **row** axis (total rows =
sum of the sizes; each column holds one trial per network), so one plain
:meth:`FloodKernel.neighbor_max_stacked` call over the concatenated CSR
floods *all* the networks at once with zero padding rows, no per-segment
scratch copies, and no masked zeroing — the union of d-regular blocks is
itself d-regular, so one row gather covers the whole stack.  Blocks share
no edges, so values can never cross a block boundary; the per-network
row segments (``offsets``) drive the engine's segment-wise bookkeeping
(decided counting, message and witness metering).  A plain :class:`FloodKernel` is the one-block case of the
same interface (``sizes == (n,)``), which is how one engine serves both.

:class:`MultiFloodKernel` is the older padded layout: a ``(n_pad, B)``
trials-as-columns matrix in which every column belongs to one of several
adjacencies and smaller networks occupy the live prefix of their columns.
The kernel masks the reduction to each column's live prefix and zeroes
the padding rows of the output, so a padding row can never win a max;
networks of identical ``(n, d)`` shape in adjacent column runs share one
stacked gather plan.  Only the geometric-max baseline still uses it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .._types import AnyArray, Int64Array, IntArray
from .backends import KernelBackend, resolve_backend

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from ..graphs.smallworld import SmallWorldNetwork
    from .channel import ChannelState

__all__ = ["FloodKernel", "MultiFloodKernel", "UnionFloodKernel", "stack_union_csr"]


class FloodKernel:
    """Per-round neighbor-max over a fixed d-regular CSR adjacency.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency.  Every node must have the same degree ``d >= 1``
        (true of H, the only graph the protocol floods); this is validated
        once per adjacency, so the per-round kernels run unguarded.
    backend:
        Compute backend: ``"numpy"``, ``"numba"``, ``"auto"``, a
        :class:`~repro.sim.backends.KernelBackend` instance, or ``None``
        (env override / auto — see
        :func:`repro.sim.backends.resolve_backend`).  Backends are
        bit-for-bit interchangeable; this selects speed, not semantics.
    """

    def __init__(
        self,
        indptr: IntArray,
        indices: IntArray,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self._neighbor_cols: Int64Array | None = None
        # Gather plan of the numpy backend: its runs of nodes, keyed by
        # the (dtype, B, byte cap) of the last gather (see :meth:`_take_plan`).
        self._take: tuple[tuple[np.dtype[Any], int, int], list[Any]] | None = None
        self._backend = resolve_backend(backend)
        self.update_csr(indptr, indices)

    @property
    def backend(self) -> str:
        """Name of the compute backend this kernel dispatches to."""
        return self._backend.name

    def _block_sizes(self, n: int) -> tuple[int, ...]:
        """Row blocks of an ``n``-row CSR: a plain kernel is one block.

        ``sizes`` are the block sizes and ``offsets[g]`` block ``g``'s
        first row (``offsets[-1] == n``); :class:`UnionFloodKernel` keeps
        its member blocks instead.
        """
        return (n,)

    def segment_sum(self, values: AnyArray, dtype: Any = None) -> AnyArray:
        """Per-(block, column) sums of an ``(N, B)`` numeric matrix.

        One segmented ``reduceat`` over the row axis; the block offsets
        are the segment boundaries, so the result's row ``g`` aggregates
        exactly block ``g``'s rows.  ``dtype`` is the accumulator (pass
        ``np.int64`` to sum narrow counters without wrapping).
        """
        return np.add.reduceat(values, self.offsets[:-1], axis=0, dtype=dtype)

    def neighbor_max(self, sent: AnyArray, out: AnyArray | None = None) -> AnyArray:
        """``out[v] = max(sent[u] for u in N(v))`` (0 if all neighbors silent).

        The scalar runner's kernel: one gather plus one segmented
        ``np.maximum.reduceat`` over the CSR, on every backend.  It shares
        no code with :meth:`neighbor_max_stacked`, so the scalar engine is
        an independent oracle for the batched one.
        """
        result = np.maximum.reduceat(sent[self.indices], self.indptr[:-1])
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def invalidate_plans(self) -> None:
        """Drop every cached gather plan (the neighbor columns, and the
        numpy backend's runs and their scratch).

        Plans are pure functions of the CSR, so they only need dropping
        when the adjacency itself changes — :meth:`update_csr` calls this;
        long-lived holders (the resident churn engine) may also call it to
        release plan memory for an overlay going idle.
        """
        self._neighbor_cols = None
        self._take = None

    def update_csr(self, indptr: IntArray, indices: IntArray) -> None:
        """Re-point the kernel at a new adjacency, keeping the backend.

        The resident churn engine (:mod:`repro.service`) replaces overlay
        CSRs across epochs; rebinding the existing kernel
        revalidates the new adjacency, recomputes the degree metadata, and
        invalidates exactly the cached plans — cheaper than constructing a
        kernel per epoch and a precise answer to "which caches does a
        churn delta invalidate" (all plans of the mutated overlay, nothing
        else).  The constructor sets the first adjacency through here too.
        A union kernel keeps its blocks, so the new CSR must have as many
        rows as they sum to.  A rejected CSR leaves the kernel unchanged.
        """
        degrees = np.diff(indptr)
        if not degrees.size or degrees[0] < 1 or np.any(degrees != degrees[0]):
            raise ValueError(
                "FloodKernel needs a CSR of one degree >= 1 at every node "
                "(H is d-regular)"
            )
        sizes = self._block_sizes(degrees.size)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.n = degrees.size
        self.sizes: tuple[int, ...] = sizes
        self.offsets: Int64Array = np.cumsum((0, *sizes), dtype=np.int64)
        self._uniform_degree = int(degrees[0])
        self.invalidate_plans()

    def neighbor_max_stacked(
        self,
        values: AnyArray,
        out: AnyArray | None = None,
        *,
        channel: "ChannelState | None" = None,
    ) -> AnyArray:
        """Batched neighbor-max over an ``(n, B)`` trials-as-columns matrix.

        This is the batched engine's hot kernel.  The transposed layout
        keeps each node's ``B`` trial values contiguous, so the backends
        gather whole rows: the numpy backend takes the rows of every
        neighbor slot with one ``np.take`` into a cached scratch and
        reduces the ``(d, n, B)`` stack with one ``max(axis=0)``, in runs
        of nodes when the stack would exceed its byte cap; the numba
        backend walks each row's neighbors in one fused loop.  The engines
        hand this method the narrowest integer dtype that holds their
        phase's values (see :mod:`repro.core.batch`); any integer dtype is
        exact, and ``out`` may alias ``values``.

        When ``channel`` is given, the transmitted values are first passed
        through :meth:`repro.sim.channel.ChannelState.corrupt` (per-round
        drop/noise draws on a scratch copy; ``values`` is never written),
        so the gather operates on what the lossy medium delivered.  The
        corruption happens before backend dispatch, which keeps every
        backend bit-for-bit identical under channels by construction.
        """
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] != self.n:
            raise ValueError(
                f"expected an ({self.n}, B) matrix, got shape {values.shape}"
            )
        if channel is not None:
            values = channel.corrupt(values)
        return self._backend.neighbor_max_stacked(self, values, out)

    def _cols(self) -> Int64Array:
        """``(degree, n)`` array; row ``j`` holds every node's j-th neighbor."""
        if self._neighbor_cols is None:
            self._neighbor_cols = np.ascontiguousarray(
                self.indices.reshape(self.n, self._uniform_degree).T
            )
        return self._neighbor_cols

    def _take_plan(
        self, dtype: np.dtype[Any], batch: int, max_bytes: int
    ) -> list[tuple[Int64Array, AnyArray, AnyArray, int, int]]:
        """Runs of nodes for the numpy backend's slot-major take.

        Nodes are cut into runs of ``rows`` nodes (the last may be
        shorter), the most whose ``(degree * rows, B)`` gather fits in
        ``max_bytes``.  A run of ``r`` nodes from node ``lo`` to ``hi`` is
        ``(cols, span, stack, lo, hi)``: its ``degree * r`` neighbor
        columns, slot-major like :meth:`_cols` (entry ``j * r + i`` is the
        run's node ``i``'s j-th neighbor), so ``np.take`` of an ``(n, B)``
        matrix into the ``(degree * r, B)`` scratch view ``span`` lands as
        the ``(degree, r, B)`` view ``stack`` whose ``max(axis=0)`` is the
        run's neighbor-max.  Every run shares one scratch, and a single
        run's columns are a view of :meth:`_cols`.  One plan is kept, for
        the last ``(dtype, B, max_bytes)`` seen: an engine phase holds them
        fixed across its rounds, so the scratch is rebuilt only when a
        phase changes them.  Plans are pure functions of the current CSR,
        so :meth:`invalidate_plans` (hence :meth:`update_csr`) drops it.
        """
        key = (dtype, batch, max_bytes)
        take = self._take
        if take is None or take[0] != key:
            degree = self._uniform_degree
            row_bytes = degree * max(batch, 1) * dtype.itemsize
            rows = max(1, min(self.n, max_bytes // row_bytes))
            cols = self._cols()
            scratch = np.empty((degree * rows, batch), dtype=dtype)
            runs = []
            for lo in range(0, self.n, rows):
                hi = min(lo + rows, self.n)
                span = scratch[: degree * (hi - lo)]
                run_cols = np.ascontiguousarray(cols[:, lo:hi]).reshape(-1)
                stack = span.reshape(degree, hi - lo, batch)
                runs.append((run_cols, span, stack, lo, hi))
            take = (key, runs)
            self._take = take
        return take[1]


def stack_union_csr(
    networks: Iterable[SmallWorldNetwork],
) -> tuple[tuple[int, ...], Int64Array, Int64Array]:
    """Concatenate several H adjacencies into one block-diagonal CSR.

    Returns ``(sizes, indptr, indices)``: block ``g`` owns the row segment
    ``[sum(sizes[:g]), sum(sizes[:g+1]))`` and its neighbor indices are
    shifted into that segment, so the union references no row outside the
    owning block — flooding the union is exactly per-block flooding.
    """
    networks = list(networks)
    if not networks:
        raise ValueError("stack_union_csr needs at least one network")
    sizes = tuple(int(net.n) for net in networks)
    indptr_parts = [np.zeros(1, dtype=np.int64)]
    indices_parts: list[Int64Array] = []
    row_off = 0
    nnz_off = 0
    for net in networks:
        indptr = np.asarray(net.h.indptr, dtype=np.int64)
        indices = np.asarray(net.h.indices, dtype=np.int64)
        indptr_parts.append(indptr[1:] + nnz_off)
        indices_parts.append(indices + row_off)
        row_off += int(net.n)
        nnz_off += int(indices.shape[0])
    return sizes, np.concatenate(indptr_parts), np.concatenate(indices_parts)


class UnionFloodKernel(FloodKernel):
    """Block-diagonal union of several adjacencies as one flat CSR kernel.

    The batched engine's multi-network layout: the member networks' H
    graphs are concatenated block-diagonally, so every
    round over an ``(N, B)`` trials-as-columns state (``N`` = total rows)
    is one ordinary :meth:`FloodKernel.neighbor_max_stacked` call.  Every
    block must share one degree ``d``, so the union is d-regular too.
    ``offsets[g]`` is block ``g``'s first row; :meth:`segment_sum` reduces
    an ``(N, B)`` matrix to per-(block, column) values for the engine's
    message and witness bookkeeping.  :meth:`update_csr` keeps the blocks:
    the new CSR must have ``sum(sizes)`` rows.

    Blocks share no edges by construction, so no value can cross a block
    boundary (enforced by ``tests/property/test_unionstack_properties.py``).
    """

    def __init__(
        self,
        sizes: Iterable[int],
        indptr: IntArray,
        indices: IntArray,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.sizes = tuple(int(s) for s in sizes)
        if not self.sizes:
            raise ValueError("UnionFloodKernel needs at least one block")
        super().__init__(indptr, indices, backend=backend)

    def _block_sizes(self, n: int) -> tuple[int, ...]:
        if sum(self.sizes) != n:
            raise ValueError(
                f"block sizes sum to {sum(self.sizes)} but the union CSR has "
                f"{n} rows"
            )
        return self.sizes

    @classmethod
    def from_networks(
        cls,
        networks: Iterable[SmallWorldNetwork],
        backend: str | KernelBackend | None = None,
    ) -> "UnionFloodKernel":
        """Build the union kernel by stacking the networks' H CSRs."""
        sizes, indptr, indices = stack_union_csr(networks)
        return cls(sizes, indptr, indices, backend=backend)

#: Column runs narrower than this are candidates for merging into one
#: stacked gather with adjacent same-(n, d) runs: a handful of columns per
#: graph cannot amortize a kernel call, so re-samples pool their columns.
#: Wider runs keep the (faster) per-network row-gather path.
_MERGE_MAX_RUN = 16


class _ColumnSegment:
    """One contiguous column span of a :class:`MultiFloodKernel` plan."""

    __slots__ = ("lo", "hi", "n", "kernel", "idx", "ccols")

    def __init__(
        self,
        lo: int,
        hi: int,
        n: int,
        kernel: FloodKernel | None = None,
        idx: list[Int64Array] | None = None,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.n = n
        self.kernel = kernel  # single-network run: dispatch to this kernel
        self.idx = idx  # merged shape group: per-slot (n, width) gathers
        # Column broadcast for the merged-gather path, built once at
        # plan-build time (plans are cached; rebuilding this every merged
        # segment every round cost an allocation per kernel call).
        self.ccols: Int64Array | None = (
            np.arange(hi - lo, dtype=np.int64)[None, :] if idx is not None else None
        )


class _ColumnPlan:
    """Frozen per-phase dispatch plan for one live-column assignment."""

    __slots__ = ("batch", "segments")

    def __init__(self, batch: int, segments: list[_ColumnSegment]) -> None:
        self.batch = batch
        self.segments = segments


class MultiFloodKernel:
    """Per-round neighbor-max for a padded multi-network column batch.

    The counting engines run multi-network batches on the union stack
    (:class:`UnionFloodKernel`); this padded kernel now serves only the
    geometric-max baseline's multi-network runs
    (:func:`repro.baselines.geometric_max.run_geometric_max_multinet`).

    Parameters
    ----------
    networks:
        The distinct networks whose trials share one padded
        ``(n_pad, B)`` trials-as-columns state matrix (``n_pad`` is the
        largest ``n``).  Column-to-network assignment is provided per
        phase via :meth:`column_plan` (live columns change as trials
        finish).

    The padding contract: rows at or beyond a column's network size are
    *padding* — the kernel never reads a padding row of a live prefix's
    neighborhood (each network's adjacency only references its own
    ``0..n-1``) and always writes ``0`` into the padding rows of the
    output, so iterated flooding keeps padding identically zero and a
    padding value can never win a max (enforced by
    ``tests/property/test_padding_properties.py``).
    """

    def __init__(
        self,
        networks: Iterable[SmallWorldNetwork],
        backend: str | KernelBackend | None = None,
    ) -> None:
        networks = list(networks)
        # Resolve once so every member kernel shares one backend instance
        # (and the env lookup happens once, not per network).
        resolved = resolve_backend(backend)
        self.kernels = [
            FloodKernel(net.h.indptr, net.h.indices, backend=resolved)
            for net in networks
        ]
        self.sizes = tuple(int(net.n) for net in networks)
        self.n_pad = max(self.sizes) if self.sizes else 0
        self._backend = resolved
        self._plan_cache: dict[bytes, _ColumnPlan] = {}

    @property
    def backend(self) -> str:
        """Name of the compute backend shared by the member kernels."""
        return self._backend.name

    # ------------------------------------------------------------------
    def column_plan(self, col_net: IntArray) -> _ColumnPlan:
        """Build (and cache) the dispatch plan for one column assignment.

        ``col_net`` maps each live column to its network index; columns of
        one network should sit in contiguous runs (callers sort trials
        network-major), but scattered assignments only cost extra
        segments, never correctness.
        """
        col_net = np.ascontiguousarray(col_net, dtype=np.int64)
        key = col_net.tobytes()
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan
        runs: list[tuple[int, int, int]] = []  # (net, lo, hi)
        batch = col_net.shape[0]
        lo = 0
        for b in range(1, batch + 1):
            if b == batch or col_net[b] != col_net[lo]:
                runs.append((int(col_net[lo]), lo, b))
                lo = b
        segments: list[_ColumnSegment] = []
        group: list[tuple[int, int, int]] = []
        for run in runs + [(-1, -1, -1)]:  # sentinel flushes the last group
            if group and not self._mergeable(group[-1], run):
                segments.append(self._segment(group))
                group = []
            group.append(run)
        if len(self._plan_cache) >= 16:
            # Evict only the oldest assignment: recurring live-column sets
            # must not flush each other out wholesale.
            self._plan_cache.pop(next(iter(self._plan_cache)))
        plan = _ColumnPlan(batch, segments)
        self._plan_cache[key] = plan
        return plan

    def _mergeable(self, a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
        """Adjacent runs merge when both are narrow re-samples of one shape."""
        if b[0] < 0:  # sentinel
            return False
        ka, kb = self.kernels[a[0]], self.kernels[b[0]]
        return (
            a[0] != b[0]
            and self.sizes[a[0]] == self.sizes[b[0]]
            and ka._uniform_degree > 1
            and ka._uniform_degree == kb._uniform_degree
            and (a[2] - a[1]) <= _MERGE_MAX_RUN
            and (b[2] - b[1]) <= _MERGE_MAX_RUN
        )

    def _segment(self, group: list[tuple[int, int, int]]) -> _ColumnSegment:
        lo, hi = group[0][1], group[-1][2]
        n = self.sizes[group[0][0]]
        if len(group) == 1:
            return _ColumnSegment(lo, hi, n, kernel=self.kernels[group[0][0]])
        # One shape group of re-sampled graphs: stack each kernel's
        # per-slot neighbor columns into (n, width) index matrices so a
        # single fancy gather serves every graph in the group.
        degree = self.kernels[group[0][0]]._uniform_degree
        idx: list[Int64Array] = []
        for j in range(degree):
            parts = [
                np.broadcast_to(
                    self.kernels[g]._cols()[j][:, None], (n, g_hi - g_lo)
                )
                for g, g_lo, g_hi in group
            ]
            idx.append(np.ascontiguousarray(np.concatenate(parts, axis=1)))
        return _ColumnSegment(lo, hi, n, idx=idx)

    # ------------------------------------------------------------------
    def neighbor_max_stacked(
        self,
        values: AnyArray,
        plan: _ColumnPlan,
        out: AnyArray | None = None,
        *,
        channel: "ChannelState | None" = None,
    ) -> AnyArray:
        """Masked batched neighbor-max over the padded ``(n_pad, B)`` state.

        Column ``b``'s live prefix receives its own network's neighbor
        maxima; its padding rows are written to ``0`` (never read by any
        live reduction), so padding cannot leak into live columns.

        ``channel`` applies per-round drop/noise corruption to a scratch
        copy of ``values`` before the masked gathers (see
        :meth:`FloodKernel.neighbor_max_stacked`); the channel's slots are
        sized to each column's live prefix, so padding rows consume no
        draws and stay identically zero.
        """
        if channel is not None:
            values = channel.corrupt(values)
        if values.ndim != 2 or values.shape[0] != self.n_pad:
            raise ValueError(
                f"expected an ({self.n_pad}, B) matrix, got shape {values.shape}"
            )
        if values.shape[1] != plan.batch:
            raise ValueError(
                f"plan covers {plan.batch} columns, state has {values.shape[1]}"
            )
        if out is None:
            out = np.empty_like(values)
        for seg in plan.segments:
            sub = values[: seg.n, seg.lo : seg.hi]
            dst = out[: seg.n, seg.lo : seg.hi]
            # Column-sliced views are row-strided; the row-gather kernels
            # lose ~2x on them, and one small memcpy through a contiguous
            # scratch buys that back (measured: scratch ~= contiguous).
            contiguous = sub.flags["C_CONTIGUOUS"]
            src = sub if contiguous else np.ascontiguousarray(sub)
            if seg.kernel is not None:
                if contiguous:
                    seg.kernel.neighbor_max_stacked(src, out=dst)
                else:
                    np.copyto(dst, seg.kernel.neighbor_max_stacked(src))
            else:
                ccols = seg.ccols
                res = np.maximum(src[seg.idx[0], ccols], src[seg.idx[1], ccols])
                for j in range(2, len(seg.idx)):
                    np.maximum(res, src[seg.idx[j], ccols], out=res)
                np.copyto(dst, res)
            if seg.n < self.n_pad:
                out[seg.n :, seg.lo : seg.hi] = 0
        return out
