"""Incremental join/leave deltas on a resident small-world network.

The continuous estimation service (:mod:`repro.service`) keeps overlays
alive across epochs.  Re-sampling ``G = H ∪ L`` from scratch on every
membership change recomputes the ``k``-ball of all ``n`` nodes
(:func:`repro.graphs.smallworld.build_small_world`); a churn delta only
touches a handful of nodes, so :class:`ResidentGraph` patches the resident
structures incrementally instead:

* ``H`` lives as per-cycle successor/predecessor pointer arrays.  A
  **leave** splices the node out of each Hamiltonian cycle (the cycle
  stays Hamiltonian on the survivors); a **join** inserts the new node
  after a uniformly drawn anchor in each cycle — exactly the Law & Siu
  peer-to-peer maintenance moves the ``H(n, d)`` model comes from.
* Node ids stay dense (``0..n-1``) via direct compaction: the survivors
  keep ids ``[0, n_live)``; each live node above that range moves into a
  vacated slot below it (sorted sources onto sorted destinations, so the
  moves are independent — no chained swaps), and a delta with ``l``
  leavers relabels at most ``l`` nodes.
* ``L`` lives as per-node adjacency chunks (``B_H(v, k) \\ {v}`` with
  distances, the rows :func:`repro.graphs.smallworld.k_balls` produces).
  After patching ``H``, only the chunks the delta could have touched are
  recomputed, in one :func:`~repro.graphs.smallworld.k_balls` call over
  the patched ``H`` (still ``d``-regular, which that pass requires: it
  reads the CSR as an ``(n, d)`` table).
  ``B(v, k)`` changes only if some path of
  length ``<= k`` from ``v`` uses a changed edge; following that path
  from ``v``, the prefix up to the *first* changed edge uses only
  unchanged edges — so it is a valid path in both the old and the new
  graph — and ends at an endpoint of a changed edge, at distance
  ``<= k-1``.  Hence the recompute set is the radius-``(k-1)`` ball
  around changed-edge endpoints: leavers (old graph — every edge of a
  leaver is removed) plus splice points, join anchors, and joiners (new
  graph).  Chunks outside that set can still *mention* relabeled ids;
  relabeling is a pure rename, so those chunks get an in-place id
  substitution (and re-sort) instead of a BFS.  Untouched chunks are
  therefore provably byte-identical to what a cold rebuild would
  produce.

:meth:`ResidentGraph.snapshot` materializes the resident state back into
an immutable :class:`~repro.graphs.smallworld.SmallWorldNetwork` by
walking the patched cycles and assembling the ``H`` CSR through
:func:`repro.graphs.hgraph.hgraph_from_cycles` — the same constructor a
cold build uses — so a snapshot is bit-for-bit equal to
``build_small_world(h=hgraph_from_cycles(same_cycles), k=k)``.  That
equality (caching never changes results) is pinned by
``tests/graphs/test_delta.py`` and the service soak test.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .._types import Int8Array, Int64Array, IntArray
from .hgraph import hgraph_from_cycles
from .smallworld import SmallWorldNetwork, build_small_world, k_balls

__all__ = ["AppliedDelta", "ResidentGraph"]

#: Minimum live size: Hamiltonian cycles need >= 3 nodes to stay free of
#: self-loops (the same floor :func:`repro.graphs.hgraph.generate_hgraph`
#: enforces at sampling time).
_MIN_NODES = 3


@dataclass(frozen=True)
class AppliedDelta:
    """Accounting for one applied join/leave delta.

    Attributes
    ----------
    left:
        The node ids removed (as they were numbered *before* the delta).
    joined:
        The node ids assigned to the new nodes (post-delta numbering).
    relabeled:
        Compaction map ``old id -> new id`` for nodes that changed ids
        (leavers excluded — they have no new id).
    recomputed:
        How many ``L`` adjacency chunks were recomputed; everything else
        was reused untouched.  Tests compare this against ``n`` to prove
        the patch stayed local.
    """

    left: tuple[int, ...]
    joined: tuple[int, ...]
    relabeled: dict[int, int]
    recomputed: int


class ResidentGraph:
    """A mutable ``G = H ∪ L`` instance supporting incremental churn.

    Build one with :meth:`from_network` (adopting a sampled network) or
    :meth:`sample`, mutate it with :meth:`apply_delta`, and read it with
    :meth:`snapshot` (cached until the next delta).  ``version`` counts
    applied deltas so kernel caches keyed on it invalidate precisely.
    """

    def __init__(
        self,
        d: int,
        k: int,
        nxt: Int64Array,
        prv: Int64Array,
        chunks: list[tuple[Int64Array, Int8Array]],
        snapshot: SmallWorldNetwork | None = None,
    ) -> None:
        self.d = d
        self.k = k
        self._half = d // 2
        self._next = nxt
        self._prev = prv
        self._chunks = chunks
        self._n = len(chunks)
        self.version = 0
        self._snapshot = snapshot

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, net: SmallWorldNetwork) -> "ResidentGraph":
        """Adopt a sampled network as the resident state (no recompute)."""
        n, half = net.n, net.d // 2
        nxt = np.empty((half, n), dtype=np.int64)
        prv = np.empty((half, n), dtype=np.int64)
        for c in range(half):
            perm = net.h.cycles[c]
            nxt[c, perm] = np.roll(perm, -1)
            prv[c, perm] = np.roll(perm, 1)
        chunks: list[tuple[Int64Array, Int8Array]] = [
            (
                net.g_indices[net.g_indptr[v] : net.g_indptr[v + 1]].copy(),
                net.g_dist[net.g_indptr[v] : net.g_indptr[v + 1]].copy(),
            )
            for v in range(n)
        ]
        return cls(net.d, net.k, nxt, prv, chunks, snapshot=net)

    @classmethod
    def sample(
        cls, n: int, d: int, seed: int = 0, *, k: int | None = None
    ) -> "ResidentGraph":
        """Sample a fresh network and adopt it (cold path, run once)."""
        return cls.from_network(build_small_world(n, d, seed=seed, k=k))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    def snapshot(self) -> SmallWorldNetwork:
        """The current state as an immutable network (cached per version)."""
        if self._snapshot is not None:
            return self._snapshot
        n, half = self._n, self._half
        cycles = np.empty((half, n), dtype=np.int64)
        for c in range(half):
            v = 0
            for i in range(n):
                cycles[c, i] = v
                v = int(self._next[c, v])
            if v != 0:
                raise RuntimeError(
                    f"cycle {c} does not close after {n} steps; resident "
                    "pointer state is corrupt"
                )
        h = hgraph_from_cycles(cycles)
        counts = np.array([c[0].shape[0] for c in self._chunks], dtype=np.int64)
        g_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=g_indptr[1:])
        g_indices = (
            np.concatenate([c[0] for c in self._chunks])
            if self._chunks
            else np.empty(0, np.int64)
        )
        g_dist = (
            np.concatenate([c[1] for c in self._chunks])
            if self._chunks
            else np.empty(0, np.int8)
        )
        net = SmallWorldNetwork(
            h=h, k=self.k, g_indptr=g_indptr, g_indices=g_indices, g_dist=g_dist
        )
        net.validate()
        self._snapshot = net
        return net

    # ------------------------------------------------------------------
    # The incremental patch
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        leaves: Sequence[int] | IntArray,
        joins: int,
        rng: np.random.Generator,
    ) -> AppliedDelta:
        """Apply one churn delta: remove ``leaves``, add ``joins`` nodes.

        ``rng`` draws the per-cycle insertion anchors for each joining
        node (one uniform draw over the current node set per cycle per
        join, in join order) — pass a stream from :mod:`repro.sim.rng` so
        deltas replay deterministically.  Leavers are spliced in
        ascending id order; surviving ids are then compacted to
        ``[0, n_live)``; joins are appended last.  Raises
        :class:`ValueError` for out-of-range/duplicate leavers or a delta
        that would shrink the graph below 3 nodes.
        """
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                f"rng must be a numpy Generator (see repro.sim.rng), got "
                f"{type(rng).__name__}"
            )
        if joins < 0:
            raise ValueError(f"joins must be >= 0, got {joins}")
        leave_arr = np.atleast_1d(np.asarray(leaves, dtype=np.int64))
        if leave_arr.ndim != 1:
            raise ValueError("leaves must be a 1-D sequence of node ids")
        if leave_arr.size:
            if leave_arr.min() < 0 or leave_arr.max() >= self._n:
                raise ValueError(
                    f"leave ids must be in [0, {self._n}), got "
                    f"[{leave_arr.min()}, {leave_arr.max()}]"
                )
            if np.unique(leave_arr).size != leave_arr.size:
                raise ValueError("leave ids must be distinct")
        n_live = self._n - int(leave_arr.size)
        if n_live < _MIN_NODES:
            raise ValueError(
                f"delta leaves {n_live} nodes; Hamiltonian cycles need >= "
                f"{_MIN_NODES}"
            )
        half, k = self._half, self.k
        leave_set = {int(v) for v in leave_arr}

        # Compaction plan (pure function of the leave set): the surviving
        # ids are [0, n_live); every live node with an id above that range
        # moves directly into a vacated slot below it.  Matching sorted
        # sources to sorted destinations keeps each move independent (no
        # chained swaps), so ``relabel`` IS the old-id -> new-id map.
        move_srcs = sorted(v for v in range(n_live, self._n) if v not in leave_set)
        move_dsts = sorted(v for v in leave_set if v < n_live)
        relabel: dict[int, int] = dict(zip(move_srcs, move_dsts))

        # Old-graph (k-1)-ball around leavers — every incident edge of a
        # leaver disappears, and an affected node reaches some removed
        # edge's endpoint within k-1 unchanged hops (see module
        # docstring).  Taken while the pre-delta pointers are intact.
        old_ball = self._pointer_ball(set(leave_set), k - 1)

        # 1. Splice leavers out of every cycle; record the splice points.
        splice_nbrs: set[int] = set()
        for v in sorted(leave_set):
            for c in range(half):
                p = int(self._prev[c, v])
                nx = int(self._next[c, v])
                self._next[c, p] = nx
                self._prev[c, nx] = p
                splice_nbrs.add(p)
                splice_nbrs.add(nx)

        # 2. Compact ids (the plan above, now applied to the pointers and
        # the chunk list; sources are live, destinations are vacated, so
        # the moves commute).
        for src, dst in relabel.items():
            for c in range(half):
                p = int(self._prev[c, src])
                nx = int(self._next[c, src])
                self._next[c, dst] = nx
                self._prev[c, dst] = p
                self._next[c, p] = dst
                self._prev[c, nx] = dst
            self._chunks[dst] = self._chunks[src]
        del self._chunks[n_live:]
        self._n = n_live

        def _map(v: int) -> int | None:
            if v in leave_set:
                return None
            return relabel.get(v, v)

        # 3. Joins: insert after a uniformly drawn anchor per cycle.  Each
        # insertion removes edge (anchor, nx) and adds (anchor, j) and
        # (j, nx) — collect all three endpoints (final ids).
        joined: list[int] = []
        edge_ends: set[int] = {m for v in splice_nbrs if (m := _map(v)) is not None}
        for _ in range(joins):
            nid = self._n
            if nid >= self._next.shape[1]:
                self._grow(nid + 1)
            for c in range(half):
                anchor = int(rng.integers(nid))
                nx = int(self._next[c, anchor])
                self._next[c, anchor] = nid
                self._prev[c, nid] = anchor
                self._next[c, nid] = nx
                self._prev[c, nx] = nid
                edge_ends.add(anchor)
                edge_ends.add(nx)
            self._chunks.append(
                (np.empty(0, np.int64), np.empty(0, np.int8))
            )
            edge_ends.add(nid)
            joined.append(nid)
            self._n += 1

        # 4. New-graph (k-1)-ball around changed-edge endpoints among the
        # survivors (splice points, join anchors, joiners).
        new_ball = self._pointer_ball(edge_ends, k - 1)

        # 5. The recompute set; everything structural lives here.
        affected = {m for v in old_ball if (m := _map(v)) is not None}
        affected |= new_ball

        # 6. Chunks outside the recompute set may still mention relabeled
        # ids — a pure rename, so substitute in place and re-sort instead
        # of re-running BFS.  (Stale *leaver* ids cannot appear outside
        # ``affected``: a chunk containing leaver x has dist(v, x) <= k,
        # whose path ends in a removed edge at x, putting v within k-1 of
        # a splice point or leaver.)
        if relabel:
            srcs_arr = np.fromiter(relabel.keys(), dtype=np.int64, count=len(relabel))
            dsts_arr = np.fromiter(relabel.values(), dtype=np.int64, count=len(relabel))
            order = np.argsort(srcs_arr)
            srcs_arr, dsts_arr = srcs_arr[order], dsts_arr[order]
            lo = int(srcs_arr[0])
            for v in range(self._n):
                if v in affected:
                    continue
                nodes, dists = self._chunks[v]
                if not nodes.size or nodes[-1] < lo:
                    continue
                pos = np.searchsorted(srcs_arr, nodes)
                pos[pos == srcs_arr.size] = 0
                hit = srcs_arr[pos] == nodes
                if not hit.any():
                    continue
                nodes = nodes.copy()
                nodes[hit] = dsts_arr[pos[hit]]
                reorder = np.argsort(nodes)
                self._chunks[v] = (nodes[reorder], dists[reorder])

        # 7. Recompute exactly the touched chunks against the patched H.
        # Rows are copied out so no chunk pins the whole result buffer.
        indptr, indices = self._h_csr()
        srcs = sorted(affected)
        ptr, nodes, dists = k_balls(indptr, indices, np.array(srcs, np.int64), k)
        for i, v in enumerate(srcs):
            lo, hi = ptr[i], ptr[i + 1]
            self._chunks[v] = (nodes[lo:hi].copy(), dists[lo:hi].copy())

        self.version += 1
        self._snapshot = None
        return AppliedDelta(
            left=tuple(int(v) for v in sorted(leave_set)),
            joined=tuple(joined),
            relabeled=relabel,
            recomputed=len(affected),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = max(need, 2 * self._next.shape[1])
        nxt = np.empty((self._half, cap), dtype=np.int64)
        prv = np.empty((self._half, cap), dtype=np.int64)
        nxt[:, : self._next.shape[1]] = self._next
        prv[:, : self._prev.shape[1]] = self._prev
        self._next = nxt
        self._prev = prv

    def _pointer_ball(self, seeds: set[int], depth: int) -> set[int]:
        """BFS ball of radius ``depth`` over the pointer adjacency."""
        seen = set(seeds)
        frontier = list(seeds)
        for _ in range(depth):
            nxt_frontier: list[int] = []
            for v in frontier:
                for c in range(self._half):
                    for u in (int(self._next[c, v]), int(self._prev[c, v])):
                        if u not in seen:
                            seen.add(u)
                            nxt_frontier.append(u)
            frontier = nxt_frontier
            if not frontier:
                break
        return seen

    def _h_csr(self) -> tuple[Int64Array, Int64Array]:
        """The patched ``H`` adjacency as CSR, assembled from the pointers.

        Row ``v`` interleaves ``[succ_0(v), pred_0(v), succ_1(v), ...]``
        — the row ordering :func:`~repro.graphs.hgraph.hgraph_from_cycles`
        produces (its stable argsort preserves per-cycle append order).
        Chunk recomputation only consumes ball membership, which is
        row-order independent, so either assembly is equivalent there;
        matching the canonical order keeps debugging comparisons exact.
        """
        n, half, d = self._n, self._half, self.d
        indices = np.empty(n * d, dtype=np.int64)
        view = indices.reshape(n, d)
        for c in range(half):
            view[:, 2 * c] = self._next[c, :n]
            view[:, 2 * c + 1] = self._prev[c, :n]
        indptr = np.arange(n + 1, dtype=np.int64) * d
        return indptr, indices
