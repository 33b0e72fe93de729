"""The small-world network ``G = H ∪ L`` (Section 2.1).

``E(L) = {(u, v) : dist_H(u, v) <= k}`` with ``k = ceil(d / 3)``.  Adding the
``L`` edges turns the expander ``H`` into a small-world network: neighbors of
``v`` within distance ``k/2`` in ``H`` are directly connected to each other,
so the clustering coefficient is large while the degree stays constant
(``|B_H(v, k)| < (d-1)^{k+1}``, Observation 2).

Nodes in ``G`` do **not** know a priori which of their incident edges belong
to ``H`` and which to ``L`` (they recover this via the Lemma 3 protocol, see
:mod:`repro.core.neighborhood`).  The simulator, of course, does know, and
this class exposes both views:

* ``h``: the underlying :class:`~repro.graphs.hgraph.HGraph`;
* ``g_indptr`` / ``g_indices``: CSR adjacency of the simple graph ``G``;
* ``g_dist``: for each CSR slot, ``dist_H(v, neighbor)`` (1..k), so tests and
  verification logic can reason about the hop structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .._types import Int64Array, Int8Array, IntArray, SeedLike
from .balls import bfs_distances, gather_neighbors
from .hgraph import HGraph, generate_hgraph

__all__ = [
    "SmallWorldNetwork",
    "ball_chunk",
    "build_small_world",
    "k_balls",
    "lattice_parameter",
]


def lattice_parameter(d: int) -> int:
    """``k = ceil(d / 3)`` (Section 2.1)."""
    return -(-d // 3)


@dataclass(frozen=True)
class SmallWorldNetwork:
    """A sampled ``G = H ∪ L`` network instance."""

    h: HGraph
    k: int
    g_indptr: Int64Array = field(repr=False)
    g_indices: Int64Array = field(repr=False)
    g_dist: Int8Array = field(repr=False)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.h.n

    @property
    def d(self) -> int:
        return self.h.d

    def g_neighbors(self, v: int) -> Int64Array:
        """Distinct ``G``-neighbors of ``v`` (sorted)."""
        return self.g_indices[self.g_indptr[v] : self.g_indptr[v + 1]]

    def g_neighbor_dists(self, v: int) -> Int8Array:
        """``dist_H(v, u)`` for each entry of :meth:`g_neighbors`."""
        return self.g_dist[self.g_indptr[v] : self.g_indptr[v + 1]]

    def h_neighbors(self, v: int) -> Int64Array:
        """Distinct ``H``-neighbors of ``v``."""
        return self.h.unique_neighbors(v)

    def g_degree(self, v: int) -> int:
        return int(self.g_indptr[v + 1] - self.g_indptr[v])

    def is_g_edge(self, u: int, v: int) -> bool:
        nbrs = self.g_neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.shape[0] and nbrs[pos] == v)

    def is_h_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.h.neighbors(u) == v))

    def h_ball(self, v: int, r: int) -> IntArray:
        dist = bfs_distances(self.h.indptr, self.h.indices, v, max_depth=r)
        return np.flatnonzero(dist != -1)

    def g_ball(self, v: int, r: int) -> IntArray:
        dist = bfs_distances(self.g_indptr, self.g_indices, v, max_depth=r)
        return np.flatnonzero(dist != -1)

    def max_g_degree(self) -> int:
        return int(np.max(np.diff(self.g_indptr)))

    def to_networkx(self) -> Any:
        """The simple graph ``G`` as a :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            for u in self.g_neighbors(v):
                if u > v:
                    g.add_edge(v, int(u))
        return g

    def validate(self) -> None:
        """Consistency checks between ``H``, ``L`` and the stored CSR."""
        if self.k < 1:
            # k defaults to ceil(d/3); overrides (the E14 ablation) are
            # allowed but must still be a positive radius.
            raise ValueError("lattice radius k must be >= 1")
        if self.g_indptr[-1] != self.g_indices.shape[0]:
            raise ValueError("G CSR indptr/indices mismatch")
        n, ids = self.n, self.g_indices
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("G neighbor id outside [0, n)")
        # Every row strictly increasing (sorted, no duplicate neighbors);
        # comparisons across a row boundary are exempt.
        rising = ids[1:] > ids[:-1]
        bounds = self.g_indptr[1:-1]
        rising[bounds[(bounds > 0) & (bounds < ids.shape[0])] - 1] = True
        if not rising.all():
            raise ValueError("G neighbor lists are not sorted and distinct")
        # Symmetry and distance-tagging checks on a node sample.
        sample = np.linspace(0, n - 1, num=min(n, 16), dtype=np.int64)
        starts, stops = self.g_indptr[sample], self.g_indptr[sample + 1]
        rows = np.repeat(sample, stops - starts)
        slots = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
        nbrs = ids[slots]
        dists = self.g_dist[slots]
        if np.any(nbrs == rows):
            raise ValueError("self-loop in G adjacency")
        if np.any((dists < 1) | (dists > self.k)):
            raise ValueError("G neighbor distance outside [1, k]")
        # The sample's edges (v, u), reversed, must be exactly the slots
        # anywhere in the CSR that name a sampled node (both sets of keys
        # u * n + v come out sorted and distinct once rows are).
        sampled = np.zeros(n, dtype=bool)
        sampled[sample] = True
        back = np.flatnonzero(sampled[ids])
        back_rows = np.searchsorted(self.g_indptr, back, side="right") - 1
        if not np.array_equal(np.sort(nbrs * n + rows), back_rows * n + ids[back]):
            raise ValueError("G adjacency is not symmetric")


def build_small_world(
    n: int,
    d: int,
    seed: SeedLike = 0,
    *,
    h: HGraph | None = None,
    k: int | None = None,
) -> SmallWorldNetwork:
    """Sample ``H(n, d)`` (unless given) and add the ``L`` edges.

    ``k`` defaults to ``ceil(d/3)``; overriding it is used by the E14
    ablation (robustness as a function of the lattice radius).
    """
    if h is None:
        h = generate_hgraph(n, d, seed)
    if k is None:
        k = lattice_parameter(h.d)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    # G-neighbors of v are exactly B_H(v, k) \ {v}; one blocked all-sources
    # expansion collects every ball (see k_balls).
    g_indptr, g_indices, g_dist = k_balls(
        h.indptr, h.indices, np.arange(h.n, dtype=np.int64), k
    )
    net = SmallWorldNetwork(
        h=h, k=k, g_indptr=g_indptr, g_indices=g_indices, g_dist=g_dist
    )
    net.validate()
    return net


#: Sources :func:`k_balls` expands together.  A fixed block bounds the
#: working set near one block's balls rather than all ``n`` of them, and
#: keeps the block's tagged pair keys in ``int32`` while
#: ``2 * _BLOCK * n < 2**31`` (``n`` up to 8M nodes).
_BLOCK = 128


def k_balls(
    indptr: IntArray, indices: IntArray, sources: IntArray, k: int
) -> tuple[Int64Array, Int64Array, Int8Array]:
    """``B_H(v, k) \\ {v}`` with exact distances for every ``v`` in ``sources``.

    Returns the CSR ``(g_indptr, g_indices, g_dist)`` whose row ``i`` is the
    ball of ``sources[i]``: ``int64`` offsets, ``int64`` node ids sorted
    within each row, and ``int8`` distances ``dist_H(v, u)`` in ``[1, k]``.
    :func:`build_small_world` passes every node, so the result is the ``G``
    CSR; :class:`repro.graphs.delta.ResidentGraph` passes the nodes a churn
    delta touched.  Each row depends only on its ball's membership and
    distances, never on which other sources share the call.

    Sources expand breadth-first together, ``_BLOCK`` at a time.  A visited
    pair ``(row, u)`` is the integer key ``row * n + u``.  Each depth
    gathers the frontier's neighbors in one ragged pass, then one sort plus
    adjacent-unequal mask both deduplicates the candidate keys and drops
    those already in the previous two layers (a neighbor of a depth-``t``
    node lies at depth ``t - 1``, ``t`` or ``t + 1``, so older layers
    cannot recur).  One argsort over all fresh keys then yields rows in
    order and ids sorted within each row.
    """
    n = indptr.shape[0] - 1
    srcs = np.asarray(sources, dtype=np.int64)
    counts: list[Int64Array] = []
    id_parts: list[IntArray] = []
    dist_parts: list[Int8Array] = []
    for lo in range(0, srcs.shape[0], _BLOCK):
        c, ids, dists = _block_balls(indptr, indices, srcs[lo : lo + _BLOCK], k, n)
        counts.append(c)
        id_parts.append(ids)
        dist_parts.append(dists)
    g_indptr = np.zeros(srcs.shape[0] + 1, dtype=np.int64)
    if not counts:
        return g_indptr, np.empty(0, np.int64), np.empty(0, np.int8)
    np.cumsum(np.concatenate(counts), out=g_indptr[1:])
    g_indices = np.concatenate(id_parts, dtype=np.int64)
    g_dist = np.concatenate(dist_parts)
    return g_indptr, g_indices, g_dist


def _block_balls(
    indptr: IntArray, indices: IntArray, block: Int64Array, k: int, n: int
) -> tuple[Int64Array, IntArray, Int8Array]:
    """One block of :func:`k_balls`: per-row counts, sorted ids, distances."""
    b = block.shape[0]
    key_t = np.int32 if 2 * b * n < 2**31 else np.int64
    f_rows = np.arange(b, dtype=key_t)
    frontier = block.astype(key_t)
    layers = [f_rows * n + frontier]  # depth 0: the sources themselves
    for _ in range(k):
        deg = indptr[frontier + 1] - indptr[frontier]
        cand = gather_neighbors(indptr, indices, frontier).astype(key_t)
        cand += np.repeat(f_rows * n, deg)
        # Tag keys already seen even and candidates odd: after one sort each
        # key's copies sit together, a seen copy first, so a key is fresh
        # exactly when its group starts with a candidate.
        tagged = np.concatenate([2 * layer for layer in layers[-2:]] + [2 * cand + 1])
        tagged.sort()
        group = tagged >> 1
        fresh_mask = (tagged & 1).astype(bool)
        fresh_mask[1:] &= group[1:] != group[:-1]
        fresh = group[fresh_mask]
        if not fresh.size:
            break
        layers.append(fresh)
        f_rows = fresh // n
        frontier = fresh - f_rows * n
    sizes = [layer.shape[0] for layer in layers[1:]]
    keys = np.concatenate(layers[1:]) if sizes else np.empty(0, key_t)
    dists = np.repeat(np.arange(1, len(layers), dtype=np.int8), sizes)
    order = np.argsort(keys)
    keys = keys[order]
    key_rows = keys // n
    counts = np.bincount(key_rows, minlength=b).astype(np.int64, copy=False)
    return counts, keys - key_rows * n, dists[order]


def ball_chunk(
    indptr: IntArray, indices: IntArray, v: int, k: int
) -> tuple[Int64Array, Int8Array]:
    """One node's ``G``-adjacency chunk: ``B_H(v, k) \\ {v}`` with distances.

    Returns ``(neighbors, dists)`` — the sorted node ids within ``H``
    distance ``<= k`` of ``v`` (excluding ``v``) and their exact
    distances.  This is the one-source case of :func:`k_balls`, the unit
    :func:`build_small_world` lays out row by row in the ``G`` CSR and
    :class:`repro.graphs.delta.ResidentGraph` recomputes for nodes whose
    ``k``-ball a join/leave delta touched.
    """
    _, nodes, dists = k_balls(indptr, indices, np.array([v], dtype=np.int64), k)
    return nodes, dists
