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
from .balls import bfs_distances
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
    ablation (robustness as a function of the lattice radius).  The result
    is not re-checked with :meth:`SmallWorldNetwork.validate`: ``G`` is
    assembled from an already validated ``H`` by :func:`k_balls`, whose
    rows come out sorted, distinct and symmetric by construction (the
    property tests in ``tests/graphs/test_kballs.py`` hold that).
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
    return SmallWorldNetwork(
        h=h, k=k, g_indptr=g_indptr, g_indices=g_indices, g_dist=g_dist
    )


#: Sources :func:`k_balls` expands together.  A fixed block bounds the
#: working set near one block's balls rather than all ``n`` of them, and
#: keeps the block's packed keys in ``int32`` while they fit (see
#: :func:`_key_dtype`; ``n`` up to ~2M nodes at ``k = 3``).
_BLOCK = 128


def _key_dtype(span: int, k: int) -> type[np.signedinteger[Any]]:
    """Key dtype for ``span = block * n`` visited pairs expanded to depth ``k``.

    The last depth packs ``(row * n + node) << s | dist`` with
    ``s = k.bit_length()``; ``int32`` holds that with a bit to spare.
    """
    return np.int32 if span << (k.bit_length() + 1) < 2**31 else np.int64


def k_balls(
    indptr: IntArray, indices: IntArray, sources: IntArray, k: int
) -> tuple[Int64Array, Int64Array, Int8Array]:
    """``B_H(v, k) \\ {v}`` with exact distances for every ``v`` in ``sources``.

    Returns the CSR ``(g_indptr, g_indices, g_dist)`` whose row ``i`` is the
    ball of ``sources[i]``: ``int64`` offsets, ``int64`` node ids sorted
    within each row, and ``int8`` distances ``dist_H(v, u)`` in ``[1, k]``.
    :func:`build_small_world` passes every node, so the result is the ``G``
    CSR; :func:`ball_chunk` passes one.  Each row depends only on its
    ball's membership and distances, never on which other sources share
    the call.

    ``H`` is ``d``-regular (a union of ``d/2`` Hamiltonian cycles), so the
    CSR is read as an ``(n, d)`` table; a CSR whose degree is not uniform
    raises ``ValueError``.  Sources expand breadth-first together,
    ``_BLOCK`` at a time, and a visited pair ``(row, u)`` is the integer
    key ``row * n + u``.  Each depth below ``k`` gathers the frontier's
    neighbors with one row ``take`` on the table, then one sort plus
    adjacent-unequal mask both deduplicates the candidate keys and drops
    those already in the previous two layers (a neighbor of a depth-``t``
    node lies at depth ``t - 1``, ``t`` or ``t + 1``, so older layers
    cannot recur).  Depth ``k`` needs no layer of its own: every earlier
    layer and the depth-``k`` candidates are packed as
    ``key << s | dist`` and sorted once, so the first copy of each key
    carries its least distance, and keeping first copies yields rows in
    order, ids sorted within each row, and their distances.
    """
    n = indptr.shape[0] - 1
    srcs = np.asarray(sources, dtype=np.int64)
    deg = np.diff(indptr)
    if deg.size and np.any(deg != deg[0]):
        raise ValueError("k_balls needs a CSR of uniform degree (H is d-regular)")
    g_indptr = np.zeros(srcs.shape[0] + 1, dtype=np.int64)
    if not srcs.size:
        return g_indptr, np.empty(0, np.int64), np.empty(0, np.int8)
    key_t = _key_dtype(min(_BLOCK, srcs.shape[0]) * n, k)
    adj = indices[indptr[0] : indptr[-1]].astype(key_t).reshape(n, int(deg[0]))
    counts: list[Int64Array] = []
    id_parts: list[IntArray] = []
    dist_parts: list[Int8Array] = []
    for lo in range(0, srcs.shape[0], _BLOCK):
        c, ids, dists = _block_balls(adj, srcs[lo : lo + _BLOCK].astype(key_t), k)
        counts.append(c)
        id_parts.append(ids)
        dist_parts.append(dists)
    np.cumsum(np.concatenate(counts), out=g_indptr[1:])
    g_indices = np.concatenate(id_parts, dtype=np.int64)
    g_dist = np.concatenate(dist_parts)
    return g_indptr, g_indices, g_dist


def _block_balls(
    adj: IntArray, block: IntArray, k: int
) -> tuple[Int64Array, IntArray, Int8Array]:
    """One block of :func:`k_balls`: per-row counts, sorted ids, distances."""
    n, b = adj.shape[0], block.shape[0]
    row_base = np.arange(b + 1, dtype=adj.dtype) * n  # row r's keys: [r*n, (r+1)*n)
    base = row_base[:-1]  # row * n of each frontier node
    frontier = block
    layers = [base + frontier]  # depth 0: the sources themselves
    for _ in range(k - 1):
        cand = (adj.take(frontier, axis=0) + base[:, None]).ravel()
        # Tag keys already seen even and candidates odd: after one sort each
        # key's copies sit together, a seen copy first, so a key is fresh
        # exactly when its group starts with a candidate.
        tagged = np.concatenate([2 * layer for layer in layers[-2:]] + [2 * cand + 1])
        tagged.sort()
        group = tagged >> 1
        fresh_mask = (tagged & 1).astype(bool)
        fresh_mask[1:] &= group[1:] != group[:-1]
        fresh = np.compress(fresh_mask, group)
        layers.append(fresh)
        base = np.repeat(row_base[:-1], np.diff(np.searchsorted(fresh, row_base)))
        frontier = fresh - base
    # Depth k: pack every layer with its distance, plus the candidates at
    # distance k, and keep the first (least-distance) copy of each key
    # unless that copy is the source itself (distance 0).
    s = k.bit_length()
    cand = (adj.take(frontier, axis=0) + base[:, None]).ravel()
    packed = np.concatenate(
        [layer << s | t for t, layer in enumerate(layers)] + [cand << s | k]
    )
    packed.sort()
    group = packed >> s
    keep = np.empty(packed.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(group[1:], group[:-1], out=keep[1:])
    dist_mask = (1 << s) - 1
    keep &= (packed & dist_mask) != 0
    kept = np.compress(keep, packed)
    keys = kept >> s
    counts = np.diff(np.searchsorted(keys, row_base)).astype(np.int64, copy=False)
    ids = keys - np.repeat(row_base[:-1], counts)
    return counts, ids, (kept & dist_mask).astype(np.int8)


def ball_chunk(
    indptr: IntArray, indices: IntArray, v: int, k: int
) -> tuple[Int64Array, Int8Array]:
    """One node's ``G``-adjacency chunk: ``B_H(v, k) \\ {v}`` with distances.

    Returns ``(neighbors, dists)`` — the sorted node ids within ``H``
    distance ``<= k`` of ``v`` (excluding ``v``) and their exact
    distances.  This is the one-source case of :func:`k_balls`: row ``v``
    of the ``G`` CSR that :func:`build_small_world` lays out.
    """
    _, nodes, dists = k_balls(indptr, indices, np.array([v], dtype=np.int64), k)
    return nodes, dists
