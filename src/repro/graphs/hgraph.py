"""The ``H(n, d)`` random regular multigraph model (Section 2.1, Appendix A).

``H(n, d)`` is constructed as the union of ``d/2`` Hamiltonian cycles chosen
independently and uniformly at random on the vertex set ``{0, ..., n-1}``
(Law & Siu's peer-to-peer construction).  The result is a ``d``-regular
multigraph that is an expander — in fact near-Ramanujan — with high
probability (Lemma 19, citing Friedman).

The adjacency is stored in CSR form (``indptr``, ``indices``) with
multiplicity preserved, because the protocol's flooding kernel and all BFS
utilities consume CSR directly.  ``indptr`` is the trivial ``arange * d``
since the graph is exactly regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .._types import Int64Array, IntArray, SeedLike
from ..sim.rng import make_rng
from .balls import bfs_distances

__all__ = [
    "HGraph",
    "generate_hgraph",
    "hamiltonian_cycle_edges",
    "hgraph_from_cycles",
]


def hamiltonian_cycle_edges(perm: IntArray) -> tuple[IntArray, IntArray]:
    """Edge endpoints ``(u, v)`` of the cycle visiting ``perm`` in order."""
    u = np.asarray(perm)
    v = np.roll(u, -1)
    return u, v


@dataclass(frozen=True)
class HGraph:
    """A concrete sample of the ``H(n, d)`` model.

    Attributes
    ----------
    n, d:
        Vertex count and (even) uniform degree.
    cycles:
        Array of shape ``(d // 2, n)``; row ``c`` is the vertex order of
        Hamiltonian cycle ``c``.
    indptr, indices:
        CSR adjacency with multiplicity; ``indices[indptr[v]:indptr[v+1]]``
        lists the ``d`` neighbors of ``v`` (a neighbor appears once per
        parallel edge).
    """

    n: int
    d: int
    cycles: Int64Array
    indptr: Int64Array = field(repr=False)
    indices: Int64Array = field(repr=False)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> Int64Array:
        """The ``d`` neighbors of ``v`` (with multiplicity), as a view."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @cached_property
    def sorted_rows(self) -> Int64Array:
        """``(n, d)`` read-only table; row ``v`` lists ``v``'s neighbors sorted.

        Built on first use and kept for the graph's lifetime: it is every
        node's truthful pre-phase claim, so claims compare against it
        without re-sorting adjacency per node.
        """
        rows = np.sort(self.indices.reshape(self.n, self.d), axis=1)
        rows.flags.writeable = False
        return rows

    def unique_neighbors(self, v: int) -> Int64Array:
        """Distinct neighbors of ``v`` (multi-edges collapsed)."""
        return np.unique(self.neighbors(v))

    def neighbor_sets(self) -> list[frozenset[int]]:
        """Distinct-neighbor sets for every node (for set-algebra checks)."""
        return [frozenset(self.unique_neighbors(v).tolist()) for v in range(self.n)]

    @property
    def num_edges(self) -> int:
        """Number of edges counted with multiplicity (= n * d / 2)."""
        return self.n * self.d // 2

    def edge_list(self) -> tuple[Int64Array, Int64Array]:
        """All edges (u, v) with multiplicity, one direction per edge."""
        us: list[Int64Array] = []
        vs: list[Int64Array] = []
        for c in range(self.cycles.shape[0]):
            u, v = hamiltonian_cycle_edges(self.cycles[c])
            us.append(u)
            vs.append(v)
        return np.concatenate(us), np.concatenate(vs)

    def multi_edge_count(self) -> int:
        """Number of parallel-edge duplicates (0 for a simple graph)."""
        u, v = self.edge_list()
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = lo.astype(np.int64) * self.n + hi
        return int(keys.size - np.unique(keys).size)

    def is_connected(self) -> bool:
        dist = bfs_distances(self.indptr, self.indices, 0)
        return bool(np.all(dist != -1))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_scipy(self) -> Any:
        """Adjacency as a ``scipy.sparse.csr_array`` with multiplicity counts."""
        from scipy.sparse import csr_array

        data = np.ones(self.indices.shape[0], dtype=np.float64)
        mat = csr_array(
            (data, self.indices.copy(), self.indptr.copy()), shape=(self.n, self.n)
        )
        mat.sum_duplicates()
        return mat

    def to_networkx(self) -> Any:
        """Return the graph as a :class:`networkx.MultiGraph`."""
        import networkx as nx

        g = nx.MultiGraph()
        g.add_nodes_from(range(self.n))
        u, v = self.edge_list()
        g.add_edges_from(zip(u.tolist(), v.tolist()))
        return g

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if the CSR structure is inconsistent."""
        if self.d % 2 != 0 or self.d < 2:
            raise ValueError(f"degree must be even and >= 2, got {self.d}")
        if self.cycles.shape != (self.d // 2, self.n):
            raise ValueError("cycles array has wrong shape")
        expected_indptr = np.arange(self.n + 1, dtype=np.int64) * self.d
        if not np.array_equal(self.indptr, expected_indptr):
            raise ValueError("indptr is not d-regular")
        degs = np.bincount(self.indices, minlength=self.n)
        if not np.all(degs == self.d):
            raise ValueError("indices do not form a d-regular multigraph")
        for c in range(self.cycles.shape[0]):
            row = np.sort(self.cycles[c])
            if not np.array_equal(row, np.arange(self.n)):
                raise ValueError(f"cycle {c} is not a permutation of the vertices")


def generate_hgraph(n: int, d: int, seed: SeedLike = 0) -> HGraph:
    """Sample an ``H(n, d)`` graph: the union of ``d/2`` random Hamiltonian cycles.

    Parameters
    ----------
    n:
        Number of vertices (``n >= 3`` so cycles have no self-loops).
    d:
        Even uniform degree.  The paper assumes ``d >= 8``; smaller even
        values are permitted here for unit tests.
    seed:
        Integer seed, generator, or ``None``.
    """
    if n < 3:
        raise ValueError(f"H(n, d) requires n >= 3, got n={n}")
    if d % 2 != 0 or d < 2:
        raise ValueError(f"H(n, d) requires even d >= 2, got d={d}")
    rng = make_rng(seed)
    half = d // 2
    cycles = np.empty((half, n), dtype=np.int64)
    for c in range(half):
        cycles[c] = rng.permutation(n)
    return hgraph_from_cycles(cycles)


def hgraph_from_cycles(cycles: Int64Array) -> HGraph:
    """Assemble an :class:`HGraph` from an explicit ``(d/2, n)`` cycle array.

    This is the CSR-assembly half of :func:`generate_hgraph`, split out so
    callers that *derive* cycles some other way — the churn layer
    (:mod:`repro.graphs.delta`) rebuilds each post-delta ``H`` from its
    spliced cycles here — produce adjacency bit-for-bit identical to a
    sampled graph with the same cycles.  Row ``v`` is ``[succ_0(v),
    pred_0(v), succ_1(v), pred_1(v), ...]``, one successor/predecessor pair
    per cycle in cycle order — the stable argsort keeps the per-cycle
    append order within each row.
    """
    cycles = np.ascontiguousarray(cycles, dtype=np.int64)
    if cycles.ndim != 2:
        raise ValueError(f"cycles must be a (d/2, n) array, got shape {cycles.shape}")
    half, n = cycles.shape
    if n < 3:
        raise ValueError(f"H(n, d) requires n >= 3, got n={n}")
    if half < 1:
        raise ValueError("H(n, d) requires at least one cycle (even d >= 2)")
    d = 2 * half

    # Build CSR adjacency in one shot: every vertex gains two neighbors per
    # cycle (its predecessor and successor on the cycle).
    src = np.empty(n * d, dtype=np.int64)
    dst = np.empty(n * d, dtype=np.int64)
    pos = 0
    for c in range(half):
        u, v = hamiltonian_cycle_edges(cycles[c])
        m = u.shape[0]
        src[pos : pos + m] = u
        dst[pos : pos + m] = v
        src[pos + m : pos + 2 * m] = v
        dst[pos + m : pos + 2 * m] = u
        pos += 2 * m
    order = np.argsort(src, kind="stable")
    indices = dst[order]
    indptr = np.arange(n + 1, dtype=np.int64) * d
    graph = HGraph(n=n, d=d, cycles=cycles, indptr=indptr, indices=indices)
    graph.validate()
    return graph
