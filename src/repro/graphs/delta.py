"""Join/leave deltas on a resident small-world network.

The continuous estimation service (:mod:`repro.service`) keeps overlays
alive across epochs.  :class:`ResidentGraph` holds the current
:class:`~repro.graphs.smallworld.SmallWorldNetwork` and applies membership
changes to its Hamiltonian cycles with the Law & Siu peer-to-peer
maintenance moves the ``H(n, d)`` model comes from:

* a **leave** splices the node out of each cycle (the cycle stays
  Hamiltonian on the survivors);
* node ids stay dense (``0..n-1``) via direct compaction: the survivors
  keep ids ``[0, n_live)``; each live node above that range moves into a
  vacated slot below it (sorted sources onto sorted destinations, so the
  moves are independent — no chained swaps), and a delta with ``l``
  leavers relabels at most ``l`` nodes;
* a **join** inserts the new node after a uniformly drawn anchor in each
  cycle (anchors may be nodes that joined earlier in the same delta).

Every cycle is then rotated so node 0 leads, and ``G = H ∪ L`` is rebuilt
from the new cycles by :func:`~repro.graphs.smallworld.build_small_world`
— one all-sources :func:`~repro.graphs.smallworld.k_balls` pass.  A delta
therefore yields exactly the cold build of its cycles, by construction.
Patching only the ``(k-1)``-ball around the changed edges does not pay:
at ``k = 3``, ``d = 8`` that ball covers most of the graph for a
single-node delta, and the full pass is faster than finding it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .._types import IntArray
from .hgraph import hgraph_from_cycles
from .smallworld import SmallWorldNetwork, build_small_world

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
        How many ``L`` adjacency rows were recomputed: every delta
        rebuilds ``G``, so this is the post-delta ``n``.
    """

    left: tuple[int, ...]
    joined: tuple[int, ...]
    relabeled: dict[int, int]
    recomputed: int


class ResidentGraph:
    """A ``G = H ∪ L`` instance that changes under join/leave churn.

    Build one with :meth:`from_network` (adopting a sampled network) or
    :meth:`sample`, mutate it with :meth:`apply_delta`, and read it with
    :meth:`snapshot`.  ``version`` counts applied deltas so kernel caches
    keyed on it invalidate precisely.
    """

    def __init__(self, net: SmallWorldNetwork) -> None:
        self._net = net
        self.version = 0

    @classmethod
    def from_network(cls, net: SmallWorldNetwork) -> "ResidentGraph":
        """Adopt a sampled network as the resident state (no recompute)."""
        return cls(net)

    @classmethod
    def sample(
        cls, n: int, d: int, seed: int = 0, *, k: int | None = None
    ) -> "ResidentGraph":
        """Sample a fresh network and adopt it (cold path, run once)."""
        return cls.from_network(build_small_world(n, d, seed=seed, k=k))

    @property
    def n(self) -> int:
        return self._net.n

    @property
    def d(self) -> int:
        return self._net.d

    @property
    def k(self) -> int:
        return self._net.k

    def snapshot(self) -> SmallWorldNetwork:
        """The current network (immutable; replaced by the next delta)."""
        return self._net

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
        deltas replay deterministically.  Leavers are spliced out,
        surviving ids are compacted to ``[0, n_live)``, and joins are
        appended last.  Raises :class:`TypeError` for a non-integer
        ``joins`` or leave array and :class:`ValueError` for
        out-of-range/duplicate leavers or a delta that would shrink the
        graph below 3 nodes; a rejected delta changes nothing.
        """
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                f"rng must be a numpy Generator (see repro.sim.rng), got "
                f"{type(rng).__name__}"
            )
        try:
            joins = operator.index(joins)
        except TypeError:
            raise TypeError(
                f"joins must be an integer, got {type(joins).__name__}"
            ) from None
        if joins < 0:
            raise ValueError(f"joins must be >= 0, got {joins}")
        leave_arr = np.atleast_1d(np.asarray(leaves))
        if leave_arr.ndim != 1:
            raise ValueError("leaves must be a 1-D sequence of node ids")
        n = self.n
        if leave_arr.size:
            if leave_arr.dtype.kind not in "iu":
                raise TypeError(
                    f"leave ids must be integers, got dtype {leave_arr.dtype}"
                )
            if leave_arr.min() < 0 or leave_arr.max() >= n:
                raise ValueError(
                    f"leave ids must be in [0, {n}), got "
                    f"[{leave_arr.min()}, {leave_arr.max()}]"
                )
            if np.unique(leave_arr).size != leave_arr.size:
                raise ValueError("leave ids must be distinct")
        n_live = n - int(leave_arr.size)
        if n_live < _MIN_NODES:
            raise ValueError(
                f"delta leaves {n_live} nodes; Hamiltonian cycles need >= "
                f"{_MIN_NODES}"
            )
        cycles = self._net.h.cycles
        half = cycles.shape[0]
        gone = np.zeros(n, dtype=bool)
        gone[leave_arr.astype(np.int64)] = True

        # Compaction plan (pure function of the leave set): every live node
        # above [0, n_live) moves directly into a vacated slot below it.
        # Matching sorted sources to sorted destinations keeps each move
        # independent (no chained swaps), so ``ids`` IS the old -> new map.
        move_srcs = np.flatnonzero(~gone[n_live:]) + n_live
        move_dsts = np.flatnonzero(gone[:n_live])
        ids = np.arange(n, dtype=np.int64)
        ids[move_srcs] = move_dsts

        # Splice the leavers out of every cycle (each row loses the same
        # nodes, so the kept entries reshape back to rows) and rename.
        rows = ids[cycles[~gone[cycles]].reshape(half, n_live)]

        # Joins: node ``nid`` goes right after a uniformly drawn anchor in
        # each cycle; the slots are cut into the flattened rows in one
        # insert (a slot at a row's end precedes the next row's start).
        for nid in range(n_live, n_live + joins):
            anchors = np.array([rng.integers(nid) for _ in range(half)])
            after = (rows == anchors[:, None]).argmax(axis=1) + 1
            slots = np.arange(half) * nid + after
            rows = np.insert(rows.ravel(), slots, nid).reshape(half, nid + 1)

        # Rotate each cycle so node 0 leads (one canonical rotation, so
        # ``h.cycles`` depends only on the cyclic orders), then rebuild G.
        m = rows.shape[1]
        lead = (rows == 0).argmax(axis=1)
        rows = np.take_along_axis(rows, (lead[:, None] + np.arange(m)) % m, axis=1)
        self._net = build_small_world(m, self.d, h=hgraph_from_cycles(rows), k=self.k)
        self.version += 1
        return AppliedDelta(
            left=tuple(np.flatnonzero(gone).tolist()),
            joined=tuple(range(n_live, m)),
            relabeled=dict(zip(move_srcs.tolist(), move_dsts.tolist())),
            recomputed=m,
        )
