"""k-neighborhood reconstruction and the crash rule (Lemma 3, Alg. 2 lines 1-2).

Nodes know their ``G``-ports but not which incident edges belong to ``H``.
At startup every node broadcasts its (claimed) ``H``-adjacency list; from
its ``G``-neighbors' claims an honest node ``v``:

* recovers its own ``H``-neighbors (``u`` is one iff ``u`` claims ``v``),
* reconstructs the BFS structure of its ``k``-ball in ``H`` (Lemma 3), and
* **crashes** if two or more neighbors provide contradictory information
  (Algorithm 2 line 2).

Contradictions detectable by ``v`` (all used in Lemma 15 / Figure 1):

1. *Asymmetry*: ``u`` claims ``w`` as H-neighbor but ``w`` (also heard by
   ``v``) does not claim ``u`` — e.g. a liar suppressing a real child whose
   direct ``L`` edge to ``v`` lets it testify.
2. *Phantom*: a node placed at claim-distance ``<= k - 1`` from ``v``
   claims a neighbor that is not among ``v``'s physical ports.  Any node
   within ``k`` of ``v`` in ``H`` *must* be a ``G``-neighbor, so a dummy ID
   (Figure 1's ``b2``) is impossible to hide inside the ball.
3. *Degree violation*: a claimed H-adjacency list that does not have
   exactly ``d`` entries.

The simulator-side :func:`crash_phase` computes which honest nodes crash
for a given set of Byzantine claims, and :func:`reconstruct_h_ball` is the
honest-node reconstruction used by the agent engine and the E12 tests.
"""

from __future__ import annotations

import numpy as np

from .._types import BoolArray, IntArray
from ..graphs.smallworld import SmallWorldNetwork

__all__ = [
    "ConflictError",
    "AdjacencyClaims",
    "ByzantineClaims",
    "truthful_claims",
    "reconstruct_h_ball",
    "find_conflicts",
    "crash_phase",
    "infer_child_relation",
]


class ConflictError(Exception):
    """Raised by reconstruction when claims are contradictory."""

    def __init__(self, message: str, witnesses: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.witnesses = witnesses


#: Mapping node id -> claimed H-neighbor tuple (sorted).
AdjacencyClaims = dict[int, tuple[int, ...]]

#: Byzantine claim map: ``None`` models a silent node (no claim broadcast).
ByzantineClaims = dict[int, tuple[int, ...] | None]


def truthful_claims(net: SmallWorldNetwork, nodes: IntArray | None = None) -> AdjacencyClaims:
    """The honest claims: each node's true H-adjacency *with multiplicity*.

    ``H`` is a multigraph, so an honest claim always has exactly ``d``
    entries; a node incident to a parallel edge lists that neighbor twice.
    """
    rows = net.h.sorted_rows
    if nodes is None:
        return dict(enumerate(map(tuple, rows.tolist())))
    ids = [int(v) for v in nodes]
    return dict(zip(ids, map(tuple, rows[ids].tolist())))


def _liars(net: SmallWorldNetwork, byz_claims: ByzantineClaims) -> list[int]:
    """The Byzantine nodes whose claim differs from their true H row.

    A claim of the wrong length lies outright; the rest are sorted as one
    ``(m, d)`` block and compared with :attr:`HGraph.sorted_rows`.
    """
    d = net.d
    liars: list[int] = []
    nodes: list[int] = []
    claims: list[tuple[int, ...]] = []
    for b, claim in byz_claims.items():
        if claim is None:
            continue
        if len(claim) != d:
            liars.append(int(b))
        else:
            nodes.append(int(b))
            claims.append(tuple(claim))
    if nodes:
        claimed = np.sort(np.asarray(claims), axis=1)
        differs = (claimed != net.h.sorted_rows[nodes]).any(axis=1)
        liars.extend(b for b, lie in zip(nodes, differs.tolist()) if lie)
    return liars


def _claim_set(claims: AdjacencyClaims, u: int) -> set[int] | None:
    got = claims.get(u)
    return None if got is None else set(got)


def reconstruct_h_ball(
    v: int,
    ports: IntArray,
    claims: AdjacencyClaims,
    k: int,
    d: int,
) -> dict[int, int]:
    """Reconstruct ``dist_H(v, .)`` over ``B_H(v, k)`` from neighbor claims.

    Parameters
    ----------
    v:
        The reconstructing node.
    ports:
        ``v``'s physical ``G``-neighbors (trusted; they are hardware).
    claims:
        Claimed H-adjacency per node (at least for every port that spoke).
        Silent nodes are simply absent; silence is not a contradiction.
    k, d:
        The lattice radius and uniform degree.

    Returns the mapping node -> inferred ``dist_H(v, node)`` for the ball.
    Raises :class:`ConflictError` on any contradiction (the node crashes).
    """
    port_set = {int(u) for u in ports}
    known = port_set | {v}

    # Degree sanity for every speaking port (claims carry multiplicity, so
    # an honest claim has exactly d entries even with parallel edges).
    for u in port_set:
        raw = claims.get(u)
        if raw is not None and len(raw) != d:
            raise ConflictError(f"node {u} claims degree {len(raw)} != {d}", (u,))

    # Pairwise symmetry among heard nodes.
    for u in port_set:
        cu = _claim_set(claims, u)
        if cu is None:
            continue
        for w in cu:
            if w in port_set:
                cw = _claim_set(claims, w)
                if cw is not None and u not in cw:
                    raise ConflictError(
                        f"asymmetric claim: {u} names {w} but not vice versa",
                        (u, w),
                    )

    # Level-by-level BFS through the claim graph.
    dist = {v: 0}
    frontier = sorted(
        u for u in port_set if (cs := _claim_set(claims, u)) is not None and v in cs
    )
    for u in frontier:
        dist[u] = 1
    level = 1
    while level < k and frontier:
        nxt: list[int] = []
        for u in frontier:
            cu = _claim_set(claims, u)
            if cu is None:
                continue
            for w in sorted(cu):
                if w in dist:
                    continue
                if w not in known:
                    # A claimed node at distance level+1 <= k must be a
                    # physical G-neighbor of v: phantom detected.
                    raise ConflictError(
                        f"node {u} at distance {level} claims {w}, which is "
                        f"not a G-neighbor of {v}",
                        (u,),
                    )
                dist[w] = level + 1
                nxt.append(w)
        frontier = nxt
        level += 1
    return dist


def find_conflicts(
    v: int, ports: IntArray, claims: AdjacencyClaims, k: int, d: int
) -> tuple[int, ...]:
    """Witness tuple if ``v`` would crash, else empty tuple."""
    try:
        reconstruct_h_ball(v, ports, claims, k, d)
    except ConflictError as err:
        return err.witnesses if err.witnesses else (v,)
    return ()


def crash_phase(
    net: SmallWorldNetwork,
    byz_mask: BoolArray,
    byz_claims: ByzantineClaims,
) -> BoolArray:
    """Simulate Algorithm 2 lines 1-2: which honest nodes crash.

    ``byz_claims`` maps each Byzantine node to its claimed H-adjacency
    (omit a node for silence).  Honest nodes claim truthfully.  Returns the
    boolean crash mask over all nodes (Byzantine nodes never "crash").

    Only honest nodes with at least one lying Byzantine ``G``-neighbor can
    possibly crash, so the simulation only reconstructs around those.
    """
    byz_mask = np.asarray(byz_mask, dtype=bool)
    crashed = np.zeros(net.n, dtype=bool)
    liars = _liars(net, byz_claims)
    if not liars:
        return crashed
    suspects: set[int] = set()
    for b in liars:
        for u in net.g_neighbors(b):
            if not byz_mask[u]:
                suspects.add(int(u))
    rows = net.h.sorted_rows
    truth_cache: AdjacencyClaims = {}

    def claim_of(u: int) -> tuple[int, ...] | None:
        if byz_mask[u]:
            return byz_claims.get(u)
        got = truth_cache.get(u)
        if got is None:
            got = tuple(rows[u].tolist())
            truth_cache[u] = got
        return got

    for v in sorted(suspects):
        ports = net.g_neighbors(v)
        local_claims: AdjacencyClaims = {}
        for u in ports:
            c = claim_of(int(u))
            if c is not None:
                local_claims[int(u)] = c
        if find_conflicts(v, ports, local_claims, net.k, net.d):
            crashed[v] = True
    return crashed


def infer_child_relation(
    ng_v: set[int], ng_u: set[int], ng_w: set[int]
) -> str:
    """Lemma 3's set-algebra rule for two G-neighbors ``u, w`` of ``v``.

    Returns ``"w_child_of_u"``, ``"u_child_of_w"``, ``"siblings"`` or
    ``"unrelated"`` based on strict inclusion of ``N_G(.) ∩ N_G(v)``.
    """
    iu = ng_u & ng_v
    iw = ng_w & ng_v
    if iw < iu:
        return "w_child_of_u"
    if iu < iw:
        return "u_child_of_w"
    if iu == iw:
        return "siblings"
    return "unrelated"
