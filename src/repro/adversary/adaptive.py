"""Adaptive and mobile Byzantine adversaries (the scenario-pack attackers).

The base protocol's :meth:`~repro.adversary.base.Adversary.batch_adapt`
hook lets an adversary relocate its placement *between subphases* from the
traffic it observed.  Two concrete attackers live here:

* :class:`MobileAdversary` — the Byzantine set *walks the graph*: at each
  adaptation point every Byzantine node steps to a uniformly chosen free
  ``G``-neighbor (count-preserving, collision-free).  The walk randomness
  comes from a dedicated stream spawned off the adversary's first trial
  stream at bind time, so the inner strategy's own draws are bit-for-bit
  unchanged (spawning advances the child counter, not the bitstream).
  Draw contract: one bounded draw per walker per adaptation point (a
  single vectorized ``integers`` call over the walkers with at least one
  neighbor, in ascending node order), plus one bounded redraw per
  collision that leaves the walker a free neighbor.
* :class:`TrafficAdaptiveAdversary` — re-places the whole Byzantine set
  onto the nodes that transmitted in the most (``mode="hot"``) or fewest
  (``mode="cold"``) rounds since the last adaptation point, summed across
  the live trials.  Hot placement parks the attackers on the flooding
  backbone; cold placement hides them where the protocol looks least.

Both are *wrappers* in the :class:`TopologyLiarAdversary` idiom: the
during-subphase behavior delegates to an ``inner`` adversary (default:
honest behavior), so mobility/adaptivity composes with every built-in
strategy — ``MobileAdversary(EarlyStopAdversary())`` is a roaming
early-stopper.  The inner plans read placement from ``state.byz_nodes``
(all built-ins do), so they follow relocations automatically.

The engines apply one placement per adversary *group* (all trials bound to
one instance share a mask), so adaptation here is group-level: one walk /
one traffic ranking per adaptation point, deterministic given the bound
seed universe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .._types import BoolArray, Int64Array, IntArray
from ..sim.rng import spawn
from .base import (
    Adversary,
    BatchAdaptationState,
    BatchSubphasePlan,
    BatchSubphaseState,
    SubphasePlan,
    SubphaseState,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import CountingConfig
    from ..core.neighborhood import ByzantineClaims
    from ..graphs.smallworld import SmallWorldNetwork

__all__ = ["MobileAdversary", "TrafficAdaptiveAdversary", "walk_step"]


class _DelegatingAdversary(Adversary):
    """Shared wrapper plumbing: bind and plan hooks delegate to ``inner``."""

    def __init__(self, inner: Adversary | None = None) -> None:
        super().__init__()
        self.inner = inner if inner is not None else Adversary()

    def bind(
        self,
        network: "SmallWorldNetwork",
        byz_mask: BoolArray,
        rng: np.random.Generator | None,
        config: "CountingConfig",
    ) -> None:
        super().bind(network, byz_mask, rng, config)
        self.inner.bind(network, byz_mask, rng, config)

    def bind_batch(
        self,
        network: "SmallWorldNetwork",
        byz_mask: BoolArray,
        rngs: Sequence[np.random.Generator],
        config: "CountingConfig",
    ) -> None:
        super().bind_batch(network, byz_mask, rngs, config)
        self.inner.bind_batch(network, byz_mask, rngs, config)

    def topology_claims(self) -> "ByzantineClaims":
        return self.inner.topology_claims()

    def batch_topology_claims(self) -> "list[ByzantineClaims]":
        return self.inner.batch_topology_claims()

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        return self.inner.subphase_plan(state)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        return self.inner.batch_subphase_plan(state)


class MobileAdversary(_DelegatingAdversary):
    """Byzantine set walks the graph between subphases.

    At every adaptation point each Byzantine node (in ascending node
    order) steps to a uniformly chosen ``G``-neighbor not already claimed
    by an earlier walker this step; if every neighbor is claimed it stays
    put (and, in the degenerate case where even its own position was
    claimed, takes the lowest free node).  The rule is count-preserving
    and collision-free by construction, and deterministic given the walk
    stream — a child spawned off the first trial's adversary stream at
    :meth:`bind_batch`, which leaves the inner strategy's bitstreams
    untouched.

    The walk stream is read as follows (see :func:`walk_step`): one
    vectorized ``integers(0, deg)`` call picks a neighbor for every walker
    with ``deg >= 1`` at once; when the picks are distinct they are the
    destinations.  Otherwise walkers resolve in ascending order, and one
    whose pick an earlier walker already claimed redraws once, uniformly
    over its unclaimed neighbors.  A first pick is uniform over all
    neighbors and a redraw happens exactly when it lands on one of the
    ``c`` claimed ones, so each unclaimed neighbor is reached with
    probability ``1/deg + (c/deg) / (deg - c) = 1/(deg - c)`` — the
    stated law.  Cost: one bounded draw per walker per adaptation point,
    plus one per collision that leaves a free neighbor.
    """

    name = "mobile"

    def __init__(self, inner: Adversary | None = None) -> None:
        super().__init__(inner)
        self._walk_rng: np.random.Generator | None = None

    def bind_batch(
        self,
        network: "SmallWorldNetwork",
        byz_mask: BoolArray,
        rngs: Sequence[np.random.Generator],
        config: "CountingConfig",
    ) -> None:
        super().bind_batch(network, byz_mask, rngs, config)
        self._walk_rng = spawn(self.batch_rngs[0], 1)[0] if self.batch_rngs else None

    def batch_adapt(self, state: BatchAdaptationState) -> BoolArray | None:
        rng = self._walk_rng
        if rng is None or state.byz_nodes.shape[0] == 0:
            return None
        net = state.network
        dests = walk_step(net.g_indptr, net.g_indices, state.byz_nodes, state.n, rng)
        mask = np.zeros(state.n, dtype=bool)
        mask[dests] = True
        return mask


def walk_step(
    g_indptr: Int64Array,
    g_indices: Int64Array,
    walkers: IntArray,
    n: int,
    rng: np.random.Generator,
) -> Int64Array:
    """One :class:`MobileAdversary` step: the destination of each walker.

    ``walkers`` are distinct node IDs in ascending order and ``g_indptr`` /
    ``g_indices`` the ``G`` CSR over ``n`` nodes; the result is aligned
    with ``walkers`` and holds distinct node IDs.  See the class docstring
    for the rule, its law and its draw contract.
    """
    starts = g_indptr[walkers]
    deg = g_indptr[walkers + 1] - starts
    movable = deg > 0
    if movable.all():
        dests = g_indices[starts + rng.integers(0, deg)]
        order = np.argsort(dests, kind="stable")
        ranked = dests[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if not repeats.shape[0]:
            return dests
        first = int(repeats.min())
    else:
        dests = np.full(walkers.shape[0], -1, dtype=np.int64)
        dests[movable] = g_indices[starts[movable] + rng.integers(0, deg[movable])]
        first = 0

    # The picks before ``first`` are distinct, so they stand; resolve the
    # rest in ascending order against the destinations claimed so far.
    taken = set(dests[:first].tolist())
    for i, pick in enumerate(dests[first:].tolist(), start=first):
        if pick < 0 or pick in taken:
            claimed = np.zeros(n, dtype=bool)
            claimed[dests[:i]] = True
            nbrs = g_indices[starts[i] : starts[i] + deg[i]]
            free = nbrs[~claimed[nbrs]]
            if free.shape[0]:
                pick = int(free[rng.integers(free.shape[0])])
            else:
                pick = int(walkers[i])
                if pick in taken:
                    pick = int(np.flatnonzero(~claimed)[0])
            dests[i] = pick
        taken.add(pick)
    return dests


class TrafficAdaptiveAdversary(_DelegatingAdversary):
    """Re-place the Byzantine set by observed transmission traffic.

    Ranks nodes by total attempted transmissions since the last adaptation
    point (summed over live trials, ties broken toward lower node IDs) and
    claims the top (``mode="hot"``) or bottom (``mode="cold"``) ``|byz|``
    nodes.  Purely deterministic — no randomness is consumed.
    """

    name = "traffic-adaptive"

    def __init__(self, inner: Adversary | None = None, mode: str = "hot") -> None:
        super().__init__(inner)
        if mode not in ("hot", "cold"):
            raise ValueError(f"mode must be 'hot' or 'cold', got {mode!r}")
        self.mode = mode

    def batch_adapt(self, state: BatchAdaptationState) -> BoolArray | None:
        m = state.byz_nodes.shape[0]
        if m == 0:
            return None
        totals = state.traffic.sum(axis=1)
        key = -totals if self.mode == "hot" else totals
        order = np.argsort(key, kind="stable")
        mask = np.zeros(state.n, dtype=bool)
        mask[order[:m]] = True
        return mask
