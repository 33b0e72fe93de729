"""Concrete Byzantine strategies — the worst cases Section 3.4 identifies.

Each strategy is one bullet of the attack-surface analysis (DESIGN.md §2.4):

* :class:`EarlyStopAdversary` — downward pressure: announce an enormous
  "generated" color at subphase start.  Honest nodes within distance
  ``< i`` then see the record early, never observe a last-round record,
  and decide prematurely.  Bounded by distance (Lemma 11 / |BUS| = o(n)).
* :class:`InflationAdversary` — upward pressure: inject a record color as
  *late* as verification allows (round ``k - 1``) so that nodes at distance
  ``i - (k - 1)`` see it arrive exactly in their last round and keep going.
  Bounded by Lemma 16 + Lemma 17 (expander saturation).
* :class:`SuppressionAdversary` — never relay the running maximum
  (defeated by expansion: alternate paths carry it).
* :class:`SilentAdversary` — full crash-like silence (a sanity control).
* :class:`TopologyLiarAdversary` — lie in the pre-phase to crash honest
  neighborhoods (Lemma 15's subject; measures Lemma 14's Core resilience).
* :class:`ComboAdversary` — splits the Byzantine budget between early-stop
  and inflation roles, the strongest composite we know against Alg. 2.
* :class:`AdaptiveRecordAdversary` — full-information stealth variant: the
  injected value is exactly ``(global honest max this subphase) + 1``,
  the minimal value that still wins every comparison.

Every strategy is ported to the batched adversary protocol
(``batch_subphase_plan`` over :class:`~repro.adversary.base.BatchSubphaseState`,
see the :mod:`repro.adversary.base` docstring): batch plans are built
natively in the dense form — a ``(byz, B)`` initial-color matrix and a
``(T, byz, B)`` injection array with its ``(T, B)`` injection counts —
with column ``j`` bit-for-bit equal to the scalar plan trial ``j`` would
receive, so Algorithm 2 sweeps run on the trial-batched engine without a
per-trial Python fallback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._types import BoolArray, Int64Array
from ..core.colors import sample_color_columns, sample_colors
from .base import (
    Adversary,
    BatchSubphasePlan,
    BatchSubphaseState,
    Injection,
    SubphasePlan,
    SubphaseState,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import CountingConfig
    from ..core.neighborhood import ByzantineClaims
    from ..graphs.smallworld import SmallWorldNetwork

__all__ = [
    "EarlyStopAdversary",
    "InflationAdversary",
    "SuppressionAdversary",
    "SilentAdversary",
    "TopologyLiarAdversary",
    "ComboAdversary",
    "AdaptiveRecordAdversary",
]

#: A color far above any honest draw at laptop scale (honest maxima are
#: ~log2 n + O(1) whp; Lemma 12 bounds them by 4 log2 n - 1).
HUGE_COLOR = 1 << 20


class EarlyStopAdversary(Adversary):
    """Push every reachable node into deciding as early as possible."""

    name = "early-stop"

    def __init__(self, value: int = HUGE_COLOR) -> None:
        super().__init__()
        self.value = value

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        colors = np.full(state.byz_nodes.shape[0], self.value, dtype=np.int64)
        return SubphasePlan(initial_colors=colors, injections=[], relay=True)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        colors = np.full(
            (state.byz_nodes.shape[0], state.batch), self.value, dtype=np.int64
        )
        return BatchSubphasePlan(initial_colors=colors)


class InflationAdversary(Adversary):
    """Keep nodes alive past their natural decision phase.

    Injects a strictly escalating record at *every* round of every
    subphase: a node at distance ``j`` from a Byzantine node then receives
    a fresh record in its final round whenever some injection round
    satisfies ``t + j = i``.  The engine enforces Lemma 16, so with
    verification on only the rounds ``t <= k - 1`` survive (rejections are
    counted) and estimates cap near ``ecc + k - 1``; with verification off
    every node keeps seeing last-round records and **never terminates** —
    the network looks arbitrarily large, exactly the failure mode the
    paper's introduction warns about.
    """

    name = "inflation"

    def __init__(self, base_value: int = HUGE_COLOR) -> None:
        super().__init__()
        self.base_value = base_value

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        # Values strictly increase across rounds, subphases and phases so
        # each arrival is a fresh record.
        stamp = (state.phase * 4096 + state.subphase) * 64
        injections = [
            Injection(
                t=t,
                nodes=state.byz_nodes,
                value=self.base_value + stamp + t,
            )
            for t in range(1, state.rounds + 1)
        ]
        return SubphasePlan(initial_colors=None, injections=injections, relay=True)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        # The schedule depends only on (phase, subphase): one value per
        # round, shared by every Byzantine row and trial.
        stamp = (state.phase * 4096 + state.subphase) * 64
        rounds = np.arange(1, state.rounds + 1, dtype=np.int64)
        return _every_node_plan(state, (self.base_value + stamp + rounds)[:, None])


class SuppressionAdversary(Adversary):
    """Byzantine nodes generate nothing and never relay."""

    name = "suppression"

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        return SubphasePlan(initial_colors=None, injections=[], relay=False)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        return BatchSubphasePlan(relay=False)


class SilentAdversary(Adversary):
    """Indistinguishable from crashed nodes (control strategy)."""

    name = "silent"

    def topology_claims(self) -> ByzantineClaims:
        return {}  # silence in the pre-phase is not a contradiction

    def batch_topology_claims(self) -> list[ByzantineClaims]:
        return [{} for _ in self.batch_rngs]

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        return SubphasePlan(initial_colors=None, injections=[], relay=False)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        return BatchSubphasePlan(relay=False)


class TopologyLiarAdversary(Adversary):
    """Pre-phase lies: swap one real H-neighbor for a phantom ID.

    This is Figure 1's move in its simplest form: the liar suppresses a
    real child and invents a dummy one.  Lemma 15 predicts every honest
    G-neighbor that can cross-examine detects it and crashes.  During the
    counting phases the liar behaves like ``inner`` (default: honest).
    """

    name = "topology-liar"

    def __init__(
        self, inner: Adversary | None = None, phantom_base: int | None = None
    ) -> None:
        super().__init__()
        self.inner = inner or Adversary()
        self.phantom_base = phantom_base

    def bind(
        self,
        network: SmallWorldNetwork,
        byz_mask: BoolArray,
        rng: np.random.Generator | None,
        config: CountingConfig,
    ) -> None:
        super().bind(network, byz_mask, rng, config)
        self.inner.bind(network, byz_mask, rng, config)

    def topology_claims(self) -> ByzantineClaims:
        assert self.network is not None and self.byz_mask is not None
        base = self.phantom_base if self.phantom_base is not None else self.network.n
        claims: ByzantineClaims = {}
        for idx, b in enumerate(np.flatnonzero(self.byz_mask)):
            # Claims carry multiplicity (d entries); swap the first real
            # entry for a phantom ID, keeping the degree at exactly d.
            real = sorted(int(u) for u in self.network.h.neighbors(int(b)))
            fake = real[1:] + [base + idx]
            claims[int(b)] = tuple(fake)
        return claims

    def batch_topology_claims(self) -> list[ByzantineClaims]:
        # Claims depend only on the bound network, so compute them once;
        # the engine deduplicates identical claim sets anyway.
        claims = self.topology_claims()
        return [claims for _ in self.batch_rngs]

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        return self.inner.subphase_plan(state)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        return self.inner.batch_subphase_plan(state)


class ComboAdversary(Adversary):
    """Split the budget: half early-stop, half inflation."""

    name = "combo"

    def __init__(self, early_fraction: float = 0.5, value: int = HUGE_COLOR) -> None:
        super().__init__()
        if not 0.0 <= early_fraction <= 1.0:
            raise ValueError("early_fraction must be in [0, 1]")
        self.early_fraction = early_fraction
        self.value = value

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        m = state.byz_nodes.shape[0]
        split = int(round(m * self.early_fraction))
        early, late = state.byz_nodes[:split], state.byz_nodes[split:]
        colors = np.zeros(m, dtype=np.int64)
        colors[:split] = self.value
        injections: list[Injection] = []
        if late.size:
            t = max(1, min(state.k - 1, state.rounds))
            injections.append(
                Injection(t=t, nodes=late, value=self.value + state.phase)
            )
        initial = colors if split else None
        return SubphasePlan(initial_colors=initial, injections=injections, relay=True)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        m, batch = state.byz_nodes.shape[0], state.batch
        split = int(round(m * self.early_fraction))
        colors = np.zeros((m, batch), dtype=np.int64)
        colors[:split, :] = self.value
        plan = BatchSubphasePlan(initial_colors=colors if split else None)
        if split < m:
            # One injection per trial, at the last round the gate allows.
            t = max(1, min(state.k - 1, state.rounds))
            plan.injections = np.zeros((t, m, batch), dtype=np.int64)
            plan.injections[t - 1, split:, :] = self.value + state.phase
            plan.counts = np.zeros((t, batch), dtype=np.int64)
            plan.counts[t - 1] = 1
        return plan


class AdaptiveRecordAdversary(Adversary):
    """Full-information minimal-overshoot inflation.

    Reads the honest colors drawn this subphase (the adversary is
    omniscient) and injects exactly one more than the global maximum at the
    last legal round — the least conspicuous winning value.
    """

    name = "adaptive-record"

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        base = state.global_max_color()
        injections = [
            Injection(t=t, nodes=state.byz_nodes, value=base + t)
            for t in range(1, state.rounds + 1)
        ]
        # Also draw plausible base colors so the byz nodes are not silent.
        colors = sample_colors(state.rng, state.byz_nodes.shape[0])
        return SubphasePlan(initial_colors=colors, injections=injections, relay=True)

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        rounds = np.arange(1, state.rounds + 1, dtype=np.int64)
        plan = _every_node_plan(state, state.global_max_colors() + rounds[:, None])
        plan.initial_colors = sample_color_columns(state.rngs, state.byz_nodes.shape[0])
        return plan


def _every_node_plan(state: BatchSubphaseState, values: Int64Array) -> BatchSubphasePlan:
    """One injection per round and trial at every Byzantine node.

    ``values`` is ``(rounds, B)`` — or ``(rounds, 1)`` when every trial
    injects the same value — holding round ``t``'s value in row ``t - 1``.
    """
    injections = np.empty((state.rounds, state.byz_nodes.shape[0], state.batch), dtype=np.int64)
    injections[...] = values[:, None, :]
    return BatchSubphasePlan(
        injections=injections,
        counts=np.ones((state.rounds, state.batch), dtype=np.int64),
    )
