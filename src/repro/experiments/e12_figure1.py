"""E12 — Figure 1 / Lemma 15: chain fabrication is always detected.

Figure 1's attack: a Byzantine node ``b3`` tries to convince victim ``v``
of a fake child ``b2`` in a ``k``-chain, which forces it to suppress a
real child ``u``; ``u``'s direct ``L`` edge to ``v`` lets it testify, and
``v`` crashes rather than accept the phantom.  We mount the exact attack
via claim manipulation and measure the detection rate over victims and
seeds (Lemma 15: it is 1).  A control group with truthful claims checks
the reconstruction never false-positives.

A second, protocol-level section mounts the same move (the
``topology-liar`` strategy suppresses a real child for a phantom) inside
full Algorithm 2 runs **across network sizes**, routed through the fused
multi-network sweep (:func:`repro.core.sweep.run_multi_sweep`; the
rectangular grid runs on the union stack): at every
size the engine's pre-phase crash mask must equal a direct
:func:`~repro.core.neighborhood.crash_phase` computation under the liar's
claims, the crash footprint must stay inside the constant ``k``-ball
bound, and the surviving honest nodes must still complete the counting.
"""

from __future__ import annotations

import numpy as np

from ..adversary.placement import random_placement
from ..adversary.strategies import TopologyLiarAdversary
from ..core.config import CountingConfig
from ..core.neighborhood import (
    crash_phase,
    find_conflicts,
    reconstruct_h_ball,
    truthful_claims,
)
from ..core.sweep import run_multi_sweep
from ..graphs.balls import bfs_distances
from ..graphs.classification import full_tree_ball_size
from ..sim.rng import make_rng
from .common import DEFAULT_D, network
from .harness import ExperimentResult, Table, register


def mount_chain_attack(
    net, liar: int, phantom: int
) -> tuple[dict[int, tuple[int, ...]], int]:
    """The liar's claim: replace one real child with phantom ``b2``.

    Returns the claim and the suppressed child's id.  The suppressed child
    is the one node that *cannot* detect the lie itself (it learns its
    ``H``-ports only from others' claims, so the liar consistently appears
    at level ``k`` in its reconstruction) — its role in Figure 1 is to
    testify, which every cross-examining third party uses to crash.
    """
    real = sorted(int(u) for u in net.h.neighbors(liar))
    return {liar: tuple(real[1:] + [phantom])}, real[0]


@register(
    "E12",
    "Chain-insertion attack detection (Figure 1 / Lemma 15)",
    "every honest node that can cross-examine detects the fabricated chain",
)
def run(scale: str, seed: int) -> ExperimentResult:
    n = 512 if scale == "small" else 1024
    trials = 8 if scale == "small" else 24
    d = DEFAULT_D
    net = network(n, d, seed)
    truth = truthful_claims(net)
    result = ExperimentResult(
        exp_id="E12",
        title="Figure 1 chain attack",
        claim="detection rate 1 among cross-examining neighbors; 0 false positives",
    )
    table = Table(
        title=f"n={n}, {trials} liar placements",
        columns=["liar", "victims tested", "detected", "false positives (control)"],
    )
    rng = make_rng(seed)
    total_victims = total_detected = total_fp = 0
    for _ in range(trials):
        liar = int(rng.integers(n))
        lie, suppressed_child = mount_chain_attack(net, liar, phantom=n + 1)
        # Victims: honest G-neighbors of the liar within H-distance k-1
        # (those whose reconstruction radius covers the phantom position),
        # excluding the suppressed child, whose view stays consistent.
        dist = bfs_distances(net.h.indptr, net.h.indices, liar, max_depth=net.k - 1)
        victims = [
            int(v)
            for v in np.flatnonzero(dist >= 1)
            if dist[v] <= net.k - 1 and int(v) != suppressed_child
        ][:16]
        detected = 0
        false_pos = 0
        for v in victims:
            ports = net.g_neighbors(v)
            claims = {int(u): truth[int(u)] for u in ports}
            claims.update({k_: v_ for k_, v_ in lie.items() if k_ in set(map(int, ports))})
            if liar in set(map(int, ports)):
                claims[liar] = lie[liar]
            if find_conflicts(v, ports, claims, net.k, net.d):
                detected += 1
            honest_claims = {int(u): truth[int(u)] for u in ports}
            if find_conflicts(v, ports, honest_claims, net.k, net.d):
                false_pos += 1
        table.add(liar, len(victims), detected, false_pos)
        total_victims += len(victims)
        total_detected += detected
        total_fp += false_pos
    result.tables.append(table)
    result.checks["all_attacks_detected"] = total_detected == total_victims
    result.checks["no_false_positives"] = total_fp == 0
    # Reconstruction sanity: on truthful claims it recovers true distances.
    v0 = 0
    ports = net.g_neighbors(v0)
    recon = reconstruct_h_ball(v0, ports, {int(u): truth[int(u)] for u in ports}, net.k, net.d)
    true_d = bfs_distances(net.h.indptr, net.h.indices, v0, max_depth=net.k)
    result.checks["reconstruction_faithful"] = all(
        true_d[node] == dist for node, dist in recon.items()
    )

    # ------------------------------------------------------------------
    # Protocol-level cross-size detection: the same fabricated chain,
    # mounted by the topology-liar strategy inside full Algorithm 2 runs,
    # over the size axis as one fused (union-stack) multi-network sweep.
    # ------------------------------------------------------------------
    proto_ns = (256, 512) if scale == "small" else (512, 1024, 2048)
    liar_axis = 2  # placements per network (distinct liar draws)
    proto_nets = [network(pn, d, seed) for pn in proto_ns]
    placements_for = lambda net: [
        random_placement(net.n, 1, rng=seed * 17 + net.n + i)
        for i in range(liar_axis)
    ]
    sweep = run_multi_sweep(
        proto_nets,
        seeds=[seed],
        configs=CountingConfig(max_phase=24),
        placements=placements_for,
        strategies="topology-liar",
    )
    proto_table = Table(
        title=f"Algorithm 2 under the chain lie, fused across n={list(proto_ns)}",
        columns=["n", "liar", "crashed", "ball bound", "crash == Lemma 3", "survivors decided"],
    )
    crashes_match = True
    footprint_bounded = True
    survivors_decide = True
    for g, net in enumerate(proto_nets):
        ball_bound = full_tree_ball_size(d, net.k)
        for p, byz in enumerate(placements_for(net)):
            res = sweep.cell(network=g, placement=p)
            adv = TopologyLiarAdversary()
            adv.bind(net, byz, None, CountingConfig())
            expected = crash_phase(net, byz, adv.topology_claims())
            match = bool(np.array_equal(res.crashed, expected))
            decided = bool(res.fraction_decided() == 1.0)
            crashes_match &= match
            footprint_bounded &= int(res.crashed.sum()) <= ball_bound
            survivors_decide &= decided
            proto_table.add(
                net.n,
                int(np.flatnonzero(byz)[0]),
                int(res.crashed.sum()),
                ball_bound,
                match,
                decided,
            )
    result.tables.append(proto_table)
    result.checks["protocol_crashes_match_lemma3"] = crashes_match
    result.checks["protocol_footprint_bounded"] = footprint_bounded
    result.checks["protocol_survivors_decide"] = survivors_decide
    result.notes = f"{total_detected}/{total_victims} detections, {total_fp} false positives"
    return result
