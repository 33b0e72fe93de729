"""E09 — "small-sized messages" (Section 1.1 footnote 4, Section 2.1).

A message carries a constant number of IDs and ``O(log n)`` bits.  We
measure, per run: messages per node per round (should be ~d plus a
constant verification overhead), the largest ID payload of any message
(constant), and the bit-length of the largest color in flight
(``<= log2(4 log2 n)`` bits whp, by Lemma 12).

Both protocols run their whole (n, seed) grids as **fused multi-network
sweeps** (:func:`repro.core.sweep.run_multi_sweep`): the grids are
rectangular, so they run on the zero-padding union stack —
every size a row block of one block-diagonal state, with per-network
Byzantine placements gating per block on the Algorithm 2 runs —
bit-for-bit equal to the per-``n`` batched loops this experiment used to
run, and exercising the batched adversary fast path across sizes.
"""

from __future__ import annotations

import numpy as np

from ..adversary.placement import placement_for_delta
from ..core.colors import sample_colors
from ..core.config import CountingConfig
from ..core.sweep import run_multi_sweep
from ..sim.metrics import color_bits
from ..sim.rng import make_rng
from .common import DEFAULT_D, network, ns_for
from .harness import ExperimentResult, Table, register


@register(
    "E09",
    "Message size accounting",
    "messages carry O(1) IDs + O(log n) bits; per-node per-round load is constant",
)
def run(scale: str, seed: int) -> ExperimentResult:
    ns = ns_for(scale, small=(512, 1024), full=(512, 1024, 2048, 4096))
    reps = 3
    d = DEFAULT_D
    cfg = CountingConfig(max_phase=32)
    result = ExperimentResult(
        exp_id="E09", title="Message sizes", claim="small-sized messages only"
    )
    table = Table(
        title=f"Communication accounting over {reps} trials (Alg. 1 and Alg. 2)",
        columns=[
            "n",
            "protocol",
            "msgs/round/node",
            "max ids/msg",
            "max color bits (4log2n bound)",
        ],
    )
    loads = []
    max_ids = []
    seeds = [seed * 10 + r for r in range(reps)]
    nets = [network(n, d, seed) for n in ns]
    # Algorithm 1 across every size as one union-stack honest batch;
    # Algorithm 2 likewise, with each network's own delta-budget placement.
    sweep1 = run_multi_sweep(nets, seeds=seeds, configs=cfg.with_(verification=False))
    sweep2 = run_multi_sweep(
        nets,
        seeds=seeds,
        configs=cfg,
        placements=lambda net: placement_for_delta(net, 0.5, rng=seed),
        strategies="early-stop",
    )
    for g, n in enumerate(ns):
        batch1 = sweep1.seed_batch(network=g)
        load1 = float(
            np.mean([r.meter.messages / r.meter.rounds / n for r in batch1])
        )
        ids1 = max(r.meter.max_message_ids for r in batch1)
        max_color = int(sample_colors(make_rng(seed), 4 * n).max())
        bound_bits = int(np.ceil(np.log2(max(2, 4 * np.log2(n)))))
        table.add(n, "Alg1", load1, ids1, f"{color_bits(max_color)} ({bound_bits}+)")
        batch2 = sweep2.seed_batch(network=g)
        load2 = float(
            np.mean([r.meter.messages / r.meter.rounds / n for r in batch2])
        )
        ids2 = max(r.meter.max_message_ids for r in batch2)
        table.add(n, "Alg2", load2, ids2, "-")
        loads.append((load1, load2))
        max_ids.extend([ids1, ids2])
    result.tables.append(table)
    result.checks["per_node_load_constant"] = all(
        l1 <= 2 * d and l2 <= 8 * d for l1, l2 in loads
    )
    result.checks["ids_per_message_constant"] = all(ids <= d for ids in max_ids)
    return result
