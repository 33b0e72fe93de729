"""E10 — Lemma 11: premature decisions are bounded by eps.

Lemma 11: while ``i < a log n``, at most an eps-fraction of nodes decide.
At lab scale ``a log n < 1``; the measurable mechanism is that the
``alpha_i`` repetition schedule (which grows like ``log(1/eps)``) keeps
early-phase wrong decisions below eps, and that tightening eps tightens
the premature fraction.  We count decisions at phases
``i <= premature_cutoff`` (half the honest median, the lab stand-in for
``a log n``) across eps values — and, new with the network-axis batching,
across sizes: the whole (n x eps x seed) grid runs as **one fused
multi-network sweep** (:func:`repro.core.sweep.run_multi_sweep`, eps as
the config axis; the rectangular grid runs on the union stack),
bit-for-bit equal to the per-``(n, eps)`` batched loops.
The Lemma 11 shape checks gate on the primary (largest) size, as before;
the smaller sizes chart how the bound tightens with ``n``.
"""

from __future__ import annotations

import numpy as np

from ..core.basic_counting import run_basic_counting
from ..core.config import CountingConfig
from ..core.sweep import run_multi_sweep
from .common import DEFAULT_D, network
from .harness import ExperimentResult, Table, register


@register(
    "E10",
    "Premature decisions (Lemma 11)",
    "fraction of nodes deciding before a log n is at most eps",
)
def run(scale: str, seed: int) -> ExperimentResult:
    ns = (512, 1024) if scale == "small" else (2048, 4096)
    primary = ns[-1]  # shape checks gate on the largest size (as before)
    reps = 3 if scale == "small" else 6
    d = DEFAULT_D
    eps_values = (0.05, 0.1, 0.2) if scale == "small" else (0.02, 0.05, 0.1, 0.2, 0.4)
    result = ExperimentResult(
        exp_id="E10",
        title="Premature decisions",
        claim="premature fraction <= eps, monotone in eps",
    )
    nets = [network(n, d, seed) for n in ns]
    # Establish each size's honest median phase once (cutoff is per n).
    cutoffs = []
    for net in nets:
        base = run_basic_counting(net, config=CountingConfig(eps=0.1), seed=seed)
        _, med, _ = base.decision_quantiles()
        cutoffs.append(max(1, int(med) // 2))
    table = Table(
        title=(
            f"premature cutoff = phase <= median/2 per n "
            f"(checks gate on n={primary}); {reps} reps"
        ),
        columns=["n", "eps", "alpha_1", "premature frac", "<= eps", "mean phase"],
    )
    from ..core.phases import alpha

    # The full (n, eps, seed) grid as one fused union-stack batch: networks
    # are the outer axis, eps values the config axis, seeds shared.
    configs = [CountingConfig(eps=eps, verification=False) for eps in eps_values]
    sweep = run_multi_sweep(
        nets, seeds=[seed * 50 + r for r in range(reps)], configs=configs
    )
    primary_fracs = []
    for g, n in enumerate(ns):
        cutoff = cutoffs[g]
        for c, eps in enumerate(eps_values):
            vals = []
            means = []
            for res in sweep.seed_batch(network=g, config=c):
                decided = res.decided_phase[res.honest_uncrashed]
                vals.append(float(np.mean((decided != -1) & (decided <= cutoff))))
                means.append(float(decided[decided != -1].mean()))
            frac = float(np.mean(vals))
            if n == primary:
                primary_fracs.append(frac)
            table.add(
                n, eps, alpha(1, eps, d), frac, frac <= eps + 0.02, float(np.mean(means))
            )
    result.tables.append(table)
    result.checks["premature_below_eps"] = all(
        f <= e + 0.02 for f, e in zip(primary_fracs, eps_values)
    )
    result.checks["monotone_in_eps"] = primary_fracs[0] <= primary_fracs[-1] + 0.02
    return result
