"""E08 — Theorem 1: round complexity Theta(log^3 n); estimates scale with log n.

Two measurements:

* the decided phase grows linearly in ``log2 n`` (the protocol's output is
  a constant-factor ``log n`` estimate) — slope of median phase vs
  ``log2 n`` is within a constant of ``1/log2(d-1)``;
* the executed round count grows polylogarithmically, below the paper's
  exact schedule accounting (:func:`repro.analysis.bounds.round_complexity_bound`),
  with a fitted exponent ``p`` in ``rounds ~ (log n)^p`` of at most ~3.

The whole size axis runs as **one fused multi-network batch**
(:func:`repro.core.sweep.run_multi_sweep`): the (n, seed) grid is
rectangular, so it runs on the zero-padding union stack —
every size is a row block of one block-diagonal state, every seed one
shared column — bit-for-bit equal to the per-``n``
``basic_counting_trials`` loop this experiment used to run.
"""

from __future__ import annotations

import numpy as np

from ..analysis.bounds import round_complexity_bound
from ..analysis.stats import loglog_slope
from ..core.config import CountingConfig
from ..core.sweep import run_multi_sweep
from .common import DEFAULT_D, network, ns_for
from .harness import ExperimentResult, Table, register


@register(
    "E08",
    "Round complexity (Theorem 1)",
    "O(log^3 n) rounds; decided phase = Theta(log n)",
)
def run(scale: str, seed: int) -> ExperimentResult:
    ns = ns_for(scale, small=(256, 512, 1024, 2048), full=(256, 512, 1024, 2048, 4096, 8192))
    reps = 3 if scale == "small" else 5
    d = DEFAULT_D
    cfg = CountingConfig(max_phase=40)
    result = ExperimentResult(
        exp_id="E08",
        title="Round complexity",
        claim="rounds = O(log^3 n); phase ~ log n / log(d-1)",
    )
    table = Table(
        title=f"Algorithm 1 schedule measurements ({reps} batched trials per n)",
        columns=["n", "log2 n", "phase med", "phase*log2(d-1)", "rounds max", "paper bound"],
    )
    log_ns, phases, rounds = [], [], []
    # One fused sweep over the whole (n, seed) grid on the union stack
    # (sizes as row blocks, seeds as shared columns; same per-trial seeds
    # as before).
    nets = [network(n, d, seed) for n in ns]
    sweep = run_multi_sweep(
        nets,
        seeds=[seed + 3 + 101 * r for r in range(reps)],
        configs=cfg.with_(verification=False),
    )
    for g, n in enumerate(ns):
        trials = sweep.seed_batch(network=g)
        med = float(np.median(trials.median_phases()))
        worst_rounds = int(trials.rounds().max())
        table.add(
            n,
            float(np.log2(n)),
            med,
            med * float(np.log2(d - 1)),
            worst_rounds,
            round_complexity_bound(n, cfg.eps, d, verification_cost=0),
        )
        log_ns.append(np.log2(n))
        phases.append(med)
        rounds.append(worst_rounds)
    result.tables.append(table)

    phase_slope, _ = np.polyfit(log_ns, phases, 1)
    round_exp, _ = loglog_slope(np.array(log_ns), np.array(rounds))
    anchor = 1.0 / np.log2(d - 1)
    result.checks["phase_grows_with_log_n"] = phase_slope > 0.05
    result.checks["phase_slope_constant_factor"] = (
        0.25 * anchor <= phase_slope <= 6 * anchor
    )
    result.checks["rounds_polylog"] = round_exp <= 3.6
    result.checks["rounds_below_paper_bound"] = all(
        r <= round_complexity_bound(n, cfg.eps, d, verification_cost=0)
        for r, n in zip(rounds, ns)
    )
    result.notes = (
        f"phase slope vs log2 n = {phase_slope:.3f} (anchor 1/log2(d-1) = {anchor:.3f}); "
        f"rounds ~ (log n)^{round_exp:.2f} (paper: <= 3)"
    )
    return result
