"""E15-E17 — scenario pack: lossy channels, noisy channels, adaptivity.

The paper's protocol is analysed on a reliable synchronous network.  The
scenario pack asks how the estimate degrades when that assumption is
relaxed along three axes, each a first-class knob of the batched engine:

* **E15 (loss)** — every transmitted value is dropped i.i.d. with
  probability ``loss_p`` (:class:`repro.sim.channel.ChannelModel`).  Lost
  sends slow the flood, so honest nodes take *more* phases to see their
  neighborhood sizes cross ``T`` — the mean decided phase should rise
  monotonically with the loss rate, and the ``loss_p=0`` run must be
  bit-for-bit the channel-free engine output (the determinism contract).
* **E16 (noise)** — surviving values are perturbed by an additive integer
  kick of up to ``noise_amp`` with probability ``noise_p``.  Corrupted
  color maxima push decisions off the lossless trajectory in both
  directions, so the chart tracks the mean absolute deviation of the
  decided phase from the noiseless baseline, which should grow with the
  noise level.
* **E17 (adaptivity)** — Byzantine sets that re-plan *between subphases*
  (:mod:`repro.adversary.adaptive`): a mobile set walking the graph and a
  traffic-ranking set chasing hot (or hiding in cold) nodes, each wrapped
  around the early-stop strategy.  The chart compares the honest decision
  delay against the static early-stop placement; adaptation is exercised
  end to end and must be deterministic (two identical runs agree
  bit-for-bit).
"""

from __future__ import annotations

import numpy as np

from ..adversary.adaptive import MobileAdversary, TrafficAdaptiveAdversary
from ..adversary.placement import placement_for_delta
from ..adversary.strategies import EarlyStopAdversary
from ..core.batch import run_counting_batch
from ..core.config import CountingConfig
from ..core.results import BatchCountingResult
from ..sim.channel import ChannelModel
from ..sim.rng import derive_seed
from .common import DEFAULT_D, network
from .harness import ExperimentResult, Table, register


def _mean_decided_phase(batch: BatchCountingResult, max_phase: int) -> float:
    """Mean decided phase over honest uncrashed nodes (undecided counts as
    ``max_phase`` so stalled floods register as delay, not as progress)."""
    vals = []
    for res in batch:
        decided = res.decided_phase[res.honest_uncrashed]
        vals.append(float(np.where(decided == -1, max_phase, decided).mean()))
    return float(np.mean(vals))


def _seeds(seed: int, reps: int, tag: str) -> list[int]:
    return [derive_seed(seed, tag, r) for r in range(reps)]


@register(
    "E15",
    "Lossy channels (scenario pack)",
    "decision delay grows monotonically with the channel loss rate",
)
def run_loss(scale: str, seed: int) -> ExperimentResult:
    n = 384 if scale == "small" else 1024
    reps = 8 if scale == "small" else 12
    loss_values = (0.0, 0.1, 0.25, 0.4)
    d = DEFAULT_D
    net = network(n, d, seed)
    config = CountingConfig(verification=False)
    seeds = _seeds(seed, reps, "e15")
    result = ExperimentResult(
        exp_id="E15",
        title="Lossy channels",
        claim="mean decided phase is monotone in loss_p; loss_p=0 is bit-for-bit lossless",
    )
    table = Table(
        title=f"honest counting under Bernoulli drop, n={n}, {reps} seeds",
        columns=["loss_p", "mean phase", "frac decided"],
    )
    baseline = run_counting_batch(net, seeds, config=config)
    phases = []
    lossless_exact = True
    for p in loss_values:
        batch = run_counting_batch(
            net, seeds, config=config, channel=ChannelModel(loss_p=p)
        )
        if p == 0.0:
            lossless_exact = bool(
                np.array_equal(batch.decided_matrix(), baseline.decided_matrix())
            )
        mean_phase = _mean_decided_phase(batch, config.max_phase)
        phases.append(mean_phase)
        table.add(p, mean_phase, float(np.mean(batch.fraction_decided())))
    result.tables.append(table)
    result.checks["lossless_is_bit_for_bit"] = lossless_exact
    result.checks["monotone_in_loss"] = all(
        b >= a - 0.02 for a, b in zip(phases, phases[1:])
    )
    result.checks["loss_degrades"] = phases[-1] > phases[0]
    return result


@register(
    "E16",
    "Noisy channels (scenario pack)",
    "estimate deviation from the noiseless baseline grows with noise level",
)
def run_noise(scale: str, seed: int) -> ExperimentResult:
    n = 384 if scale == "small" else 1024
    reps = 4 if scale == "small" else 8
    noise_values = ((0.0, 0), (0.1, 1), (0.25, 2), (0.5, 4))
    d = DEFAULT_D
    net = network(n, d, seed)
    config = CountingConfig(verification=False)
    seeds = _seeds(seed, reps, "e16")
    result = ExperimentResult(
        exp_id="E16",
        title="Noisy channels",
        claim="mean |phase - baseline| grows with (noise_p, noise_amp)",
    )
    table = Table(
        title=f"honest counting under additive value noise, n={n}, {reps} seeds",
        columns=["noise_p", "noise_amp", "mean |dev|", "frac decided"],
    )
    baseline = run_counting_batch(net, seeds, config=config)
    base_matrix = baseline.decided_matrix()
    base_phases = np.where(base_matrix == -1, config.max_phase, base_matrix)
    devs = []
    noiseless_exact = True
    for noise_p, noise_amp in noise_values:
        batch = run_counting_batch(
            net,
            seeds,
            config=config,
            channel=ChannelModel(noise_p=noise_p, noise_amp=noise_amp),
        )
        matrix = batch.decided_matrix()
        if noise_p == 0.0:
            noiseless_exact = bool(np.array_equal(matrix, base_matrix))
        phases_m = np.where(matrix == -1, config.max_phase, matrix)
        dev = float(np.abs(phases_m - base_phases).mean())
        devs.append(dev)
        table.add(noise_p, noise_amp, dev, float(np.mean(batch.fraction_decided())))
    result.tables.append(table)
    result.checks["noiseless_is_bit_for_bit"] = noiseless_exact
    result.checks["deviation_grows"] = devs[-1] >= devs[0] and devs[-1] > 0.0
    result.checks["monotone_in_noise"] = all(
        b >= a - 0.05 for a, b in zip(devs, devs[1:])
    )
    return result


@register(
    "E17",
    "Adaptive and mobile adversaries (scenario pack)",
    "between-subphase adaptation runs deterministically and disrupts at least "
    "as much as the static placement",
)
def run_adaptive(scale: str, seed: int) -> ExperimentResult:
    n = 384 if scale == "small" else 1024
    reps = 4 if scale == "small" else 8
    d = DEFAULT_D
    net = network(n, d, seed)
    config = CountingConfig()
    seeds = _seeds(seed, reps, "e17")
    byz = placement_for_delta(net, 0.5, rng=derive_seed(seed, "e17-byz"))
    result = ExperimentResult(
        exp_id="E17",
        title="Adaptive and mobile adversaries",
        claim="adaptive placements are exercised end to end, deterministically",
    )
    table = Table(
        title=(
            f"early-stop core under static vs adaptive placement, "
            f"n={n}, delta=0.5, {reps} seeds"
        ),
        columns=["placement", "mean phase", "frac decided"],
    )
    variants = [
        ("static", EarlyStopAdversary),
        ("mobile walk", lambda: MobileAdversary(EarlyStopAdversary())),
        (
            "traffic hot",
            lambda: TrafficAdaptiveAdversary(EarlyStopAdversary(), mode="hot"),
        ),
        (
            "traffic cold",
            lambda: TrafficAdaptiveAdversary(EarlyStopAdversary(), mode="cold"),
        ),
    ]
    delays = {}
    for label, factory in variants:
        batch = run_counting_batch(
            net, seeds, config=config, adversary_factory=factory, byz_mask=byz
        )
        delays[label] = _mean_decided_phase(batch, config.max_phase)
        table.add(label, delays[label], float(np.mean(batch.fraction_decided())))
    result.tables.append(table)
    rerun = run_counting_batch(
        net,
        seeds,
        config=config,
        adversary_factory=lambda: MobileAdversary(EarlyStopAdversary()),
        byz_mask=byz,
    )
    first = run_counting_batch(
        net,
        seeds,
        config=config,
        adversary_factory=lambda: MobileAdversary(EarlyStopAdversary()),
        byz_mask=byz,
    )
    result.checks["adaptation_deterministic"] = bool(
        np.array_equal(rerun.decided_matrix(), first.decided_matrix())
    )
    adaptive_best = max(v for k, v in delays.items() if k != "static")
    result.checks["adaptivity_not_weaker"] = adaptive_best >= delays["static"] - 0.1
    return result
