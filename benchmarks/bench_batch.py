"""Throughput benchmark: sequential vs batched vs sharded trial sweeps.

The trial-batched engine (:func:`repro.core.batch.run_counting_batch`)
exists to make repeated-seed sweeps faster without changing any reported
statistic.  This benchmark quantifies the win over the same ``B`` seeds on
one network, in four workloads:

* **honest** — Algorithm 1: ``B`` sequential ``run_counting`` calls vs one
  ``run_counting_batch`` call vs the batch sharded over worker processes
  (via :func:`repro.experiments.common.parallel_map` with shared-memory
  graph attachment — workers no longer unpickle the network per task);
* **byzantine** — Algorithm 2 under attack: the batched adversary fast
  path (vectorized ``batch_subphase_plan`` hooks) vs per-trial sequential
  ``run_counting`` with scalar hooks, for a representative strategy set;
* **sweep** — an E07-shaped (strategies x placements x seeds) grid through
  the fused sweep engine (:func:`repro.core.sweep.run_sweep`, per-trial
  Byzantine masks as batch columns) vs the nested scalar loops the
  experiments used to run;
* **multi_net** — an E08-shaped size sweep at n in {256, 512, 1024}
  through the per-trial-network entry point
  (:func:`repro.core.batch.run_counting_multinet`: one network per
  trial, regrouped by network into the row blocks of one union-stack
  batch) vs the per-size loop of scalar trials; a secondary ungated entry
  compares it against the per-size loop of ``run_counting_batch`` calls
  (each a one-block union on the same engine), so that ratio prices
  fusing the sizes into one call;
* **union_stack** — the same size sweep through the rectangular entry
  point (:func:`repro.core.batch.run_counting_unionstack`, all sizes as
  row blocks of one (sum n, B) state), gated against the per-size
  batched loop.  A secondary ungated entry (``multinet-vs-unionstack``)
  times it against the ``multi_net`` call over the same grid: both are
  entry points into one engine, so that ratio only measures the
  per-trial wrapper's regrouping;
* **lossy** — the scenario-pack channel axis: ``B`` trials under a lossy
  and noisy :class:`repro.sim.channel.ChannelModel` as ONE batched call vs
  the per-seed loop of single-trial batches (the scalar runner has no
  channel axis, so batch-of-1 calls are the sequential reference).  Each
  round's drops and noise for the whole ``(n, B)`` block are one hash
  pass, keyed per trial and phase and indexed by the trial's own row and
  round, so the batch pays for the channel once per round where the loop
  pays once per trial per round, and the two agree bit for bit;
* **service** — a continuous-estimation deployment under churn: E epochs
  of (estimate B trials, then churn the overlay) through the resident
  engine (:class:`repro.service.ResidentEngine` — cycle splice plus one
  ``G`` rebuild per delta, warm flood kernel) vs the cold per-epoch loop
  (rebuild the graph from its cycles and a fresh kernel every epoch).
  Both paths start from an overlay built outside the timed call and
  rebuild ``G`` once per epoch, so the gated speedup
  (cold/resident) measures kernel and cache reuse only; the entry also
  records sustained queries/sec under churn for both paths;
* **baseline** — the geometric-max estimator, scalar vs trials-as-columns
  batch.

When the optional numba accelerator is importable, two extra gated
workloads compare the compiled kernel backend against the numpy backend
on identical work: **honest-numba** (the single-network batch) and
**union_stack-numba** (the concatenated union layout, where the fused
CSR-walk kernel shines).  They are recorded only on runners that can
actually execute numba — never fabricated — and carry a ``requires``
key so the regression gate skips them informationally elsewhere.

Run standalone for a quick table (CI runs this as a smoke test and uploads
the JSON trajectory)::

    PYTHONPATH=src python benchmarks/bench_batch.py --n 256 --trials 8
    PYTHONPATH=src python benchmarks/bench_batch.py --json BENCH_batch.json

or under pytest-benchmark with the rest of the bench suite.  Reference
results on the development box at n=1024, B=32: honest batched ~3x the
sequential trial throughput; byzantine batched 2-3.5x depending on the
strategy (early-stop ends runs after a few phases, so fixed costs weigh
more; inflation floods every phase and batches best).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.adversary import placement_for_delta
from repro.baselines import run_geometric_max, run_geometric_max_batch
from repro.core import (
    CountingConfig,
    make_adversary,
    run_counting_batch,
    run_counting_multinet,
    run_counting_unionstack,
    run_sweep,
)
from repro.core.runner import run_counting
from repro.experiments.common import parallel_map
from repro.graphs import build_small_world, hgraph_from_cycles
from repro.service import ChurnDelta, ResidentEngine
from repro.sim.backends import available_backends
from repro.sim.channel import ChannelModel
from repro.sim.rng import derive_seed, make_rng

DEFAULT_N = 1024
DEFAULT_TRIALS = 32
CFG = CountingConfig(verification=False)
BYZ_CFG = CountingConfig()
BYZ_STRATEGIES = ("early-stop", "inflation", "adaptive-record")
SWEEP_STRATEGIES = BYZ_STRATEGIES
SWEEP_PLACEMENTS = 4
MULTI_NS = (256, 512, 1024)
#: The scenario-pack channel the lossy workload runs under: a moderate
#: drop rate plus light value noise, enough to lengthen runs realistically
#: without stalling them.
LOSSY_CHANNEL = ChannelModel(loss_p=0.15, noise_p=0.05, noise_amp=2)
SERVICE_EPOCHS = 4
# Fraction of nodes replaced per epoch (>= 1 node): churn between
# consecutive estimation rounds is a few nodes, the service shape.
SERVICE_CHURN = 0.001


def _seeds(trials: int) -> list[int]:
    return [11 * b + 5 for b in range(trials)]


def run_sequential(net, seeds, config=CFG):
    return [run_counting(net, config=config, seed=s) for s in seeds]


def run_batched(net, seeds, config=CFG, backend=None):
    return list(run_counting_batch(net, seeds, config=config, backend=backend))


def _shard_task(net, task):
    """Module-level worker: one batched sub-sweep on the shared network."""
    shard_seeds, config = task
    return list(run_counting_batch(net, list(shard_seeds), config=config))


def run_sharded(net, seeds, config=CFG, jobs: int = 2):
    """Shard the batch over processes; the graph rides in shared memory."""
    shards = [
        (list(chunk), config)
        for chunk in np.array_split(seeds, jobs)
        if len(chunk)
    ]
    parts = parallel_map(_shard_task, shards, jobs=jobs, network=net)
    return [res for part in parts for res in part]


def run_lossy_per_seed(net, seeds, config=CFG, channel=LOSSY_CHANNEL):
    """Per-seed single-trial batches under the channel.

    The scalar runner has no channel axis, so the sequential reference is
    a loop of batch-of-1 calls; a trial's channel draws depend only on its
    own key, round and row, never on its column or the batch width, so
    the loop equals the fused batch bit for bit.
    """
    out = []
    for s in seeds:
        out.extend(run_counting_batch(net, [s], config=config, channel=channel))
    return out


def run_lossy_batched(net, seeds, config=CFG, channel=LOSSY_CHANNEL):
    return list(run_counting_batch(net, seeds, config=config, channel=channel))


def run_byz_sequential(net, seeds, byz, strategy: str, config=BYZ_CFG):
    return [
        run_counting(
            net, config=config, seed=s, adversary=make_adversary(strategy), byz_mask=byz
        )
        for s in seeds
    ]


def run_byz_batched(net, seeds, byz, strategy: str, config=BYZ_CFG):
    return list(
        run_counting_batch(
            net,
            seeds,
            config=config,
            adversary_factory=lambda: make_adversary(strategy),
            byz_mask=byz,
        )
    )


def _sweep_placements(net, count: int = SWEEP_PLACEMENTS):
    """E07-shaped placement axis: the paper's budget at distinct draws."""
    return [placement_for_delta(net, 0.5, rng=100 + i) for i in range(count)]


def run_sweep_sequential(
    net, seeds, placements, strategies=SWEEP_STRATEGIES, config=BYZ_CFG
):
    """The nested scalar loops the experiments ran before the fused sweep.

    Cell order (strategy, placement, seed) matches ``run_sweep``'s flat
    grid order, so results compare index for index.
    """
    out = []
    for strategy in strategies:
        for byz in placements:
            for s in seeds:
                out.append(
                    run_counting(
                        net,
                        config=config,
                        seed=s,
                        adversary=make_adversary(strategy),
                        byz_mask=byz,
                    )
                )
    return out


def run_sweep_fused(
    net, seeds, placements, strategies=SWEEP_STRATEGIES, config=BYZ_CFG
):
    return run_sweep(
        net,
        seeds=seeds,
        configs=config,
        placements=placements,
        strategies=list(strategies),
    ).results


def _multi_nets(ns=MULTI_NS):
    return [build_small_world(n, 8, seed=3) for n in ns]


def run_multinet_sequential(nets, seeds, config=CFG):
    """The per-size loop the scaling experiments ran: scalar trials per n."""
    return [run_counting(net, config=config, seed=s) for net in nets for s in seeds]


def run_multinet_batched_loop(nets, seeds, config=CFG):
    """Per-size loop of single-network batches (one-block unions)."""
    out = []
    for net in nets:
        out.extend(run_counting_batch(net, seeds, config=config))
    return out


def run_multinet_fused(nets, seeds, config=CFG):
    """All sizes through the per-trial-network entry point, one batch."""
    trial_nets = [net for net in nets for _ in seeds]
    trial_seeds = [s for _ in nets for s in seeds]
    return list(run_counting_multinet(trial_nets, trial_seeds, config=config))


def run_multinet_union(nets, seeds, config=CFG, backend=None):
    """All sizes as row blocks of ONE rectangular union-stack batch.

    Results come back network-major ((network, seed) grid order), matching
    ``run_multinet_batched_loop`` / ``run_multinet_fused`` index for index.
    """
    return list(run_counting_unionstack(nets, seeds, config=config, backend=backend))


def _service_engine(n, config=CFG):
    """A resident engine holding the fresh ``n``-node service overlay.

    Building the overlay (sampling ``H`` and building ``G``) happens here,
    outside any timed call, just as :func:`run_service_cold` is handed
    prebuilt snapshots.
    """
    engine = ResidentEngine(config=config)
    engine.add_overlay("svc", n=n, d=8, seed=3)
    return engine


def run_service_resident(engine, seeds, epochs=SERVICE_EPOCHS, churn=SERVICE_CHURN):
    """E epochs of (estimate, then churn) through a prebuilt resident engine.

    ``engine`` comes from :func:`_service_engine` and is consumed: its
    overlay churns.  The engine keeps the flood kernel warm: each epoch
    splices the overlay's cycles and rebuilds its CSR
    (:class:`repro.graphs.delta.ResidentGraph`, the same ``G`` rebuild
    the cold loop pays) and rebinds the kernel in place, so against
    :func:`run_service_cold` this measures kernel and cache reuse only.
    The churn deltas derive from a fixed seed stream, so every
    invocation replays the identical trajectory.
    """
    rng = make_rng(derive_seed(3, "bench-service"))
    out = []
    for _ in range(epochs):
        out.extend(engine.run_epoch("svc", seeds))
        n_now = engine.network("svc").n
        cnt = max(1, int(round(churn * n_now)))
        leaves = tuple(int(v) for v in rng.choice(n_now, size=cnt, replace=False))
        engine.apply_churn("svc", ChurnDelta(leaves, cnt), rng)
    return out


def _service_snapshots(n, epochs=SERVICE_EPOCHS, churn=SERVICE_CHURN):
    """The per-epoch networks of the resident trajectory (untimed replay)."""
    engine = _service_engine(n)
    rng = make_rng(derive_seed(3, "bench-service"))
    snaps = []
    for _ in range(epochs):
        snaps.append(engine.network("svc"))
        n_now = engine.network("svc").n
        cnt = max(1, int(round(churn * n_now)))
        leaves = tuple(int(v) for v in rng.choice(n_now, size=cnt, replace=False))
        engine.apply_churn("svc", ChurnDelta(leaves, cnt), rng)
    return snaps


def run_service_cold(snapshots, seeds, config=CFG):
    """The rebuild-per-epoch loop a non-resident service pays.

    Every epoch re-derives and re-validates the full graph from its
    Hamiltonian cycles (all lattice chunks recomputed) and builds a fresh
    flood kernel — the kernel construction is what the resident engine's
    reuse avoids.
    """
    out = []
    for net in snapshots:
        rebuilt = build_small_world(
            net.n, net.d, h=hgraph_from_cycles(net.h.cycles), k=net.k
        )
        out.extend(run_counting_batch(rebuilt, seeds, config=config))
    return out


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def _net():
    return build_small_world(DEFAULT_N, 8, seed=3)


def test_bench_sequential_trials(benchmark):
    net = _net()
    seeds = _seeds(DEFAULT_TRIALS)
    results = benchmark.pedantic(
        run_sequential, args=(net, seeds), rounds=2, iterations=1
    )
    assert len(results) == DEFAULT_TRIALS


def test_bench_batched_trials(benchmark):
    net = _net()
    seeds = _seeds(DEFAULT_TRIALS)
    results = benchmark.pedantic(run_batched, args=(net, seeds), rounds=3, iterations=1)
    assert len(results) == DEFAULT_TRIALS


def test_bench_lossy_batched_trials(benchmark):
    net = _net()
    seeds = _seeds(DEFAULT_TRIALS)
    results = benchmark.pedantic(
        run_lossy_batched, args=(net, seeds), rounds=3, iterations=1
    )
    assert len(results) == DEFAULT_TRIALS


def test_bench_byzantine_batched_trials(benchmark):
    net = _net()
    seeds = _seeds(DEFAULT_TRIALS)
    byz = placement_for_delta(net, 0.5, rng=3)
    results = benchmark.pedantic(
        run_byz_batched, args=(net, seeds, byz, "early-stop"), rounds=3, iterations=1
    )
    assert len(results) == DEFAULT_TRIALS


def test_bench_sweep_fused_trials(benchmark):
    net = _net()
    seeds = _seeds(max(1, DEFAULT_TRIALS // SWEEP_PLACEMENTS))
    placements = _sweep_placements(net)
    results = benchmark.pedantic(
        run_sweep_fused, args=(net, seeds, placements), rounds=2, iterations=1
    )
    assert len(results) == len(SWEEP_STRATEGIES) * len(placements) * len(seeds)


def test_bench_multinet_fused_trials(benchmark):
    nets = _multi_nets()
    seeds = _seeds(max(2, DEFAULT_TRIALS // len(MULTI_NS)))
    results = benchmark.pedantic(
        run_multinet_fused, args=(nets, seeds), rounds=2, iterations=1
    )
    assert len(results) == len(nets) * len(seeds)


def test_bench_unionstack_trials(benchmark):
    nets = _multi_nets()
    seeds = _seeds(max(2, DEFAULT_TRIALS // len(MULTI_NS)))
    results = benchmark.pedantic(
        run_multinet_union, args=(nets, seeds), rounds=2, iterations=1
    )
    assert len(results) == len(nets) * len(seeds)


def test_bench_service_resident_trials(benchmark):
    seeds = _seeds(max(2, DEFAULT_TRIALS // 4))
    results = benchmark.pedantic(
        run_service_resident,
        setup=lambda: ((_service_engine(256), seeds), {}),
        rounds=2,
        iterations=1,
    )
    assert len(results) == SERVICE_EPOCHS * len(seeds)


def test_bench_baseline_batched_trials(benchmark):
    net = _net()
    seeds = _seeds(DEFAULT_TRIALS)
    results = benchmark.pedantic(
        run_geometric_max_batch, args=(net, seeds), rounds=3, iterations=1
    )
    assert len(results) == DEFAULT_TRIALS


def test_batched_matches_sequential():
    """Guard: the speed win must not change any reported statistic."""
    net = build_small_world(256, 8, seed=3)
    seeds = _seeds(8)
    seq = run_sequential(net, seeds)
    bat = run_batched(net, seeds)
    for a, b in zip(seq, bat):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()


def test_lossy_batched_matches_per_seed():
    """Guard: fusing lossy trials into one batch changes no statistic."""
    net = build_small_world(256, 8, seed=3)
    seeds = _seeds(8)
    seq = run_lossy_per_seed(net, seeds)
    bat = run_lossy_batched(net, seeds)
    for a, b in zip(seq, bat):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()


def test_sweep_matches_sequential():
    """Guard: the fused (strategy, placement, seed) grid is bit-for-bit."""
    net = build_small_world(256, 8, seed=3)
    seeds = _seeds(2)
    placements = _sweep_placements(net, count=3)
    seq = run_sweep_sequential(net, seeds, placements)
    fus = run_sweep_fused(net, seeds, placements)
    assert len(seq) == len(fus)
    for a, b in zip(seq, fus):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert np.array_equal(a.crashed, b.crashed)
        assert np.array_equal(a.byz, b.byz)
        assert a.meter.as_dict() == b.meter.as_dict()
        assert a.injections_accepted == b.injections_accepted
        assert a.injections_rejected == b.injections_rejected


def test_multinet_matches_per_size_runs():
    """Guard: the per-trial-network entry point changes no reported statistic."""
    nets = [build_small_world(n, 8, seed=3) for n in (128, 256, 512)]
    seeds = _seeds(4)
    fused = run_multinet_fused(nets, seeds)
    seq = run_multinet_sequential(nets, seeds)
    loop = run_multinet_batched_loop(nets, seeds)
    for a, b, c in zip(seq, fused, loop):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert np.array_equal(a.decided_phase, c.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()
        assert a.meter.as_dict() == c.meter.as_dict()


def test_unionstack_matches_per_size_runs():
    """Guard: the union-stack speed win changes no reported statistic."""
    nets = [build_small_world(n, 8, seed=3) for n in (128, 256, 512)]
    seeds = _seeds(4)
    union = run_multinet_union(nets, seeds)
    loop = run_multinet_batched_loop(nets, seeds)
    for a, b in zip(loop, union):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()


def test_service_resident_matches_cold_rebuilds():
    """Guard: resident-engine epochs equal cold rebuild-per-epoch runs."""
    seeds = _seeds(4)
    cold = run_service_cold(_service_snapshots(256), seeds)
    res = run_service_resident(_service_engine(256), seeds)
    assert len(cold) == len(res) == SERVICE_EPOCHS * len(seeds)
    for a, b in zip(cold, res):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()


def test_byzantine_batched_matches_sequential():
    """Guard: the Byzantine fast path is bit-for-bit too."""
    net = build_small_world(256, 8, seed=3)
    seeds = _seeds(6)
    byz = placement_for_delta(net, 0.5, rng=3)
    for strategy in BYZ_STRATEGIES:
        seq = run_byz_sequential(net, seeds, byz, strategy)
        bat = run_byz_batched(net, seeds, byz, strategy)
        for a, b in zip(seq, bat):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert np.array_equal(a.crashed, b.crashed)
            assert a.meter.as_dict() == b.meter.as_dict()
            assert a.injections_accepted == b.injections_accepted
            assert a.injections_rejected == b.injections_rejected


# ----------------------------------------------------------------------
# Standalone smoke / comparison table + JSON trajectory artifact
# ----------------------------------------------------------------------


def _time_best(fn, *args, repeats: int = 3, fresh=None) -> tuple[float, object]:
    """Best wall time of ``fn(*args)`` over ``repeats`` calls.

    With ``fresh``, each call is ``fn(fresh(), *args)``: ``fresh`` builds
    the state a call consumes, outside the timed window.
    """
    best, result = float("inf"), None
    for _ in range(repeats):
        call_args = args if fresh is None else (fresh(), *args)
        t0 = time.perf_counter()
        result = fn(*call_args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _host_info() -> dict:
    """The hardware and numpy build the trajectory was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "machine": platform.machine(),
        "system": platform.system(),
        "cores": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--jobs", type=int, default=2, help="shard worker count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit nonzero unless batched/sequential speedup reaches this "
        "(applied to the honest and every byzantine workload)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the benchmark trajectory (per-workload timings and "
        "speedups) as a JSON artifact",
    )
    args = parser.parse_args(argv)

    net = build_small_world(args.n, 8, seed=3)
    seeds = _seeds(args.trials)
    byz = placement_for_delta(net, 0.5, rng=3)
    run_batched(net, seeds[: min(4, len(seeds))])  # warm caches/plans
    run_byz_batched(net, seeds[: min(4, len(seeds))], byz, "early-stop")

    trajectory: list[dict] = []
    failures: list[str] = []

    def record(workload: str, t_seq: float, t_bat: float, extra=None, gated=True,
               trials: int | None = None):
        trials = args.trials if trials is None else trials
        speedup = t_seq / t_bat
        trajectory.append(
            {
                "workload": workload,
                "sequential_s": t_seq,
                "batched_s": t_bat,
                "speedup": speedup,
                "trials_per_s_sequential": trials / t_seq,
                "trials_per_s_batched": trials / t_bat,
                **(extra or {}),
            }
        )
        if gated and args.min_speedup is not None and speedup < args.min_speedup:
            failures.append(
                f"{workload}: speedup {speedup:.2f}x < required {args.min_speedup}x"
            )
        return speedup

    header = f"{'workload':<28}{'seq':>10}{'batched':>10}{'speedup':>10}"
    print(f"n={args.n}, B={args.trials} trials, best of {args.repeats}")
    print(header)
    print("-" * len(header))

    # --- honest (Algorithm 1) -----------------------------------------
    t_seq, seq = _time_best(run_sequential, net, seeds, repeats=args.repeats)
    t_bat, bat = _time_best(run_batched, net, seeds, repeats=args.repeats)
    for a, b in zip(seq, bat):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()
    sp = record("honest", t_seq, t_bat)
    print(f"{'honest':<28}{t_seq * 1e3:>8.1f}ms{t_bat * 1e3:>8.1f}ms{sp:>9.2f}x")

    t_shd, shd = _time_best(
        run_sharded, net, seeds, CFG, args.jobs, repeats=args.repeats
    )
    for a, c in zip(seq, shd):
        assert np.array_equal(a.decided_phase, c.decided_phase)
    trajectory.append(
        {
            "workload": f"honest-sharded-x{args.jobs}",
            "mode": "sharded",
            "sequential_s": t_seq,
            "sharded_s": t_shd,
            "speedup": t_seq / t_shd,
            "trials_per_s_sequential": args.trials / t_seq,
            "trials_per_s_sharded": args.trials / t_shd,
            "shared_memory_graph": True,
        }
    )
    print(
        f"{'honest-sharded-x' + str(args.jobs):<28}{t_seq * 1e3:>8.1f}ms"
        f"{t_shd * 1e3:>8.1f}ms{t_seq / t_shd:>9.2f}x"
    )

    # Compiled-backend variant: numpy-batched vs numba-batched on the same
    # seeds.  Recorded ONLY when numba is importable — timings are never
    # fabricated on numpy-only boxes; the regression gate treats the
    # committed entry as informational there (``requires`` key).
    t_np_honest = t_bat
    if "numba" in available_backends():
        run_batched(net, seeds[: min(4, len(seeds))], backend="numba")  # JIT warm
        t_nb, nb = _time_best(
            run_batched, net, seeds, CFG, "numba", repeats=args.repeats
        )
        for a, b in zip(bat, nb):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()
        sp = record(
            "honest-numba",
            t_np_honest,
            t_nb,
            {"requires": "numba", "reference": "numpy-backend batched"},
        )
        print(
            f"{'honest-numba':<28}{t_np_honest * 1e3:>8.1f}ms"
            f"{t_nb * 1e3:>8.1f}ms{sp:>9.2f}x"
        )

    # --- lossy (scenario-pack channel axis) ---------------------------
    run_lossy_batched(net, seeds[: min(4, len(seeds))])  # warm
    t_seq, seq = _time_best(run_lossy_per_seed, net, seeds, repeats=args.repeats)
    t_bat, bat = _time_best(run_lossy_batched, net, seeds, repeats=args.repeats)
    for a, b in zip(seq, bat):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()
    sp = record(
        "lossy",
        t_seq,
        t_bat,
        {
            "reference": "per-seed batch-of-1 under the same channel",
            "loss_p": LOSSY_CHANNEL.loss_p,
            "noise_p": LOSSY_CHANNEL.noise_p,
            "noise_amp": LOSSY_CHANNEL.noise_amp,
        },
    )
    print(f"{'lossy':<28}{t_seq * 1e3:>8.1f}ms{t_bat * 1e3:>8.1f}ms{sp:>9.2f}x")

    # --- byzantine (Algorithm 2, batched adversary fast path) ---------
    for strategy in BYZ_STRATEGIES:
        t_seq, seq = _time_best(
            run_byz_sequential, net, seeds, byz, strategy, repeats=args.repeats
        )
        t_bat, bat = _time_best(
            run_byz_batched, net, seeds, byz, strategy, repeats=args.repeats
        )
        for a, b in zip(seq, bat):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert np.array_equal(a.crashed, b.crashed)
            assert a.meter.as_dict() == b.meter.as_dict()
            assert a.injections_accepted == b.injections_accepted
            assert a.injections_rejected == b.injections_rejected
        name = f"byzantine-{strategy}"
        sp = record(name, t_seq, t_bat, {"strategy": strategy, "byz": int(byz.sum())})
        print(f"{name:<28}{t_seq * 1e3:>8.1f}ms{t_bat * 1e3:>8.1f}ms{sp:>9.2f}x")

    # --- fused sweep (strategies x placements x seeds, per-trial masks) --
    sweep_seeds = _seeds(max(1, args.trials // SWEEP_PLACEMENTS))
    sweep_placements = _sweep_placements(net)
    cells = len(SWEEP_STRATEGIES) * len(sweep_placements) * len(sweep_seeds)
    t_seq, seq = _time_best(
        run_sweep_sequential, net, sweep_seeds, sweep_placements, repeats=args.repeats
    )
    t_bat, bat = _time_best(
        run_sweep_fused, net, sweep_seeds, sweep_placements, repeats=args.repeats
    )
    for a, b in zip(seq, bat):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert np.array_equal(a.crashed, b.crashed)
        assert a.meter.as_dict() == b.meter.as_dict()
        assert a.injections_accepted == b.injections_accepted
        assert a.injections_rejected == b.injections_rejected
    sp = record(
        "sweep",
        t_seq,
        t_bat,
        {
            "strategies": list(SWEEP_STRATEGIES),
            "placements": len(sweep_placements),
            "seeds": len(sweep_seeds),
            "cells": cells,
        },
        trials=cells,
    )
    print(f"{'sweep':<28}{t_seq * 1e3:>8.1f}ms{t_bat * 1e3:>8.1f}ms{sp:>9.2f}x")

    # --- multi-network fused sweep (per-trial-network entry point) -----
    multi_nets = _multi_nets()
    multi_seeds = _seeds(args.trials)
    multi_cells = len(multi_nets) * len(multi_seeds)
    run_multinet_fused(multi_nets, multi_seeds[: min(4, len(multi_seeds))])  # warm
    t_seq, seq = _time_best(
        run_multinet_sequential, multi_nets, multi_seeds, repeats=args.repeats
    )
    t_loop, loop = _time_best(
        run_multinet_batched_loop, multi_nets, multi_seeds, repeats=args.repeats
    )
    t_bat, bat = _time_best(
        run_multinet_fused, multi_nets, multi_seeds, repeats=args.repeats
    )
    for a, b, c in zip(seq, bat, loop):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert np.array_equal(a.decided_phase, c.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()
        assert a.meter.as_dict() == c.meter.as_dict()
    sp = record(
        "multi_net",
        t_seq,
        t_bat,
        {"ns": list(MULTI_NS), "seeds_per_n": len(multi_seeds), "cells": multi_cells},
        trials=multi_cells,
    )
    print(f"{'multi_net':<28}{t_seq * 1e3:>8.1f}ms{t_bat * 1e3:>8.1f}ms{sp:>9.2f}x")
    # Secondary, ungated: fused vs the per-size *batched* loop — the
    # same engine either way, so this ratio prices fusing the sizes into
    # one call (fewer Python-level phase loops, one wider kernel call).
    trajectory.append(
        {
            "workload": "multi_net-vs-batched-loop",
            "mode": "informational",
            "batched_loop_s": t_loop,
            "fused_s": t_bat,
            "speedup": t_loop / t_bat,
            "ns": list(MULTI_NS),
        }
    )
    print(
        f"{'multi_net-vs-batched-loop':<28}{t_loop * 1e3:>8.1f}ms"
        f"{t_bat * 1e3:>8.1f}ms{t_loop / t_bat:>9.2f}x"
    )

    # --- union-stack (rectangular block-diagonal size sweep) ----------
    t_multi = t_bat  # the run_counting_multinet timing from multi_net
    run_multinet_union(multi_nets, multi_seeds[: min(4, len(multi_seeds))])  # warm
    t_uni, uni = _time_best(
        run_multinet_union, multi_nets, multi_seeds, repeats=args.repeats
    )
    for a, b in zip(loop, uni):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()
    # Gated against the per-size *batched* loop: fusing every size into
    # one call is what this entry point is for.
    sp = record(
        "union_stack",
        t_loop,
        t_uni,
        {
            "reference": "per-size batched loop",
            "ns": list(MULTI_NS),
            "seeds_per_n": len(multi_seeds),
            "cells": multi_cells,
        },
        trials=multi_cells,
    )
    print(f"{'union_stack':<28}{t_loop * 1e3:>8.1f}ms{t_uni * 1e3:>8.1f}ms{sp:>9.2f}x")
    # Secondary, ungated: the rectangular entry point vs the per-trial
    # one on the same grid.
    trajectory.append(
        {
            "workload": "multinet-vs-unionstack",
            "mode": "informational",
            "multinet_s": t_multi,
            "union_s": t_uni,
            "speedup": t_multi / t_uni,
            "ns": list(MULTI_NS),
        }
    )
    print(
        f"{'multinet-vs-unionstack':<28}{t_multi * 1e3:>8.1f}ms"
        f"{t_uni * 1e3:>8.1f}ms{t_multi / t_uni:>9.2f}x"
    )

    # Compiled-backend variant of the union stack: the fused CSR-walk
    # kernel vs the numpy row-gather on the same concatenated layout.
    # Same gating as honest-numba: recorded only when numba can run.
    if "numba" in available_backends():
        run_multinet_union(  # JIT warm on the union layout
            multi_nets, multi_seeds[: min(4, len(multi_seeds))], backend="numba"
        )
        t_nbu, nbu = _time_best(
            run_multinet_union, multi_nets, multi_seeds, CFG, "numba",
            repeats=args.repeats,
        )
        for a, b in zip(uni, nbu):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()
        sp = record(
            "union_stack-numba",
            t_uni,
            t_nbu,
            {
                "requires": "numba",
                "reference": "numpy-backend union stack",
                "ns": list(MULTI_NS),
                "cells": multi_cells,
            },
            trials=multi_cells,
        )
        print(
            f"{'union_stack-numba':<28}{t_uni * 1e3:>8.1f}ms"
            f"{t_nbu * 1e3:>8.1f}ms{sp:>9.2f}x"
        )

    # --- continuous estimation service (resident engine under churn) --
    svc_epochs = SERVICE_EPOCHS
    svc_queries = svc_epochs * args.trials
    svc_snaps = _service_snapshots(args.n, epochs=svc_epochs)
    run_service_resident(
        _service_engine(args.n), seeds[: min(4, len(seeds))], epochs=2
    )  # warm
    t_cold, cold = _time_best(
        run_service_cold, svc_snaps, seeds, repeats=args.repeats
    )
    t_res, res = _time_best(
        run_service_resident,
        seeds,
        svc_epochs,
        repeats=args.repeats,
        fresh=lambda: _service_engine(args.n),
    )
    for a, b in zip(cold, res):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert a.meter.as_dict() == b.meter.as_dict()
    sp = record(
        "service",
        t_cold,
        t_res,
        {
            "reference": "cold rebuild per epoch",
            "epochs": svc_epochs,
            "churn_per_epoch": SERVICE_CHURN,
            "queries": svc_queries,
            "queries_per_s_cold": svc_queries / t_cold,
            "queries_per_s_resident": svc_queries / t_res,
        },
        trials=svc_queries,
    )
    print(f"{'service':<28}{t_cold * 1e3:>8.1f}ms{t_res * 1e3:>8.1f}ms{sp:>9.2f}x")

    # --- baseline estimator (geometric-max) ---------------------------
    t_seq, seq = _time_best(
        lambda: [run_geometric_max(net, seed=s) for s in seeds], repeats=args.repeats
    )
    t_bat, bat = _time_best(run_geometric_max_batch, net, seeds, repeats=args.repeats)
    for a, b in zip(seq, bat):
        assert np.array_equal(a.estimates, b.estimates)
        assert a.meter.as_dict() == b.meter.as_dict()
    # Not speedup-gated: the absolute times are single-digit ms, so the
    # ratio is dominated by fixed per-call costs rather than the kernels.
    sp = record("baseline-geometric-max", t_seq, t_bat, gated=False)
    print(
        f"{'baseline-geometric-max':<28}{t_seq * 1e3:>8.1f}ms"
        f"{t_bat * 1e3:>8.1f}ms{sp:>9.2f}x"
    )

    if args.json:
        artifact = {
            "benchmark": "bench_batch",
            "n": args.n,
            "trials": args.trials,
            "repeats": args.repeats,
            "jobs": args.jobs,
            "equivalence_checked": True,
            "host": _host_info(),
            "trajectory": trajectory,
        }
        with open(args.json, "w") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
