"""Cross-engine equivalence: agents vs scalar runner vs the union engine.

The library executes the counting protocol through three independent
implementations:

* ``agents`` — the message-level path: :func:`repro.core.agents
  .run_counting_agents` drives real :class:`~repro.sim.node.NodeProgram`
  objects over the :class:`~repro.sim.engine.SynchronousEngine`;
* ``runner`` — the vectorized reference engine
  (:func:`repro.core.runner.run_counting`);
* the batched union-stack engine (:mod:`repro.core.batch`), reached
  through three entry points, each a grid column here:

  * ``batch`` — :func:`repro.core.batch.run_counting_batch`, one network
    as a one-block union;
  * ``multinet`` — :func:`repro.core.batch.run_counting_multinet`,
    exercised with decoy trials on a network of a *different size* so
    the grid is ragged: the cell under test shares its column with a
    decoy block and sits beside an absent cell;
  * ``union`` — :func:`repro.core.batch.run_counting_unionstack`,
    exercised with the same decoy as a second block-diagonal row block
    and an extra decoy seed column, so the cell under test runs as one
    segment of a shared column.

All consume the same randomness in the same order, so for any
(network, config, strategy, seed) cell they must produce identical
per-node decisions and crash sets (DESIGN.md §2.1); the vectorized paths
must additionally match bit-for-bit on meters, traces, and injection
counters.  One parametrized grid pins every cell across every entry point
through one shared helper — this is the strongest correctness check in
the suite, and the harness CI runs in its own job step so union-segment
and absent-cell regressions fail loudly.
"""

import numpy as np
import pytest

from repro.adversary import placement_for_delta
from repro.core import CountingConfig, make_adversary
from repro.core.agents import run_counting_agents
from repro.core.batch import (
    run_counting_batch,
    run_counting_multinet,
    run_counting_unionstack,
)
from repro.core.runner import run_counting
from repro.graphs import build_small_world
from repro.sim.backends import available_backends
from repro.sim.channel import ChannelModel

STRATEGIES = [
    "honest",
    "early-stop",
    "inflation",
    "suppression",
    "silent",
    "adaptive-record",
    "combo",
    "topology-liar",
]

CFG = CountingConfig(max_phase=14)

#: The fixture grid: every (config, strategy) cell runs on every engine.
#: ``strategy=None`` is plain Algorithm 1 (no adversary object at all).
CELLS = (
    [("alg1", CFG.with_(verification=False), None, 5)]
    + [("alg1-seed2", CFG.with_(verification=False), None, 2)]
    + [(f"alg2-{s}", CFG, s, 5) for s in STRATEGIES]
    + [("alg2-no-verification", CFG.with_(verification=False, max_phase=8), "inflation", 5)]
)
CELL_IDS = [c[0] for c in CELLS]

#: Engines beyond the ``runner`` reference.  ``full`` marks engines whose
#: results must match bit-for-bit (meters, traces, injection counters);
#: the message-level agents path meters messages differently by design,
#: so it is pinned on decisions and crash sets.
ENGINES = [("agents", False), ("batch", True), ("multinet", True), ("union", True)]


@pytest.fixture(scope="module")
def net():
    return build_small_world(160, 8, seed=21)


@pytest.fixture(scope="module")
def decoy():
    """A smaller same-degree network that shares the batched grids."""
    return build_small_world(96, 8, seed=33)


@pytest.fixture(scope="module")
def byz(net):
    return placement_for_delta(net, 0.55, rng=9)


@pytest.fixture(scope="module")
def reference(net, byz):
    """Memoized ``runner`` results, one per grid cell."""
    cache = {}

    def get(name, cfg, strategy, seed):
        if name not in cache:
            cache[name] = run_cell("runner", net, decoy_net=None, byz=byz,
                                   cfg=cfg, strategy=strategy, seed=seed)
        return cache[name]

    return get


def run_cell(engine, net, *, decoy_net, byz, cfg, strategy, seed, backend=None,
             channel=None):
    """Execute one (network, config, strategy, seed) cell on one engine.

    This is the single shared entry point every equivalence test goes
    through; adding an engine or a cell extends the grid, not the tests.
    ``backend`` selects the flood-kernel compute backend on the batched
    entry points (batch/multinet/union); the runner and agents paths have no
    kernel backend axis.  ``channel`` (a
    :class:`~repro.sim.channel.ChannelModel`) likewise exists only on the
    batched entry points.
    """
    mask = byz if strategy is not None else None
    if engine == "runner":
        adversary = make_adversary(strategy) if strategy is not None else None
        return run_counting(net, cfg, seed=seed, adversary=adversary, byz_mask=mask)
    if engine == "agents":
        adversary = make_adversary(strategy) if strategy is not None else None
        return run_counting_agents(
            net, cfg, seed=seed, adversary=adversary, byz_mask=mask
        )
    if engine == "batch":
        factory = (
            (lambda: make_adversary(strategy)) if strategy is not None else None
        )
        return run_counting_batch(
            net, [seed], config=cfg, adversary_factory=factory, byz_mask=mask,
            backend=backend, channel=channel,
        )[0]
    if engine == "multinet":
        # The cell under test shares a ragged grid with two decoy trials
        # on a smaller network: its column spans both blocks, and its own
        # block's second column is an absent cell.
        factory = (
            (lambda: make_adversary(strategy)) if strategy is not None else None
        )
        masks = [None, mask, None] if factory is not None else None
        out = run_counting_multinet(
            [decoy_net, net, decoy_net],
            [seed + 1000, seed, seed + 2000],
            config=cfg,
            adversary_factory=factory,
            byz_mask=masks,
            backend=backend,
            channel=channel,
        )
        return out[1]
    if engine == "union":
        # The cell under test is one row segment of a block-diagonal
        # union stack: the decoy network is a second block and a decoy
        # seed a second column, so the cell's column is genuinely shared
        # across blocks.  Results are network-major: (block 1, column 1).
        factory = (
            (lambda: make_adversary(strategy)) if strategy is not None else None
        )
        masks = [None, mask] if factory is not None else None
        out = run_counting_unionstack(
            [decoy_net, net],
            [seed + 1000, seed],
            config=cfg,
            adversary_factory=factory,
            byz_mask=masks,
            backend=backend,
            channel=channel,
        )
        return out[1 * 2 + 1]
    raise ValueError(f"unknown engine {engine!r}")


def assert_cell_equal(ref, got, *, full: bool):
    """The shared equivalence assertion (decisions always; state if full)."""
    assert np.array_equal(ref.decided_phase, got.decided_phase)
    assert np.array_equal(ref.crashed, got.crashed)
    if full:
        assert np.array_equal(ref.byz, got.byz)
        assert ref.meter.as_dict() == got.meter.as_dict()
        assert list(ref.trace) == list(got.trace)
        assert ref.injections_accepted == got.injections_accepted
        assert ref.injections_rejected == got.injections_rejected


class TestEngineGrid:
    """Every grid cell, on every engine, against the runner reference.

    The ``backend`` axis reruns the batched engines under every kernel
    backend available on this machine (numpy always; numba when
    installed), pinning each backend bit-for-bit against the scalar
    runner.  The agents engine has no kernel backend, so only its
    default-backend cells run.
    """

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("engine,full", ENGINES, ids=[e for e, _ in ENGINES])
    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_cell(self, net, decoy, byz, reference, cell, engine, full, backend):
        if engine == "agents" and backend != "numpy":
            pytest.skip("the agents engine has no kernel backend axis")
        name, cfg, strategy, seed = cell
        ref = reference(name, cfg, strategy, seed)
        got = run_cell(
            engine, net, decoy_net=decoy, byz=byz, cfg=cfg, strategy=strategy,
            seed=seed, backend=backend,
        )
        assert_cell_equal(ref, got, full=full)


#: Every way to spell "no channel effect": all-zero, noise probability
#: with zero amplitude, amplitude with zero probability.
NULL_CHANNELS = [
    ChannelModel(),
    ChannelModel(noise_p=0.7, noise_amp=0),
    ChannelModel(noise_p=0.0, noise_amp=4),
]
NULL_CHANNEL_IDS = ["all-zero", "zero-amp", "zero-prob"]


class TestLosslessChannelGrid:
    """A null channel must be invisible: bit-for-bit the maskless output.

    Extends the engine grid with the channel axis — every cell, on every
    batched engine (the runner and agents paths have no channel), under
    every available kernel backend, run with a provably-null
    :class:`ChannelModel` must equal the channel-free runner reference
    exactly.  This pins the ``loss_p=0`` / zero-amplitude normalization
    contract of :mod:`repro.sim.channel` at full grid coverage.
    """

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("channel", NULL_CHANNELS, ids=NULL_CHANNEL_IDS)
    @pytest.mark.parametrize("engine", ["batch", "multinet", "union"])
    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_cell(self, net, decoy, byz, reference, cell, engine, channel, backend):
        name, cfg, strategy, seed = cell
        ref = reference(name, cfg, strategy, seed)
        got = run_cell(
            engine, net, decoy_net=decoy, byz=byz, cfg=cfg, strategy=strategy,
            seed=seed, backend=backend, channel=channel,
        )
        assert_cell_equal(ref, got, full=True)


class TestMultinetPaddingColumn:
    """The ragged grid's decoy neighbour must itself stay exact."""

    def test_decoy_trial_matches_its_own_network(self, net, decoy, byz):
        out = run_counting_multinet(
            [decoy, net],
            [7, 5],
            config=CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=[None, byz],
        )
        ref = run_counting(decoy, CFG, seed=7, adversary=make_adversary("early-stop"),
                           byz_mask=np.zeros(decoy.n, dtype=bool))
        assert_cell_equal(ref, out[0], full=True)


class TestUnionStackNeighbours:
    """Every other cell of the 2x2 union grid must itself stay exact."""

    def test_all_grid_cells_match_per_network_runs(self, net, decoy, byz):
        seeds = [7, 5]
        out = run_counting_unionstack(
            [decoy, net],
            seeds,
            config=CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=[None, byz],
        )
        for g, (network, mask) in enumerate([(decoy, None), (net, byz)]):
            for j, seed in enumerate(seeds):
                ref = run_counting(
                    network,
                    CFG,
                    seed=seed,
                    adversary=make_adversary("early-stop"),
                    byz_mask=(
                        mask
                        if mask is not None
                        else np.zeros(network.n, dtype=bool)
                    ),
                )
                assert_cell_equal(ref, out[g * 2 + j], full=True)


class TestAgentMessageAccounting:
    def test_agent_engine_meters_messages(self, net, byz):
        res = run_counting_agents(
            net, CFG, seed=5, adversary=make_adversary("early-stop"), byz_mask=byz
        )
        assert res.meter.messages > 0
        assert res.meter.max_message_ids >= net.d  # adjacency claims carry d IDs
