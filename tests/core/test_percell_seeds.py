"""Per-cell seeds on the union engine, checked against the scalar runner.

The batched engine runs every trial as one cell of a ``(G, C)`` union grid
with its own seed and a presence bit.  Ragged grids (different trial
counts per network) leave absent cells, and ``Generator`` seeds are only
accepted where they feed exactly one cell.  The oracle here is the scalar
:func:`repro.core.runner.run_counting`, one call per cell, which shares no
code with the union engine's phase loops.
"""

import numpy as np
import pytest

from repro.adversary import placement_for_delta
from repro.core import batch
from repro.core.batch import (
    run_counting_batch,
    run_counting_multinet,
    run_counting_unionstack,
)
from repro.core.colors import sample_colors
from repro.core.config import CountingConfig
from repro.core.estimator import make_adversary
from repro.core.runner import run_counting
from repro.core.sweep import run_multi_sweep
from repro.graphs import build_small_world
from repro.sim.channel import ChannelModel
from repro.sim.flood import UnionFloodKernel
from repro.sim.rng import make_rng, spawn

CFG = CountingConfig(max_phase=10)
HONEST = CFG.with_(verification=False)


def assert_trial_equal(a, b):
    assert a.n == b.n
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


def scalar(net, cfg, seed, strategy=None, mask=None):
    """The oracle: one sequential run of one cell."""
    if strategy is None:
        return run_counting(net, cfg, seed=seed)
    return run_counting(
        net, cfg, seed=seed, adversary=make_adversary(strategy), byz_mask=mask
    )


@pytest.fixture(scope="module")
def nets():
    return [build_small_world(96, 8, seed=5), build_small_world(128, 8, seed=6)]


def _placement(net):
    return placement_for_delta(net, 0.5, rng=3)


class TestRaggedCells:
    AXES = [[11, 12, 13], [14]]

    def test_ragged_multi_sweep_honest(self, nets):
        multi = run_multi_sweep(nets, seeds=self.AXES, configs=HONEST)
        for g, (net, axis) in enumerate(zip(nets, self.AXES)):
            for b, seed in enumerate(axis):
                assert_trial_equal(
                    scalar(net, HONEST, seed), multi.cell(network=g, seed=b)
                )

    @pytest.mark.parametrize("strategy", ["early-stop", "inflation"])
    def test_ragged_multi_sweep_byzantine(self, nets, strategy):
        multi = run_multi_sweep(
            nets,
            seeds=self.AXES,
            configs=CFG,
            placements=lambda net: [_placement(net)],
            strategies=strategy,
        )
        for g, (net, axis) in enumerate(zip(nets, self.AXES)):
            for b, seed in enumerate(axis):
                want = scalar(net, CFG, seed, strategy, _placement(net))
                assert_trial_equal(want, multi.cell(network=g, seed=b))

    def test_multinet_honest_ragged_mixed_configs(self, nets):
        a, b = nets
        trial_nets = [a, b, a, a, b]
        seeds = [21, 22, 23, 24, 25]
        configs = [HONEST, HONEST.with_(max_phase=7), HONEST, HONEST, HONEST]
        out = run_counting_multinet(trial_nets, seeds, config=configs)
        for net, seed, cfg, res in zip(trial_nets, seeds, configs, out):
            assert_trial_equal(scalar(net, cfg, seed), res)

    @pytest.mark.parametrize("strategy", ["early-stop", "silent"])
    def test_multinet_static_byzantine_ragged(self, nets, strategy):
        a, b = nets
        trial_nets = [b, a, a, b, a]
        seeds = [31, 32, 33, 34, 35]
        masks = [_placement(b), _placement(a), None, None, _placement(a)]
        out = run_counting_multinet(
            trial_nets,
            seeds,
            config=CFG,
            adversary_factory=lambda: make_adversary(strategy),
            byz_mask=masks,
        )
        for net, seed, mask, res in zip(trial_nets, seeds, masks, out):
            assert_trial_equal(scalar(net, CFG, seed, strategy, mask), res)


class TestCellStreams:
    """The engine spawns each cell's streams straight from its seed; they
    must be ``spawn(make_rng(seed), ...)``'s, bit for bit."""

    @staticmethod
    def _assert_same_stream(a, b):
        # mobile's walk stream is a child spawned off the adversary stream.
        for x, y in ((a, b), (spawn(a, 1)[0], spawn(b, 1)[0])):
            assert np.array_equal(
                x.integers(0, 2**63, size=16), y.integers(0, 2**63, size=16)
            )

    @pytest.mark.parametrize("channel", [None, ChannelModel(loss_p=0.1)])
    def test_int_seeds_match_make_rng_spawn(self, channel):
        seeds = [[0, 5, 2**40], [3, np.int64(9), 11]]
        present = np.array([[True, True, True], [True, False, True]])
        colors, advs, chans = batch._cell_streams(seeds, present, channel)
        for g, j in np.argwhere(present).tolist():
            root = make_rng(seeds[g][j])
            want = spawn(root, 2) + ([] if channel is None else spawn(root, 1))
            got = [colors[g][j], advs[g][j]]
            if channel is None:
                assert chans[g][j] is None
            else:
                got.append(chans[g][j])
            for a, b in zip(got, want, strict=True):
                self._assert_same_stream(a, b)
        assert colors[1][1] is advs[1][1] is chans[1][1] is None

    @pytest.mark.parametrize("channel", [None, ChannelModel(loss_p=0.1)])
    def test_generator_seed_spawns_from_itself(self, channel):
        seed, twin = make_rng(4), make_rng(4)
        colors, advs, chans = batch._cell_streams(
            [[seed]], np.ones((1, 1), dtype=bool), channel
        )
        want = spawn(twin, 2) + ([] if channel is None else spawn(twin, 1))
        got = [colors[0][0], advs[0][0]] + ([] if channel is None else [chans[0][0]])
        for a, b in zip(got, want, strict=True):
            self._assert_same_stream(a, b)
        assert (
            seed.bit_generator.seed_seq.n_children_spawned
            == twin.bit_generator.seed_seq.n_children_spawned
        )


class TestGeneratorSeeds:
    def test_single_network_generators_match_scalar(self, nets):
        net = nets[0]
        got = run_counting_batch(
            net, [np.random.default_rng(3), np.random.default_rng(4)], config=HONEST
        )
        for seed, res in zip((3, 4), got):
            assert_trial_equal(scalar(net, HONEST, np.random.default_rng(seed)), res)
        got = run_counting_unionstack([net], [np.random.default_rng(5)], config=HONEST)
        assert_trial_equal(scalar(net, HONEST, np.random.default_rng(5)), got[0])

    def test_distinct_generators_on_ragged_axes_match_scalar(self, nets):
        multi = run_multi_sweep(
            nets,
            seeds=[
                [np.random.default_rng(6), np.random.default_rng(7)],
                [np.random.default_rng(8)],
            ],
            configs=HONEST,
        )
        for (g, b), seed in zip([(0, 0), (0, 1), (1, 0)], (6, 7, 8)):
            want = scalar(nets[g], HONEST, np.random.default_rng(seed))
            assert_trial_equal(want, multi.cell(network=g, seed=b))

    def test_shared_generator_over_two_networks_rejected(self, nets, monkeypatch):
        def no_kernel(*_args, **_kwargs):
            raise AssertionError("state allocated before the seed check")

        monkeypatch.setattr(batch, "_resolve_union_kernel", no_kernel)
        rng = np.random.default_rng(1)
        with pytest.raises(TypeError, match="Generator"):
            run_multi_sweep(nets, seeds=[rng], configs=HONEST)
        with pytest.raises(TypeError, match="Generator"):
            run_counting_unionstack(nets, [rng], config=HONEST)
        with pytest.raises(TypeError, match="Generator"):
            run_counting_multinet(nets, [rng, rng], config=HONEST)


class TestAbsentCells:
    """Absent cells spawn nothing, draw nothing, flood nothing, emit nothing."""

    def _run(self, nets, seeds, present, monkeypatch):
        """Run the engine grid, counting color draws and flooding rounds."""
        draws = []
        monkeypatch.setattr(
            batch,
            "sample_colors",
            lambda rng, size: draws.append(size) or sample_colors(rng, size),
        )
        kernel = UnionFloodKernel.from_networks(nets)
        rounds = []
        gather = kernel.neighbor_max_stacked
        kernel.neighbor_max_stacked = lambda *a, **kw: rounds.append(1) or gather(*a, **kw)
        grid = batch._run_union(
            nets,
            seeds,
            np.asarray(present, dtype=bool),
            [HONEST] * len(present[0]),
            None,
            None,
            kernel=kernel,
            backend=None,
            channel=None,
        )
        return grid, draws, len(rounds)

    def test_all_absent_column_adds_no_result_and_no_phase(self, nets, monkeypatch):
        base, base_draws, base_rounds = self._run(
            nets, [[41], [42]], [[True], [True]], monkeypatch
        )
        grid, draws, rounds = self._run(
            nets, [[41, 43], [42, 44]], [[True, False], [True, False]], monkeypatch
        )
        assert grid[0][1] is None and grid[1][1] is None
        assert draws == base_draws
        assert rounds == base_rounds
        for g, seed in enumerate((41, 42)):
            assert_trial_equal(scalar(nets[g], HONEST, seed), grid[g][0])
            assert_trial_equal(base[g][0], grid[g][0])

    def test_absent_cell_beside_present_ones(self, nets, monkeypatch):
        grid, _draws, _rounds = self._run(
            nets, [[51, 52], [53, 54]], [[True, True], [False, True]], monkeypatch
        )
        assert grid[1][0] is None
        for g, j, seed in [(0, 0, 51), (0, 1, 52), (1, 1, 54)]:
            assert_trial_equal(scalar(nets[g], HONEST, seed), grid[g][j])
