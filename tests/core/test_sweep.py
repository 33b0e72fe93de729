"""Per-trial placements and the fused sweep must be bit-for-bit.

The fused sweep engine exists so the placement-varying experiments
(E07/E11/E14) can leave the scalar ``run_byzantine_counting`` loop without
changing any reported number.  These tests pin that contract cell by cell:
a batch with per-trial ``(B, n)`` Byzantine masks — and a full
``run_sweep`` grid over (strategy, placement, config, seed) — must equal
the scalar sequential runs exactly, including crash sets, meters, traces,
and injection counters.  The int32/int64 dtype boundary of the adversarial
state is exercised from both sides (plans at ``INT32_MAX`` stay narrow,
plans beyond it widen mid-run), since the demotion must never change a
value.
"""

import numpy as np
import pytest

from repro.adversary import placement_for_delta
from repro.adversary.base import Adversary, Injection, SubphasePlan
from repro.adversary.placement import clustered_placement, random_placement
from repro.adversary.strategies import EarlyStopAdversary
from repro.core import (
    ADVERSARIES,
    CountingConfig,
    make_adversary,
    run_counting,
    run_counting_batch,
    run_multi_sweep,
    run_sweep,
)
from repro.core.sweep import MIN_SHARD_CELLS, _shard_bounds
from repro.experiments.common import byzantine_counting_trials
from repro.sim.channel import ChannelModel

INT32_MAX = int(np.iinfo(np.int32).max)


def assert_trial_equal(a, b):
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


def _mixed_placements(net, seed=4):
    return [
        placement_for_delta(net, 0.5, rng=seed),
        placement_for_delta(net, 0.55, rng=seed + 1),
        clustered_placement(net, 4, rng=seed + 2),
    ]


class TestPerTrialMasks:
    """(B, n) mask stacks must match per-trial scalar runs per strategy."""

    CFG = CountingConfig(max_phase=12)

    @pytest.mark.parametrize("strategy", sorted(ADVERSARIES))
    def test_strategy_matches_sequential(self, net_small, strategy):
        if type(make_adversary(strategy)).batch_adapt is not Adversary.batch_adapt:
            pytest.skip("adaptive placement exists only in the batched protocol")
        base = _mixed_placements(net_small)
        masks = [base[0], base[1], base[2], base[0], base[2]]
        seeds = [20, 21, 22, 23, 24]
        seq = [
            run_counting(
                net_small,
                self.CFG,
                seed=s,
                adversary=make_adversary(strategy),
                byz_mask=m,
            )
            for s, m in zip(seeds, masks)
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=self.CFG,
            adversary_factory=lambda: make_adversary(strategy),
            byz_mask=masks,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_stack_array_matches_list(self, net_small):
        masks = _mixed_placements(net_small)
        seeds = [1, 2, 3]
        from_list = run_counting_batch(
            net_small,
            seeds,
            config=self.CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=masks,
        )
        from_stack = run_counting_batch(
            net_small,
            seeds,
            config=self.CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=np.array(masks),
        )
        for a, b in zip(from_list, from_stack):
            assert_trial_equal(a, b)

    def test_mixed_configs_and_masks(self, net_small):
        masks = _mixed_placements(net_small)
        cfgs = [self.CFG, self.CFG.with_(eps=0.25), self.CFG]
        seeds = [5, 6, 7]
        seq = [
            run_counting(
                net_small, c, seed=s, adversary=make_adversary("inflation"), byz_mask=m
            )
            for s, c, m in zip(seeds, cfgs, masks)
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfgs,
            adversary_factory=lambda: make_adversary("inflation"),
            byz_mask=masks,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_empty_and_nonempty_masks_mix(self, net_small):
        empty = np.zeros(net_small.n, dtype=bool)
        masks = [empty, placement_for_delta(net_small, 0.5, rng=9)]
        seeds = [8, 9]
        seq = [
            run_counting(
                net_small, self.CFG, seed=s, adversary=make_adversary("honest"), byz_mask=m
            )
            for s, m in zip(seeds, masks)
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=self.CFG,
            adversary_factory=lambda: make_adversary("honest"),
            byz_mask=masks,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_wrong_length_mask_list_rejected(self, net_small):
        masks = _mixed_placements(net_small)[:2]
        with pytest.raises(ValueError, match="2 placement masks for 3 seeds"):
            run_counting_batch(
                net_small,
                [1, 2, 3],
                config=self.CFG,
                adversary_factory=lambda: make_adversary("honest"),
                byz_mask=masks,
            )

    def test_wrong_length_stack_rejected_via_trials_helper(self, net_small):
        masks = np.array(_mixed_placements(net_small))  # (3, n)
        with pytest.raises(ValueError, match="3 placement masks for 4 seeds"):
            byzantine_counting_trials(
                net_small,
                lambda: make_adversary("early-stop"),
                masks,
                [1, 2, 3, 4],
            )

    def test_trials_helper_accepts_mask_stack(self, net_small):
        masks = _mixed_placements(net_small)
        seeds = [11, 12, 13]
        batch = byzantine_counting_trials(
            net_small,
            lambda: make_adversary("early-stop"),
            np.array(masks),
            seeds,
        )
        seq = [
            run_counting(
                net_small,
                CountingConfig(),
                seed=s,
                adversary=make_adversary("early-stop"),
                byz_mask=m,
            )
            for s, m in zip(seeds, masks)
        ]
        for a, b in zip(seq, batch):
            assert_trial_equal(a, b)

    def test_bad_mask_shape_rejected(self, net_small):
        with pytest.raises(ValueError, match="shape"):
            run_counting_batch(
                net_small,
                [1],
                config=self.CFG,
                adversary_factory=lambda: make_adversary("honest"),
                byz_mask=np.zeros(net_small.n - 1, dtype=bool),
            )

    def test_shared_instance_multi_placement_rejected(self, net_small):
        masks = _mixed_placements(net_small)
        with pytest.raises(ValueError, match="factory"):
            run_counting_batch(
                net_small,
                [1, 2, 3],
                config=self.CFG,
                adversary_factory=make_adversary("early-stop"),
                byz_mask=masks,
            )

    def test_shared_instance_single_placement_still_works(self, net_small):
        mask = placement_for_delta(net_small, 0.5, rng=4)
        bat = run_counting_batch(
            net_small,
            [1, 2],
            config=self.CFG,
            adversary_factory=make_adversary("early-stop"),
            byz_mask=[mask, mask],
        )
        assert len(bat) == 2


class _NegativeInitialAdversary(Adversary):
    """Emits an initial color below ``INT32_MIN``.

    Out of the color contract (colors are positive), but the sequential
    int64 engine keeps such a value negative and inert under max-flooding —
    the narrow state must widen rather than wrap it into a huge positive
    color.
    """

    name = "negative-initial"

    def subphase_plan(self, state):
        colors = np.full(state.byz_nodes.shape[0], -(2**31 + 10), dtype=np.int64)
        return SubphasePlan(initial_colors=colors, injections=[], relay=True)


class _StraddlingAdversary(Adversary):
    """Injection values cross ``INT32_MAX`` as phases progress.

    Phase 1 injects exactly ``INT32_MAX`` (the widest value the narrow
    state can hold), later phases exceed it — so one run exercises the
    int32 fast path, the lazy widening, and the int64 tail.
    """

    name = "straddle-int32"

    def subphase_plan(self, state):
        value = INT32_MAX - 1 + state.phase
        injections = [Injection(t=1, nodes=state.byz_nodes, value=value)]
        return SubphasePlan(initial_colors=None, injections=injections, relay=True)


class TestDtypeBoundary:
    """int32 demotion must never change a value, on either side of the line."""

    CFG = CountingConfig(max_phase=10)

    @pytest.mark.parametrize(
        "value",
        [INT32_MAX, INT32_MAX + 1, 2**31 + 12345],
        ids=["at-boundary-int32", "just-over-widens", "far-over-widens"],
    )
    def test_early_stop_value_matches_sequential(self, net_small, value):
        byz = placement_for_delta(net_small, 0.5, rng=4)
        seeds = [30, 31, 32]
        seq = [
            run_counting(
                net_small,
                self.CFG,
                seed=s,
                adversary=EarlyStopAdversary(value=value),
                byz_mask=byz,
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=self.CFG,
            adversary_factory=lambda: EarlyStopAdversary(value=value),
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_straddling_plan_widens_mid_run(self, net_small):
        byz = placement_for_delta(net_small, 0.5, rng=4)
        # stop_when_all_decided=False forces the run through every phase,
        # so the batch provably crosses the boundary mid-run.
        cfg = CountingConfig(max_phase=5, stop_when_all_decided=False)
        seeds = [40, 41]
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=_StraddlingAdversary(), byz_mask=byz
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=_StraddlingAdversary,
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_negative_initial_below_int32_min_widens(self, net_small):
        byz = placement_for_delta(net_small, 0.5, rng=4)
        seeds = [45, 46]
        seq = [
            run_counting(
                net_small,
                self.CFG,
                seed=s,
                adversary=_NegativeInitialAdversary(),
                byz_mask=byz,
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=self.CFG,
            adversary_factory=_NegativeInitialAdversary,
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_straddling_with_mixed_placements(self, net_small):
        masks = _mixed_placements(net_small)
        cfg = CountingConfig(max_phase=4, stop_when_all_decided=False)
        seeds = [50, 51, 52]
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=_StraddlingAdversary(), byz_mask=m
            )
            for s, m in zip(seeds, masks)
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=_StraddlingAdversary,
            byz_mask=masks,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)


class TestRunSweep:
    """The fused grid API: bit-for-bit per cell, shaped access, sharding."""

    CFG = CountingConfig(max_phase=12)

    def test_grid_matches_scalar_loops(self, net_small):
        placements = _mixed_placements(net_small)[:2]
        configs = [self.CFG, self.CFG.with_(eps=0.25)]
        strategies = ["early-stop", "adaptive-record"]
        seeds = [60, 61]
        sweep = run_sweep(
            net_small,
            seeds=seeds,
            configs=configs,
            placements=placements,
            strategies=strategies,
        )
        assert sweep.shape == (2, 2, 2, 2)
        assert len(sweep) == 16
        for cell in sweep:
            ref = run_counting(
                net_small,
                cell.config,
                seed=cell.seed,
                adversary=make_adversary(cell.strategy),
                byz_mask=cell.placement,
            )
            assert_trial_equal(ref, cell.result)

    def test_honest_grid_matches_algorithm1(self, net_small):
        cfgs = [
            CountingConfig(verification=False, max_phase=12, eps=eps)
            for eps in (0.1, 0.25)
        ]
        sweep = run_sweep(net_small, seeds=[1, 2], configs=cfgs)
        assert sweep.shape == (1, 1, 2, 2)
        for cell in sweep:
            ref = run_counting(net_small, cell.config, seed=cell.seed)
            assert_trial_equal(ref, cell.result)

    def test_cell_indexing_matches_cells_iteration(self, net_small):
        placements = _mixed_placements(net_small)[:2]
        sweep = run_sweep(
            net_small,
            seeds=[3, 4],
            configs=self.CFG,
            placements=placements,
            strategies="suppression",
        )
        for cell in sweep:
            picked = sweep.cell(
                strategy=cell.strategy_index,
                placement=cell.placement_index,
                config=cell.config_index,
                seed=cell.seed_index,
            )
            assert picked is cell.result

    def test_seed_batch_aggregates(self, net_small):
        placements = _mixed_placements(net_small)[:2]
        seeds = [7, 8, 9]
        sweep = run_sweep(
            net_small,
            seeds=seeds,
            configs=self.CFG,
            placements=placements,
            strategies="early-stop",
        )
        batch = sweep.seed_batch(placement=1)
        assert len(batch) == len(seeds)
        for b, _seed in enumerate(seeds):
            assert batch[b] is sweep.cell(placement=1, seed=b)

    def test_sharded_equals_serial(self, net_small):
        placements = _mixed_placements(net_small)[:2]
        strategies = ["early-stop", "inflation"]
        seeds = [10, 11]
        serial = run_sweep(
            net_small,
            seeds=seeds,
            configs=self.CFG,
            placements=placements,
            strategies=strategies,
        )
        sharded = run_sweep(
            net_small,
            seeds=seeds,
            configs=self.CFG,
            placements=placements,
            strategies=strategies,
            jobs=2,
            shard_cells=2,
        )
        for a, b in zip(serial.results, sharded.results):
            assert_trial_equal(a, b)

    def test_factory_strategy_spec(self, net_small):
        mask = placement_for_delta(net_small, 0.5, rng=4)
        sweep = run_sweep(
            net_small,
            seeds=[12],
            configs=self.CFG,
            placements=mask,
            strategies=lambda: make_adversary("combo"),
        )
        ref = run_counting(
            net_small, self.CFG, seed=12, adversary=make_adversary("combo"), byz_mask=mask
        )
        assert_trial_equal(ref, sweep.cell())

    def test_empty_seeds_rejected(self, net_small):
        with pytest.raises(ValueError, match="seed"):
            run_sweep(net_small, seeds=[])

    def test_duplicate_seeds_rejected(self, net_small):
        with pytest.raises(ValueError, match="duplicate seed"):
            run_sweep(net_small, seeds=[1, 2, 1])

    def test_duplicate_generator_objects_rejected(self, net_small):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duplicate seed"):
            run_sweep(net_small, seeds=[rng, rng])

    def test_repeated_none_seeds_accepted(self, net_small):
        # None draws fresh entropy per trial, so repeats are distinct trials.
        cfg = CountingConfig(verification=False, max_phase=10)
        sweep = run_sweep(net_small, seeds=[None, None], configs=cfg)
        assert sweep.shape == (1, 1, 1, 2)

    def test_distinct_generator_objects_accepted(self, net_small):
        cfg = CountingConfig(verification=False, max_phase=10)
        sweep = run_sweep(
            net_small,
            seeds=[np.random.default_rng(3), np.random.default_rng(4)],
            configs=cfg,
        )
        ref = run_counting(net_small, cfg, seed=np.random.default_rng(3))
        assert np.array_equal(ref.decided_phase, sweep.cell(seed=0).decided_phase)

    def test_one_shot_generator_rejected(self, net_small):
        with pytest.raises(TypeError, match="materialized sequence"):
            run_sweep(net_small, seeds=(s for s in [1, 2, 3]))

    def test_bare_numpy_generator_rejected(self, net_small):
        with pytest.raises(TypeError, match="single\\s+numpy Generator"):
            run_sweep(net_small, seeds=np.random.default_rng(0))

    def test_string_seeds_rejected(self, net_small):
        with pytest.raises(TypeError, match="sequence"):
            run_sweep(net_small, seeds="123")

    def test_nested_seed_entries_rejected(self, net_small):
        # A one-network sweep's seed axis is one axis: a nested entry is
        # rejected eagerly, never read as a per-network seed axis.
        with pytest.raises(TypeError, match="scalar seeds"):
            run_sweep(net_small, seeds=[[1, 2]])
        with pytest.raises(TypeError, match="scalar seeds"):
            run_sweep(net_small, seeds=[1, np.array([2, 3])])

    def test_array_seeds_accepted(self, net_small):
        cfg = CountingConfig(verification=False, max_phase=10)
        sweep = run_sweep(net_small, seeds=np.array([4, 5]), configs=cfg)
        assert sweep.shape == (1, 1, 1, 2)

    def test_none_strategy_with_byz_placement_rejected(self, net_small):
        mask = placement_for_delta(net_small, 0.5, rng=4)
        with pytest.raises(ValueError, match="strategy"):
            run_sweep(net_small, seeds=[1], placements=mask)

    def test_bad_placement_shape_rejected(self, net_small):
        with pytest.raises(ValueError, match="placements"):
            run_sweep(
                net_small,
                seeds=[1],
                placements=[np.zeros(net_small.n + 1, dtype=bool)],
                strategies="honest",
            )

    def test_shard_cells_one_still_valid(self, net_small):
        mask = placement_for_delta(net_small, 0.5, rng=4)
        sweep = run_sweep(
            net_small,
            seeds=[1, 2],
            configs=self.CFG,
            placements=mask,
            strategies="early-stop",
            shard_cells=1,
        )
        assert len(sweep) == 2

    def test_zero_shard_cells_rejected(self, net_small):
        with pytest.raises(ValueError, match="shard_cells"):
            run_sweep(net_small, seeds=[1], shard_cells=0)

    def test_liar_counts_sweep_matches_crash_phase(self, net_small):
        # E11's routing: the engine's pre-phase crash mask must equal a
        # direct crash_phase call under the same claims.
        from repro.core import crash_phase
        from repro.adversary.strategies import TopologyLiarAdversary

        placements = [
            random_placement(net_small.n, liars, rng=31 + liars) for liars in (1, 2)
        ]
        sweep = run_sweep(
            net_small,
            seeds=[0],
            configs=CountingConfig(max_phase=12),
            placements=placements,
            strategies="topology-liar",
        )
        for p_idx, byz in enumerate(placements):
            adv = TopologyLiarAdversary()
            adv.bind(net_small, byz, None, CountingConfig())
            expected = crash_phase(net_small, byz, adv.topology_claims())
            assert np.array_equal(sweep.cell(placement=p_idx).crashed, expected)


class TestCostWeightedShards:
    """The cost-weighted splitter: valid partitions, balanced by cost."""

    def test_serial_is_one_shard(self):
        assert _shard_bounds([1.0] * 10, None, None) == [(0, 10)]

    def test_fixed_size_override(self):
        assert _shard_bounds([1.0] * 5, None, 2) == [(0, 2), (2, 4), (4, 5)]

    def test_partition_is_exact_and_ordered(self):
        costs = [3.0, 1.0, 1.0, 1.0, 8.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        bounds = _shard_bounds(costs, target_cost=5.0, shard_cells=None)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(costs)
        for (_l1, h1), (l2, _h2) in zip(bounds, bounds[1:]):
            assert h1 == l2
        for lo, hi in bounds:
            assert hi - lo >= min(MIN_SHARD_CELLS, len(costs))

    def test_skewed_costs_move_boundaries(self):
        # A cheap prefix and an expensive suffix: the boundary must land
        # deeper into the cheap cells than a count-based split would.
        costs = [1.0] * 12 + [10.0] * 12
        bounds = _shard_bounds(costs, target_cost=sum(costs) / 2, shard_cells=None)
        assert len(bounds) >= 2
        first = bounds[0]
        assert first[1] > 12  # swallowed the whole cheap prefix and more


class TestRunMultiSweep:
    """The network axis: bit-for-bit per cell vs per-network run_sweep."""

    CFG = CountingConfig(max_phase=10)

    def _nets(self):
        from repro.graphs import build_small_world

        return [build_small_world(n, 8, seed=50 + n) for n in (96, 128)]

    def test_cells_match_per_network_sweeps(self):
        nets = self._nets()
        place = lambda net: [placement_for_delta(net, 0.5, rng=3)]
        multi = run_multi_sweep(
            nets,
            seeds=[70, 71],
            configs=self.CFG,
            placements=place,
            strategies=["early-stop", "inflation"],
        )
        assert multi.shape == (2, 2, 1, 1, 2)
        for g, net in enumerate(nets):
            single = run_sweep(
                net,
                seeds=[70, 71],
                configs=self.CFG,
                placements=place(net),
                strategies=["early-stop", "inflation"],
            )
            got = multi.sweep(g)
            assert single.shape == got.shape
            for a, b in zip(single.results, got.results):
                assert_trial_equal(a, b)

    def test_run_sweep_rejects_network_list(self):
        nets = self._nets()
        cfg = CountingConfig(verification=False, max_phase=10)
        for axis in (nets, tuple(nets), nets[:1]):
            with pytest.raises(TypeError, match="run_multi_sweep"):
                run_sweep(axis, seeds=[1, 2], configs=cfg)
        multi = run_multi_sweep(nets, seeds=[1, 2], configs=cfg)
        for g, net in enumerate(nets):
            for b, s in enumerate([1, 2]):
                ref = run_counting(net, cfg, seed=s)
                assert_trial_equal(ref, multi.cell(network=g, seed=b))

    def test_whole_payload_shards_adopt_the_shipped_csr(self, monkeypatch):
        # The map stacks the union CSR once; a shard whose networks are
        # the whole payload adopts it instead of re-stacking.
        import traceback

        from repro.sim import flood

        stack = flood.stack_union_csr
        in_shard: list[bool] = []

        def counting(networks):
            names = {frame.name for frame in traceback.extract_stack()}
            in_shard.append("_run_multi_shard" in names)
            return stack(networks)

        monkeypatch.setattr(flood, "stack_union_csr", counting)
        nets = self._nets()
        cfg = CountingConfig(verification=False, max_phase=10)
        run_multi_sweep(nets, seeds=[1, 2], configs=cfg)
        assert in_shard == [False]
        in_shard.clear()
        # 2-cell shards: cells (0, 3) and (1, 4) span both networks, then
        # (1, 5) and (1, 6) run on network 1 alone.
        ragged = run_multi_sweep(
            nets, seeds=[[3], [4, 5, 6]], configs=cfg, shard_cells=2
        )
        assert in_shard == [False]
        for g, b, s in ((0, 0, 3), (1, 0, 4), (1, 2, 6)):
            ref = run_counting(nets[g], cfg, seed=s)
            assert_trial_equal(ref, ragged.cell(network=g, seed=b))

    def test_sharded_equals_serial(self):
        nets = self._nets()
        place = lambda net: [placement_for_delta(net, 0.5, rng=3)]
        kwargs = dict(
            seeds=[80, 81],
            configs=self.CFG,
            placements=place,
            strategies=["early-stop", "inflation"],
        )
        serial = run_multi_sweep(nets, **kwargs)
        sharded = run_multi_sweep(nets, **kwargs, jobs=2, shard_cells=3)
        for a, b in zip(serial.results, sharded.results):
            assert_trial_equal(a, b)

    def test_seed_batch_is_contiguous_block(self):
        nets = self._nets()
        cfg = CountingConfig(verification=False, max_phase=10)
        multi = run_multi_sweep(nets, seeds=[5, 6, 7], configs=cfg)
        batch = multi.seed_batch(network=1)
        assert len(batch) == 3
        for b in range(3):
            assert batch[b] is multi.cell(network=1, seed=b)

    def test_empty_network_axis_rejected(self):
        with pytest.raises(ValueError, match="network"):
            run_multi_sweep([], seeds=[1])

    def test_mixed_degree_rejected(self):
        from repro.graphs import build_small_world

        nets = [build_small_world(96, 8, seed=1), build_small_world(96, 6, seed=2)]
        with pytest.raises(ValueError, match="degree d"):
            run_multi_sweep(nets, seeds=[1])

    def test_placement_axis_length_mismatch_rejected(self):
        nets = self._nets()
        specs = [[placement_for_delta(nets[0], 0.5, rng=3)], None]
        with pytest.raises(ValueError, match="placement axis"):
            run_multi_sweep(
                nets,
                seeds=[1],
                placements=[specs[0], [None, None]],
                strategies="early-stop",
            )

    def test_per_network_placement_count_mismatch_rejected(self):
        nets = self._nets()
        with pytest.raises(ValueError, match="one placement axis per network"):
            run_multi_sweep(
                nets,
                seeds=[1],
                placements=[[None]],
                strategies="early-stop",
            )

    def test_wrong_size_mask_rejected(self):
        nets = self._nets()
        bad = np.zeros(nets[0].n + 1, dtype=bool)
        with pytest.raises(ValueError, match="placements"):
            run_multi_sweep(
                nets,
                seeds=[1],
                placements=lambda net: [bad],
                strategies="early-stop",
            )


class TestLayoutSelector:
    """The network axis always runs on the union stack, rectangular or ragged."""

    CFG = CountingConfig(max_phase=8)

    def _nets(self):
        from repro.graphs import build_small_world

        return [build_small_world(n, 8, seed=50 + n) for n in (96, 128)]

    def test_rectangular_grid_auto_selects_union(self):
        nets = self._nets()
        cfg = CountingConfig(verification=False, max_phase=8)
        multi = run_multi_sweep(nets, seeds=[1, 2], configs=cfg)
        assert multi.layout == "union"
        for g, net in enumerate(nets):
            for b, s in enumerate([1, 2]):
                ref = run_counting(net, cfg, seed=s)
                assert_trial_equal(ref, multi.cell(network=g, seed=b))

    def test_ragged_seed_axes_run_on_union(self):
        nets = self._nets()
        cfg = CountingConfig(verification=False, max_phase=8)
        multi = run_multi_sweep(nets, seeds=[[1, 2, 3], [4]], configs=cfg)
        assert multi.layout == "union"
        assert multi.seeds is None
        assert [len(ax) for ax in multi.seed_axes] == [3, 1]
        for g, (net, axis) in enumerate(zip(nets, [[1, 2, 3], [4]])):
            block = multi.sweep(g)
            assert block.seeds == axis
            for b, s in enumerate(axis):
                ref = run_counting(net, cfg, seed=s)
                assert_trial_equal(ref, block.cell(seed=b))

    def test_union_sharded_equals_serial(self):
        nets = self._nets()
        place = lambda net: [placement_for_delta(net, 0.5, rng=3)]
        kwargs = dict(
            seeds=[80, 81, 82, 83],
            configs=self.CFG,
            placements=place,
            strategies=["early-stop", "inflation"],
        )
        serial = run_multi_sweep(nets, **kwargs)
        sharded = run_multi_sweep(nets, **kwargs, jobs=2)
        assert sharded.layout == "union"
        for a, b in zip(serial.results, sharded.results):
            assert_trial_equal(a, b)

    def test_union_with_generator_seeds_rejected(self):
        nets = self._nets()
        with pytest.raises(TypeError, match="Generator"):
            run_multi_sweep(
                nets,
                seeds=[np.random.default_rng(1), np.random.default_rng(2)],
            )

    def test_union_with_heterogeneous_degree_rejected(self):
        from repro.graphs import build_small_world

        nets = [build_small_world(96, 8, seed=1), build_small_world(96, 6, seed=2)]
        with pytest.raises(ValueError, match="degree d"):
            run_multi_sweep(nets, seeds=[[1], [2, 3]])

    def test_ragged_axis_count_mismatch_rejected(self):
        nets = self._nets()
        with pytest.raises(ValueError, match="one axis per network"):
            run_multi_sweep(nets, seeds=[[1], [2], [3]])

    def test_ragged_shape_raises_with_guidance(self):
        nets = self._nets()
        cfg = CountingConfig(verification=False, max_phase=6)
        multi = run_multi_sweep(nets, seeds=[[1, 2], [3]], configs=cfg)
        with pytest.raises(ValueError, match="ragged"):
            multi.shape


class TestShardedCarriesChannelAndBackend:
    """Sharded sweeps run every cell under the sweep's channel and backend.

    Both ride the shard task tuples and reach the engines as arguments,
    for one network as for several.  Each sharded sweep must equal its serial run bit for
    bit, and the serial lossy run must differ from a lossless one, so a
    channel dropped on the way to the workers cannot pass.
    """

    CFG = CountingConfig(max_phase=10)
    CHANNEL = ChannelModel(0.15, 0.05, 2)

    def _nets(self):
        from repro.graphs import build_small_world

        return [build_small_world(n, 8, seed=50 + n) for n in (96, 128)]

    def _check(self, sweep, **kwargs):
        serial = sweep(**kwargs, channel=self.CHANNEL, backend="numpy")
        sharded = sweep(
            **kwargs, channel=self.CHANNEL, backend="numpy", jobs=2, shard_cells=2
        )
        lossless = sweep(**kwargs)
        assert len(serial.results) == len(sharded.results) == len(lossless.results)
        for a, b in zip(serial.results, sharded.results):
            assert_trial_equal(a, b)
        assert any(
            not np.array_equal(a.decided_phase, c.decided_phase)
            or a.meter.as_dict() != c.meter.as_dict()
            for a, c in zip(serial.results, lossless.results)
        )

    def test_single_network_sweep(self, net_small):
        self._check(
            lambda **kw: run_sweep(net_small, **kw),
            seeds=[20, 21, 22],
            configs=self.CFG,
            placements=[None, placement_for_delta(net_small, 0.5, rng=3)],
            strategies="early-stop",
        )

    def test_rectangular_multi_sweep(self):
        nets = self._nets()
        self._check(
            lambda **kw: run_multi_sweep(nets, **kw),
            seeds=[30, 31, 32],
            configs=self.CFG,
            placements=lambda net: [placement_for_delta(net, 0.5, rng=3)],
            strategies="inflation",
        )

    def test_ragged_multi_sweep(self):
        nets = self._nets()
        self._check(
            lambda **kw: run_multi_sweep(nets, **kw),
            seeds=[[40, 41, 42], [43, 44]],
            configs=self.CFG,
            placements=lambda net: [placement_for_delta(net, 0.5, rng=3)],
            strategies="early-stop",
        )

    @pytest.mark.parametrize("shape", ["single", "rectangular", "ragged"])
    def test_backend_reaches_workers(self, net_small, shape):
        # An unknown backend name fails only where a kernel is built: in
        # the worker.  A backend lost on the way would run and pass.
        from repro.exec import RetryPolicy

        kwargs = dict(
            configs=CountingConfig(verification=False, max_phase=6),
            jobs=2,
            shard_cells=1,
            backend="no-such-backend",
            policy=RetryPolicy(max_retries=0),
        )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            if shape == "single":
                run_sweep(net_small, seeds=[1, 2], **kwargs)
            else:
                seeds = [1, 2] if shape == "rectangular" else [[1, 2], [3]]
                run_multi_sweep(self._nets(), seeds=seeds, **kwargs)
