"""The batched engine must reproduce sequential runs bit for bit.

``run_counting_batch`` over B seeds and B sequential ``run_counting`` calls
consume identical per-trial random streams (``sim/rng`` named streams /
``make_rng`` -> ``spawn``), so every per-trial observable — decided phases,
crash sets, meter totals, phase traces — must match exactly, not just
statistically.  These tests are the contract that lets experiments route
their repeated-seed sweeps through the batch path without changing any
reported number.
"""

import numpy as np
import pytest

from repro.adversary import placement_for_delta, random_placement
from repro.adversary.base import Adversary, Injection, SubphasePlan
from repro.core import (
    ADVERSARIES,
    CountingConfig,
    make_adversary,
    run_counting,
    run_counting_batch,
)
from repro.sim.rng import derive_seed, stream


def assert_trial_equal(a, b):
    """Bit-for-bit comparison of two CountingResults."""
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


class TestSequentialEquivalence:
    CFG = CountingConfig(verification=False, max_phase=16)

    def test_integer_seeds(self, net_small):
        seeds = [derive_seed(7, "trial", b) for b in range(6)]
        seq = [run_counting(net_small, self.CFG, seed=s) for s in seeds]
        bat = run_counting_batch(net_small, seeds, config=self.CFG)
        assert len(bat) == len(seq)
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_named_stream_generators(self, net_small):
        # stream(...) rebuilds the identical generator for the same key, so
        # the sequential and batched runs consume the same per-trial streams.
        seq = [
            run_counting(net_small, self.CFG, seed=stream(3, "batch-trial", b))
            for b in range(5)
        ]
        bat = run_counting_batch(
            net_small,
            [stream(3, "batch-trial", b) for b in range(5)],
            config=self.CFG,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_verification_flag_without_adversary(self, net_small):
        cfg = CountingConfig(max_phase=16)  # verification on, no adversary
        seeds = [derive_seed(1, "v", b) for b in range(4)]
        seq = [run_counting(net_small, cfg, seed=s) for s in seeds]
        bat = run_counting_batch(net_small, seeds, config=cfg)
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_no_early_stop(self, net_small):
        cfg = self.CFG.with_(stop_when_all_decided=False, max_phase=7)
        seeds = [1, 2, 3]
        seq = [run_counting(net_small, cfg, seed=s) for s in seeds]
        bat = run_counting_batch(net_small, seeds, config=cfg)
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)
            assert a.meter.rounds == b.meter.rounds

    def test_metering_off(self, net_small):
        cfg = self.CFG.with_(count_messages=False, record_phase_trace=False)
        seeds = [5, 6]
        seq = [run_counting(net_small, cfg, seed=s) for s in seeds]
        bat = run_counting_batch(net_small, seeds, config=cfg)
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_mixed_configs_grouped(self, net_small):
        cfgs = [
            self.CFG if b % 2 == 0 else self.CFG.with_(eps=0.25)
            for b in range(6)
        ]
        seeds = [derive_seed(9, "mix", b) for b in range(6)]
        seq = [run_counting(net_small, c, seed=s) for s, c in zip(seeds, cfgs)]
        bat = run_counting_batch(net_small, seeds, config=cfgs)
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_empty_batch(self, net_small):
        assert len(run_counting_batch(net_small, [], config=self.CFG)) == 0

    def test_config_count_mismatch_rejected(self, net_small):
        with pytest.raises(ValueError, match="configs"):
            run_counting_batch(net_small, [1, 2], config=[self.CFG])

    def test_byz_mask_without_adversary_rejected(self, net_small, byz_mask_small):
        with pytest.raises(ValueError, match="adversary"):
            run_counting_batch(
                net_small, [1], config=self.CFG, byz_mask=byz_mask_small
            )


class _StatefulScalarAdversary(Adversary):
    """Scalar-only third-party adversary with per-run mutable state.

    Alternates between suppressing and relaying per subphase via an
    internal counter — exactly the kind of adversary that needs
    one-instance-per-trial semantics (the PerTrialAdversaryBatch wrapper).
    """

    name = "stateful-scalar"

    def __init__(self):
        super().__init__()
        self.calls = 0

    def subphase_plan(self, state):
        self.calls += 1
        return SubphasePlan(initial_colors=None, injections=[], relay=self.calls % 2 == 0)


class _PulseAdversary(Adversary):
    """From phase 3 on, never relays but re-sends a round-1 injection.

    Such a node sends 40 in round 1 and nothing after, so a neighbor that
    is still undecided typically hears 40 in round 1, less in round 2 and
    40 again (relayed back) in round 3: its receives are not monotone over
    the rounds, and the engines must keep ``prev_kt`` as an explicit
    running max rather than read it off round ``phase - 1``.  (Earlier
    phases relay honestly, so those neighbors are not decided early.)
    """

    name = "pulse"

    def subphase_plan(self, state):
        if state.phase < 3:
            return SubphasePlan(initial_colors=None, injections=[], relay=True)
        inj = Injection(t=1, nodes=state.byz_nodes, value=40)
        return SubphasePlan(initial_colors=None, injections=[inj], relay=False)


class _StraddleAdversary(Adversary):
    """Injects on both sides of the Lemma 16 gate and past the subphase.

    Round 1 carries two injections (accepted), round ``k`` one (rejected:
    the gate is ``k - 1``) once the subphase runs that long, and round
    ``rounds + 1`` one that no round ever reaches, so it is charged
    neither way.  ``relay`` is a class flag (the engine builds one instance
    per placement group).
    """

    name = "straddle"
    relay = True

    def subphase_plan(self, state):
        first, second = state.byz_nodes[:1], state.byz_nodes[1:2]
        injections = [
            Injection(t=1, nodes=first, value=30),
            Injection(t=1, nodes=second, value=31),
            Injection(t=state.rounds + 1, nodes=first, value=33),
        ]
        if state.k <= state.rounds:
            injections.append(Injection(t=state.k, nodes=second, value=32))
        return SubphasePlan(injections=injections, relay=type(self).relay)


class TestByzantineBatchedEquivalence:
    """The Byzantine fast path must be bit-for-bit too, per strategy."""

    @pytest.mark.parametrize("strategy", sorted(ADVERSARIES))
    def test_strategy_matches_sequential(self, net_small, strategy):
        if type(make_adversary(strategy)).batch_adapt is not Adversary.batch_adapt:
            pytest.skip("adaptive placement exists only in the batched protocol")
        cfg = CountingConfig(max_phase=12)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        seeds = [10, 11, 12, 13]
        seq = [
            run_counting(
                net_small,
                cfg,
                seed=s,
                adversary=make_adversary(strategy),
                byz_mask=byz,
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=lambda: make_adversary(strategy),
            byz_mask=byz,
        )
        assert len(bat) == len(seq)
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    @pytest.mark.parametrize("strategy", ["inflation", "adaptive-record"])
    def test_verification_off_matches_sequential(self, net_small, strategy):
        # Without Lemma 16's gate, inflation never terminates: every trial
        # runs all phases, so cap the phases to keep the test quick.
        cfg = CountingConfig(max_phase=5, verification=False)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        seeds = [3, 4]
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=make_adversary(strategy), byz_mask=byz
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=lambda: make_adversary(strategy),
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_metering_off_matches_sequential(self, net_small):
        cfg = CountingConfig(max_phase=10, count_messages=False, record_phase_trace=False)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        seeds = [5, 6]
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=make_adversary("combo"), byz_mask=byz
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=lambda: make_adversary("combo"),
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_mixed_configs_grouped(self, net_small):
        cfg = CountingConfig(max_phase=10)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        cfgs = [cfg if b % 2 == 0 else cfg.with_(eps=0.25) for b in range(4)]
        seeds = [derive_seed(2, "byzmix", b) for b in range(4)]
        seq = [
            run_counting(
                net_small, c, seed=s, adversary=make_adversary("inflation"), byz_mask=byz
            )
            for s, c in zip(seeds, cfgs)
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfgs,
            adversary_factory=lambda: make_adversary("inflation"),
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_stateful_scalar_adversary_wrapped_per_trial(self, net_small):
        # A scalar-only class goes through PerTrialAdversaryBatch: one
        # instance per trial, so its mutable state evolves exactly as in
        # sequential runs.
        cfg = CountingConfig(max_phase=10)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        seeds = [7, 8, 9]
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=_StatefulScalarAdversary(), byz_mask=byz
            )
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=_StatefulScalarAdversary,
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_adversary_instance_accepted(self, net_small):
        cfg = CountingConfig(max_phase=10)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        bat = run_counting_batch(
            net_small,
            [3, 4],
            config=cfg,
            adversary_factory=make_adversary("honest"),
            byz_mask=byz,
        )
        assert len(bat) == 2
        for res in bat:
            assert res.byz.sum() == byz.sum()

    def test_scalar_instance_reading_self_rng_matches_sequential(self, net_small):
        # Scalar adversaries may read self.rng (bind() sets it to the same
        # stream as state.rng); the per-column fallback must re-bind it per
        # trial just like sequential runs re-bind it per run.
        class SelfRngScalarAdversary(Adversary):
            name = "self-rng-scalar"

            def subphase_plan(self, state):
                from repro.core.colors import sample_colors

                vals = sample_colors(self.rng, state.byz_nodes.shape[0])
                return SubphasePlan(initial_colors=vals)

        cfg = CountingConfig(max_phase=10)
        byz = placement_for_delta(net_small, 0.55, rng=4)
        seeds = [21, 22, 23]
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=SelfRngScalarAdversary(), byz_mask=byz
            )
            for s in seeds
        ]
        # Driven as a plain shared instance (generic per-column fallback).
        bat = run_counting_batch(
            net_small,
            seeds,
            config=cfg,
            adversary_factory=SelfRngScalarAdversary(),
            byz_mask=byz,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    def test_suppressed_resends_match_sequential(self, net_small):
        cfg = CountingConfig(max_phase=12)
        byz = random_placement(net_small.n, 3, rng=4)
        seeds = [20, 21, 22]
        seq = [
            run_counting(net_small, cfg, seed=s, adversary=_PulseAdversary(), byz_mask=byz)
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small, seeds, config=cfg, adversary_factory=_PulseAdversary, byz_mask=byz
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)

    @pytest.mark.parametrize("relay", [True, False])
    def test_injections_straddling_the_gate_charge_as_sequential(
        self, net_small, monkeypatch, relay
    ):
        monkeypatch.setattr(_StraddleAdversary, "relay", relay)
        cfg = CountingConfig(max_phase=8)
        byz = random_placement(net_small.n, 3, rng=6)
        seeds = [30, 31, 32]
        seq = [
            run_counting(net_small, cfg, seed=s, adversary=_StraddleAdversary(), byz_mask=byz)
            for s in seeds
        ]
        bat = run_counting_batch(
            net_small, seeds, config=cfg, adversary_factory=_StraddleAdversary, byz_mask=byz
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)
        assert all(r.injections_accepted > 0 and r.injections_rejected > 0 for r in seq)

    def test_empty_byz_mask_with_adversary(self, net_small):
        # Verification costs still apply (pre-phase rounds) even with an
        # empty Byzantine set; both paths must agree.
        cfg = CountingConfig(max_phase=10)
        empty = np.zeros(net_small.n, dtype=bool)
        seq = [
            run_counting(
                net_small, cfg, seed=s, adversary=make_adversary("honest"), byz_mask=empty
            )
            for s in (1, 2)
        ]
        bat = run_counting_batch(
            net_small,
            [1, 2],
            config=cfg,
            adversary_factory=lambda: make_adversary("honest"),
            byz_mask=empty,
        )
        for a, b in zip(seq, bat):
            assert_trial_equal(a, b)


class TestRoundAccountingFix:
    """Round totals must not depend on the count_messages knob.

    The crash-phase used to meter its two rounds only when messages were
    being counted, skewing any round-complexity table produced with
    metering disabled.
    """

    @pytest.mark.parametrize("strategy", ["honest", "early-stop", "topology-liar"])
    def test_rounds_identical_with_metering_on_and_off(self, net_small, strategy):
        byz = placement_for_delta(net_small, 0.55, rng=9)
        base = CountingConfig(max_phase=10)
        on = run_counting(
            net_small,
            base,
            seed=5,
            adversary=make_adversary(strategy),
            byz_mask=byz,
        )
        off = run_counting(
            net_small,
            base.with_(count_messages=False),
            seed=5,
            adversary=make_adversary(strategy),
            byz_mask=byz,
        )
        assert on.meter.rounds == off.meter.rounds
        assert on.meter.rounds > 0
        assert off.meter.messages == 0

    def test_batch_rounds_identical_with_metering_on_and_off(self, net_small):
        cfg = CountingConfig(verification=False, max_phase=12)
        seeds = [1, 2, 3, 4]
        on = run_counting_batch(net_small, seeds, config=cfg)
        off = run_counting_batch(
            net_small, seeds, config=cfg.with_(count_messages=False)
        )
        for a, b in zip(on, off):
            assert a.meter.rounds == b.meter.rounds
            assert np.array_equal(a.decided_phase, b.decided_phase)

    def test_crash_phase_charges_two_rounds(self, net_small):
        byz = placement_for_delta(net_small, 0.55, rng=9)
        cfg = CountingConfig(max_phase=10)
        with_pre = run_counting(
            net_small,
            cfg,
            seed=5,
            adversary=make_adversary("honest"),
            byz_mask=byz,
        )
        without_pre = run_counting(
            net_small,
            cfg.with_(verification=False, verification_round_cost=0),
            seed=5,
            adversary=make_adversary("honest"),
            byz_mask=byz,
        )
        # Same schedule, but the verified run pays the O(1) pre-phase and
        # the per-round witness cost on top.
        assert with_pre.meter.rounds > without_pre.meter.rounds
