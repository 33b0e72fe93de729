"""Unit tests for the batched adversary protocol (adversary/base.py).

Covers :class:`Injection` validation (the satellite hardening), plan
stacking, batch-state column views, the engine's lazily widened honest
colors and adaptation traffic, native-batch detection, and the per-trial
fallback wrapper.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.adversary.base import (
    Adversary,
    BatchSubphasePlan,
    BatchSubphaseState,
    HonestAdversary,
    Injection,
    PerTrialAdversaryBatch,
    SubphasePlan,
    has_native_batch,
    stack_subphase_plans,
)
from repro.adversary.placement import random_placement
from repro.adversary.strategies import (
    EarlyStopAdversary,
    InflationAdversary,
    SuppressionAdversary,
)
from repro.core import CountingConfig, make_adversary, run_counting
from repro.core.batch import _honest_int64, _traffic_int64, run_counting_batch
from repro.sim.rng import stream


class TestInjectionValidation:
    def test_valid_roundtrip(self):
        inj = Injection(t=2, nodes=np.array([3, 1, 7]), value=9)
        assert inj.nodes.dtype == np.int64
        assert inj.t == 2 and inj.value == 9

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError, match="round"):
            Injection(t=0, nodes=np.array([1]), value=5)

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError, match="positive"):
            Injection(t=1, nodes=np.array([1]), value=0)

    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError, match="non-empty"):
            Injection(t=1, nodes=np.array([], dtype=np.int64), value=5)

    def test_rejects_2d_nodes(self):
        with pytest.raises(ValueError, match="1-D"):
            Injection(t=1, nodes=np.array([[1, 2]]), value=5)

    def test_rejects_float_nodes(self):
        with pytest.raises(ValueError, match="integers"):
            Injection(t=1, nodes=np.array([1.5, 2.0]), value=5)

    def test_rejects_duplicates_sorted_and_unsorted(self):
        with pytest.raises(ValueError, match="duplicates"):
            Injection(t=1, nodes=np.array([1, 2, 2, 5]), value=5)
        with pytest.raises(ValueError, match="duplicates"):
            Injection(t=1, nodes=np.array([5, 1, 5]), value=5)

    def test_accepts_lists_and_descending_arrays(self):
        assert Injection(t=1, nodes=[4, 2, 0], value=5).nodes.tolist() == [4, 2, 0]

    def test_require_byzantine(self):
        byz_mask = np.zeros(10, dtype=bool)
        byz_mask[[2, 5]] = True
        Injection(t=1, nodes=np.array([2, 5]), value=3).require_byzantine(byz_mask)
        with pytest.raises(ValueError, match="non-Byzantine"):
            Injection(t=1, nodes=np.array([2, 4]), value=3).require_byzantine(byz_mask)
        with pytest.raises(ValueError, match="out-of-range"):
            Injection(t=1, nodes=np.array([11]), value=3).require_byzantine(byz_mask)

    def test_engine_rejects_non_byzantine_targets(self, net_small, byz_mask_small):
        class RogueAdversary(Adversary):
            def subphase_plan(self, state):
                honest = np.flatnonzero(~self.byz_mask)[:2]
                return SubphasePlan(
                    injections=[Injection(t=1, nodes=honest, value=99)]
                )

        with pytest.raises(ValueError, match="non-Byzantine"):
            run_counting(
                net_small,
                CountingConfig(max_phase=4),
                seed=1,
                adversary=RogueAdversary(),
                byz_mask=byz_mask_small,
            )


class TestStackPlans:
    def test_all_none_initial_stays_none(self):
        plans = [SubphasePlan(), SubphasePlan()]
        batch = stack_subphase_plans(plans, np.arange(3), 3)
        assert batch.initial_colors is None
        assert batch.injections is None
        assert batch.relay.tolist() == [True, True]

    def test_mixed_initial_zero_fills_none_columns(self):
        plans = [
            SubphasePlan(initial_colors=np.array([5, 6])),
            SubphasePlan(),
        ]
        batch = stack_subphase_plans(plans, np.arange(2), 2)
        assert batch.initial_colors.tolist() == [[5, 0], [6, 0]]

    def test_misaligned_initial_rejected(self):
        plans = [SubphasePlan(initial_colors=np.array([5]))]
        with pytest.raises(ValueError, match="align"):
            stack_subphase_plans(plans, np.arange(2), 2)

    def test_per_trial_injections_and_relay(self):
        inj = Injection(t=1, nodes=np.array([0]), value=7)
        plans = [SubphasePlan(injections=[inj], relay=False), SubphasePlan()]
        batch = stack_subphase_plans(plans, np.arange(1), 1)
        assert batch.injections.tolist() == [[[7, 0]]]
        assert batch.counts.tolist() == [[1, 0]]
        assert batch.relay.tolist() == [False, True]


def _batch_state(net, byz_nodes, batch):
    n = net.n
    honest = n - byz_nodes.shape[0]
    rngs = tuple(stream(9, "bstate", j) for j in range(batch))
    return BatchSubphaseState(
        phase=3,
        subphase=1,
        rounds=3,
        k=net.k,
        network=net,
        byz_nodes=byz_nodes,
        trials=np.arange(batch),
        honest_colors=np.arange(honest * batch).reshape(honest, batch),
        decided_phase=np.full((n, batch), -1, dtype=np.int64),
        crashed=np.zeros((n, batch), dtype=bool),
        rngs=rngs,
    )


class TestBatchState:
    def test_column_views_match(self, net_small):
        byz_nodes = np.array([5, 40])
        state = _batch_state(net_small, byz_nodes, 3)
        col = state.column(1)
        assert col.phase == state.phase and col.rounds == state.rounds
        assert np.array_equal(col.honest_colors, state.honest_colors[:, 1])
        assert col.rng is state.rngs[1]
        assert col.global_max_color() == int(state.global_max_colors()[1])

    def test_global_max_colors_empty_honest(self, net_small):
        state = _batch_state(net_small, np.array([5]), 2)
        state.honest_colors = np.empty((0, 2), dtype=np.int64)
        assert state.global_max_colors().tolist() == [0, 0]


class _KeepStates(Adversary):
    """Keeps every state it is shown; copies ``honest_colors`` at plan
    time only when ``eager`` (a class flag, since the engine builds one
    instance per placement group)."""

    eager = False
    kept: list = []

    def batch_subphase_plan(self, state):
        snap = state.honest_colors.copy() if _KeepStates.eager else None
        _KeepStates.kept.append((state, snap))
        return BatchSubphasePlan()


class TestLazyHonestColors:
    def test_callable_is_built_once_on_first_read(self, net_small):
        state = _batch_state(net_small, np.array([5]), 2)
        calls = []
        want = np.arange(2 * (net_small.n - 1)).reshape(-1, 2)
        state.honest_colors = lambda: calls.append(1) or want
        assert not calls
        assert state.global_max_colors().tolist() == want.max(axis=0).tolist()
        assert state.honest_colors is want
        assert len(calls) == 1

    def _run(self, net, eager):
        _KeepStates.eager, _KeepStates.kept = eager, []
        # Two placements alternate over the trials, so one group's columns
        # are not one contiguous run.
        a, b = random_placement(net.n, 4, rng=5), random_placement(net.n, 4, rng=6)
        res = run_counting_batch(
            net, seeds=[3, 4, 5], adversary_factory=_KeepStates, byz_mask=[a, b, a]
        )
        return res, _KeepStates.kept

    def test_late_read_equals_plan_time_copy(self, net_small):
        eager_res, eager = self._run(net_small, eager=True)
        late_res, late = self._run(net_small, eager=False)
        assert np.array_equal(eager_res.decided_matrix(), late_res.decided_matrix())
        assert len(late) == len(eager) > 1
        for (_, snap), (state, _) in zip(eager, late):
            # Read only now, after the engine has overwritten its state
            # with later subphases' colors and floods.
            assert state.honest_colors.dtype == np.int64
            assert np.array_equal(state.honest_colors, snap)

    def test_unread_state_does_no_gather(self, net_small, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _honest_int64(*args)

        monkeypatch.setattr("repro.core.batch._honest_int64", counted)
        self._run(net_small, eager=False)
        assert not calls
        self._run(net_small, eager=True)
        assert calls


class _KeepTraffic(Adversary):
    """Keeps every adaptation state it is shown and never relocates;
    copies ``traffic`` at adaptation time only when ``eager``.  Its nodes
    relay only in even subphases, so one phase's subphases differ in
    traffic."""

    eager = False
    kept: list = []

    def batch_subphase_plan(self, state):
        return BatchSubphasePlan(relay=state.subphase % 2 == 0)

    def batch_adapt(self, state):
        snap = state.traffic.copy() if _KeepTraffic.eager else None
        _KeepTraffic.kept.append((state, snap))
        return None


class TestLazyTraffic:
    def _run(self, net, eager):
        _KeepTraffic.eager, _KeepTraffic.kept = eager, []
        a, b = random_placement(net.n, 4, rng=5), random_placement(net.n, 4, rng=6)
        res = run_counting_batch(
            net, seeds=[3, 4, 5], adversary_factory=_KeepTraffic, byz_mask=[a, b, a]
        )
        return res, _KeepTraffic.kept

    def test_late_read_equals_adaptation_time_copy(self, net_small):
        eager_res, eager = self._run(net_small, eager=True)
        late_res, late = self._run(net_small, eager=False)
        assert np.array_equal(eager_res.decided_matrix(), late_res.decided_matrix())
        assert len(late) == len(eager) > 1
        assert any(
            a.phase == b.phase and not np.array_equal(snap_a, snap_b)
            for (a, snap_a), (b, snap_b) in zip(eager, eager[1:])
        )
        for (_, snap), (state, _) in zip(eager, late):
            # Read only now, after the engine has counted later
            # subphases' sends into its own counters.
            assert state.traffic.dtype == np.int64
            assert np.array_equal(state.traffic, snap)

    @pytest.mark.parametrize("strategy, widened", [("mobile", False), ("traffic-adaptive", True)])
    def test_only_a_traffic_read_widens(self, net_small, monkeypatch, strategy, widened):
        calls = []

        def counted(*args):
            calls.append(1)
            return _traffic_int64(*args)

        monkeypatch.setattr("repro.core.batch._traffic_int64", counted)
        run_counting_batch(
            net_small,
            seeds=[3, 4],
            adversary_factory=make_adversary(strategy),
            byz_mask=random_placement(net_small.n, 4, rng=5),
        )
        assert bool(calls) is widened


class _FixedPlan(Adversary):
    """A native batch adversary whose every plan is ``make(byz, B)``."""

    make = staticmethod(lambda byz, b: BatchSubphasePlan())

    def batch_subphase_plan(self, state):
        return _FixedPlan.make(state.byz_nodes.shape[0], len(state.trials))


def _injecting(dtype=np.int64, field="injections"):
    """One round injecting 5 everywhere, ``field`` held in ``dtype``."""

    def make(byz, b):
        arrays = {
            "injections": np.full((1, byz, b), 5, dtype=np.int64),
            "counts": np.full((1, b), byz, dtype=np.int64),
            "resend": np.full((1, byz, b), 5, dtype=np.int64),
        }
        arrays[field] = arrays[field].astype(dtype)
        return BatchSubphasePlan(relay=False, **arrays)

    return make


class TestPlanDtypes:
    """Plan arrays must hold integers: a cast would truncate silently."""

    def _run(self, net, make, monkeypatch):
        monkeypatch.setattr(_FixedPlan, "make", staticmethod(make))
        return run_counting_batch(
            net,
            seeds=[3, 4],
            config=CountingConfig(max_phase=4),
            adversary_factory=_FixedPlan,
            byz_mask=random_placement(net.n, 4, rng=5),
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda byz, b: BatchSubphasePlan(initial_colors=np.full((byz, b), 2.7)),
            lambda byz, b: BatchSubphasePlan(initial_colors=np.full((byz, b), np.nan)),
            lambda byz, b: BatchSubphasePlan(initial_colors=np.ones((byz, b), dtype=bool)),
            _injecting(float, "injections"),
            _injecting(float, "counts"),
            _injecting(float, "resend"),
        ],
        ids=["truncating", "nan", "bool", "injections", "counts", "resend"],
    )
    def test_non_integer_plan_raises_type_error(self, net_small, monkeypatch, make):
        with pytest.raises(TypeError, match="integers"):
            self._run(net_small, make, monkeypatch)

    def test_integer_plans_run(self, net_small, monkeypatch):
        lists = lambda byz, b: BatchSubphasePlan(initial_colors=[[2] * b] * byz)
        arrays = lambda byz, b: BatchSubphasePlan(
            initial_colors=np.full((byz, b), 2, dtype=np.int32)
        )
        got = self._run(net_small, lists, monkeypatch)
        want = self._run(net_small, arrays, monkeypatch)
        assert np.array_equal(got.decided_matrix(), want.decided_matrix())
        self._run(net_small, _injecting(np.uint8, "counts"), monkeypatch)


class TestNativeBatchDetection:
    def test_builtins_are_native(self):
        for name in ("early-stop", "inflation", "suppression", "silent",
                     "topology-liar", "combo", "adaptive-record"):
            assert has_native_batch(make_adversary(name)), name

    def test_base_and_honest_are_native(self):
        assert has_native_batch(Adversary())
        assert has_native_batch(HonestAdversary())

    def test_scalar_only_subclass_is_not_native(self):
        class Scalar(Adversary):
            def subphase_plan(self, state):
                return SubphasePlan()

        assert not has_native_batch(Scalar())


class TestPerTrialWrapper:
    def test_instances_bound_per_trial(self, net_small, byz_mask_small):
        wrapper = PerTrialAdversaryBatch(EarlyStopAdversary, 3)
        rngs = [stream(1, "w", j) for j in range(3)]
        wrapper.bind_batch(net_small, byz_mask_small, rngs, CountingConfig())
        assert len(wrapper.instances) == 3
        for inst, rng in zip(wrapper.instances, rngs):
            assert inst.rng is rng
            assert inst.network is net_small

    def test_rng_count_mismatch_rejected(self, net_small, byz_mask_small):
        wrapper = PerTrialAdversaryBatch(EarlyStopAdversary, 2)
        with pytest.raises(ValueError, match="2 instances"):
            wrapper.bind_batch(net_small, byz_mask_small, [stream(1, "x")], CountingConfig())

    def test_batch_plan_columns_match_scalar_plans(self, net_small, byz_mask_small):
        wrapper = PerTrialAdversaryBatch(EarlyStopAdversary, 2)
        rngs = [stream(2, "w", j) for j in range(2)]
        wrapper.bind_batch(net_small, byz_mask_small, rngs, CountingConfig())
        byz_nodes = np.flatnonzero(byz_mask_small)
        state = _batch_state(net_small, byz_nodes, 2)
        plan = wrapper.batch_subphase_plan(state)
        scalar = EarlyStopAdversary().subphase_plan(state.column(0))
        assert np.array_equal(plan.initial_colors[:, 0], scalar.initial_colors)
        assert plan.relay.all()


def _column_schedule(plan, j):
    """Trial ``j``'s injections in a dense plan, as ``(t, value)`` records
    in round order: one per distinct value a counted round writes."""
    if plan.injections is None:
        return []
    return [
        SimpleNamespace(t=t, value=int(value))
        for t, layer in enumerate(plan.injections[:, :, j], start=1)
        if plan.counts[t - 1, j]
        for value in np.unique(layer[layer > 0])
    ]


class TestNativeBatchPlans:
    """Native batch plans: column j equals trial j's scalar plan."""

    @pytest.mark.parametrize(
        "adv", [EarlyStopAdversary(), InflationAdversary(), SuppressionAdversary()]
    )
    def test_columns_match_scalar(self, net_small, byz_mask_small, adv):
        byz_nodes = np.flatnonzero(byz_mask_small)
        state = _batch_state(net_small, byz_nodes, 2)
        batch_plan = adv.batch_subphase_plan(state)
        for j in range(2):
            scalar = adv.subphase_plan(state.column(j))
            if scalar.initial_colors is None:
                assert (
                    batch_plan.initial_colors is None
                    or not batch_plan.initial_colors[:, j].any()
                )
            else:
                assert np.array_equal(
                    batch_plan.initial_colors[:, j], scalar.initial_colors
                )
            got = _column_schedule(batch_plan, j)
            assert [(i.t, i.value) for i in got] == [
                (i.t, i.value) for i in scalar.injections
            ]
            relay = (
                batch_plan.relay[j]
                if isinstance(batch_plan.relay, np.ndarray)
                else batch_plan.relay
            )
            assert bool(relay) == scalar.relay
