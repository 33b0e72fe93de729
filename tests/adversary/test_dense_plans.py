"""The dense batch-plan form: validation, stacking and last-writer re-sends.

A :class:`BatchSubphasePlan` is ``(byz, B)`` initial colors plus a
``(T, byz, B)`` injection array with its ``(T, B)`` counts.  Malformed
plans must fail with a typed error before the subphase they belong to
floods; scalar plans reach the engine only through
:func:`stack_subphase_plans`, which must keep the sequential engine's
error text and its re-send order for trials that do not relay.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.adversary.adaptive import MobileAdversary
from repro.adversary.base import (
    Adversary,
    BatchSubphasePlan,
    BatchSubphaseState,
    Injection,
    SubphasePlan,
    stack_subphase_plans,
)
from repro.adversary.placement import random_placement
from repro.core import CountingConfig, run_counting
from repro.core.batch import run_counting_batch
from repro.core.colors import sample_colors
from repro.sim.flood import FloodKernel
from repro.sim.rng import stream


def assert_trial_equal(a, b):
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


class _Fixed(Adversary):
    """Returns whatever plan ``make(state)`` builds (a class attribute, as
    the engine builds one instance per placement group)."""

    make = staticmethod(lambda state: BatchSubphasePlan())

    def batch_subphase_plan(self, state):
        return _Fixed.make(state)


def _ones(state, rounds=1):
    m, b = state.byz_nodes.shape[0], state.batch
    return np.ones((rounds, m, b), dtype=np.int64), np.ones((rounds, b), dtype=np.int64)


def _injects(**fields):
    def make(state):
        injections, counts = _ones(state)
        plan = BatchSubphasePlan(injections=injections, counts=counts)
        for name, build in fields.items():
            setattr(plan, name, build(state))
        return plan

    return make


def _ints(*dims):
    return np.ones(dims, dtype=np.int64)


MALFORMED = {
    "initial_colors rows": (
        lambda s: BatchSubphasePlan(
            initial_colors=_ints(s.byz_nodes.shape[0] + 1, s.batch)
        ),
        "initial_colors must have shape",
    ),
    "injections 2-D": (
        _injects(injections=lambda s: _ints(s.byz_nodes.shape[0], s.batch)),
        "injections must have shape",
    ),
    "injections rows": (
        _injects(
            injections=lambda s: _ints(1, s.byz_nodes.shape[0] + 1, s.batch)
        ),
        "injections must have shape",
    ),
    "injections trials": (
        _injects(
            injections=lambda s: _ints(1, s.byz_nodes.shape[0], s.batch + 1)
        ),
        "injections must have shape",
    ),
    "counts missing": (_injects(counts=lambda s: None), "counts must have shape"),
    "counts rounds": (
        _injects(counts=lambda s: _ints(2, s.batch)),
        "counts must have shape",
    ),
    "counts trials": (
        _injects(counts=lambda s: _ints(1, s.batch + 1)),
        "counts must have shape",
    ),
    "resend shape": (
        _injects(resend=lambda s: _ints(2, s.byz_nodes.shape[0], s.batch)),
        "resend must have",
    ),
    "resend without injections": (
        lambda s: BatchSubphasePlan(resend=_ones(s)[0]),
        "resend must have",
    ),
    "relay shape": (
        lambda s: BatchSubphasePlan(relay=np.ones(s.batch + 1, dtype=bool)),
        "relay must have shape",
    ),
    "negative injection": (
        _injects(injections=lambda s: -_ones(s)[0]),
        "injections values must be >= 0",
    ),
    "negative resend": (
        _injects(resend=lambda s: -_ones(s)[0]),
        "resend values must be >= 0",
    ),
    "negative count": (
        _injects(counts=lambda s: -_ones(s)[1]),
        "counts must be non-negative",
    ),
}


@pytest.fixture
def gathers(monkeypatch):
    """Counts flooding rounds (kernel gathers) run by the batch engine."""
    calls = []
    real = FloodKernel.neighbor_max_stacked

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FloodKernel, "neighbor_max_stacked", counted)
    return calls


class TestMalformedPlansRejected:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_before_the_subphase_floods(self, net_small, byz_mask_small, gathers, case):
        make, message = MALFORMED[case]
        _Fixed.make = staticmethod(make)
        with pytest.raises(ValueError, match=message):
            run_counting_batch(
                net_small,
                [1, 2],
                config=CountingConfig(max_phase=4),
                adversary_factory=_Fixed,
                byz_mask=byz_mask_small,
            )
        assert gathers == []

    def test_well_formed_control_floods(self, net_small, byz_mask_small, gathers):
        _Fixed.make = staticmethod(_injects())
        run_counting_batch(
            net_small,
            [1, 2],
            config=CountingConfig(max_phase=4),
            adversary_factory=_Fixed,
            byz_mask=byz_mask_small,
        )
        assert gathers


class _Targets(Adversary):
    """A scalar adversary injecting at ``nodes(state)`` in round 1."""

    nodes = staticmethod(lambda state: state.byz_nodes)

    def subphase_plan(self, state):
        return SubphasePlan(
            injections=[
                Injection(t=1, nodes=state.byz_nodes, value=9),
                Injection(t=1, nodes=_Targets.nodes(state), value=9),
            ]
        )


class TestStackedTargets:
    @pytest.mark.parametrize(
        "nodes, message",
        [
            (lambda s: np.array([s.n]), "out-of-range"),
            (lambda s: np.array([-1]), "out-of-range"),
            (lambda s: np.setdiff1d(np.arange(s.n), s.byz_nodes)[:2], "non-Byzantine"),
        ],
    )
    def test_same_error_as_sequential(self, net_small, byz_mask_small, gathers, nodes, message):
        _Targets.nodes = staticmethod(nodes)
        cfg = CountingConfig(max_phase=4)
        with pytest.raises(ValueError, match=message) as seq:
            run_counting(net_small, cfg, seed=1, adversary=_Targets(), byz_mask=byz_mask_small)
        for spec in (_Targets, _Targets()):  # per-trial wrapper, per-column fallback
            with pytest.raises(ValueError) as bat:
                run_counting_batch(
                    net_small, [1, 2], config=cfg, adversary_factory=spec, byz_mask=byz_mask_small
                )
            assert str(bat.value) == str(seq.value)
        assert gathers == []

    def test_rows_follow_byz_nodes(self):
        plans = [
            SubphasePlan(injections=[Injection(t=2, nodes=np.array([7]), value=4)]),
            SubphasePlan(injections=[Injection(t=1, nodes=np.array([7, 3]), value=6)]),
        ]
        plan = stack_subphase_plans(plans, np.array([3, 7]), 10)
        assert plan.injections.tolist() == [[[0, 6], [0, 6]], [[0, 0], [4, 0]]]
        assert plan.counts.tolist() == [[0, 1], [1, 0]]
        assert plan.resend is None

    def test_same_round_values_combine_by_max(self):
        nodes = np.array([2])
        plans = [
            SubphasePlan(
                injections=[
                    Injection(t=1, nodes=nodes, value=8),
                    Injection(t=1, nodes=nodes, value=5),
                ]
            )
        ]
        plan = stack_subphase_plans(plans, nodes, 4)
        assert plan.injections.tolist() == [[[8]]]
        assert plan.counts.tolist() == [[2]]


class _LastWriter(Adversary):
    """Never relays; re-sends two same-round injections at one node whose
    later, smaller value must win the re-send (the running max keeps the
    larger one)."""

    def subphase_plan(self, state):
        nodes = state.byz_nodes
        return SubphasePlan(
            injections=[
                Injection(t=1, nodes=nodes, value=50),
                Injection(t=1, nodes=nodes[:1], value=30),
                Injection(t=2, nodes=nodes[1:], value=40),
                Injection(t=2, nodes=nodes[1:2], value=20),
            ],
            relay=False,
        )


class TestRelayOffLastWriter:
    def test_stacked_resend_keeps_list_order(self):
        nodes = np.array([1, 4, 6])
        plan = stack_subphase_plans(
            [_LastWriter().subphase_plan(SimpleNamespace(byz_nodes=nodes)), SubphasePlan()],
            nodes,
            8,
        )
        assert plan.injections[:, :, 0].tolist() == [[50, 50, 50], [0, 40, 40]]
        assert plan.resend[:, :, 0].tolist() == [[30, 50, 50], [0, 20, 40]]
        assert not plan.resend[:, :, 1].any()

    @pytest.mark.parametrize("verification", [True, False])
    def test_matches_sequential(self, net_small, verification):
        cfg = CountingConfig(max_phase=10, verification=verification)
        byz = random_placement(net_small.n, 4, rng=8)
        seeds = [31, 32, 33]
        seq = [
            run_counting(net_small, cfg, seed=s, adversary=_LastWriter(), byz_mask=byz)
            for s in seeds
        ]
        for spec in (_LastWriter, _LastWriter()):
            bat = run_counting_batch(
                net_small, seeds, config=cfg, adversary_factory=spec, byz_mask=byz
            )
            for a, b in zip(seq, bat):
                assert_trial_equal(a, b)


class _PartialOverNegative(Adversary):
    """Negative initial colors everywhere, and in about half the subphases
    a round-1 injection at one Byzantine node: a 0 in a plan layer must
    leave the other cells' negative values (which still count as sends)
    untouched."""

    def subphase_plan(self, state):
        m = state.byz_nodes.shape[0]
        injections = []
        if int(state.rng.integers(2)):
            injections.append(Injection(t=1, nodes=state.byz_nodes[:1], value=3))
        return SubphasePlan(initial_colors=np.full(m, -5), injections=injections)


def test_zero_layer_cells_keep_negative_colors(net_small):
    cfg = CountingConfig(max_phase=8)
    byz = random_placement(net_small.n, 4, rng=2)
    seeds = [41, 42, 43, 44]
    seq = [
        run_counting(net_small, cfg, seed=s, adversary=_PartialOverNegative(), byz_mask=byz)
        for s in seeds
    ]
    bat = run_counting_batch(
        net_small, seeds, config=cfg, adversary_factory=_PartialOverNegative, byz_mask=byz
    )
    for a, b in zip(seq, bat):
        assert_trial_equal(a, b)


def _never_read():
    raise AssertionError("honest_colors was read")


def _batch_state(net, byz_nodes, batch, seed):
    n = net.n
    return BatchSubphaseState(
        phase=2,
        subphase=1,
        rounds=2,
        k=net.k,
        network=net,
        byz_nodes=byz_nodes,
        trials=np.arange(batch),
        honest_colors=_never_read,
        decided_phase=np.full((n, batch), -1, dtype=np.int64),
        crashed=np.zeros((n, batch), dtype=bool),
        rngs=tuple(stream(seed, "adv", j) for j in range(batch)),
    )


class TestBaseAdversaryPlan:
    @pytest.mark.parametrize("adversary", [Adversary(), MobileAdversary()])
    def test_draws_columns_without_reading_honest_colors(self, net_small, adversary):
        byz_nodes = np.array([5, 40, 77])
        plan = adversary.batch_subphase_plan(_batch_state(net_small, byz_nodes, 3, seed=4))
        want = np.stack(
            [sample_colors(stream(4, "adv", j), 3) for j in range(3)], axis=1
        )
        assert np.array_equal(plan.initial_colors, want)
        assert plan.injections is None

    def test_equals_the_per_column_scalar_plans(self, net_small):
        byz_nodes = np.array([5, 40, 77])
        got = Adversary().batch_subphase_plan(_batch_state(net_small, byz_nodes, 3, seed=6))
        state = _batch_state(net_small, byz_nodes, 3, seed=6)
        scalar = [Adversary().subphase_plan(state.column(j)) for j in range(3)]
        want = stack_subphase_plans(scalar, byz_nodes, net_small.n)
        assert np.array_equal(got.initial_colors, want.initial_colors)
        assert got.injections is None and want.injections is None

    def test_column_view_stays_lazy(self, net_small):
        state = _batch_state(net_small, np.array([5]), 2, seed=1)
        col = state.column(1)  # built without reading the batch colors
        with pytest.raises(AssertionError, match="was read"):
            col.global_max_color()
