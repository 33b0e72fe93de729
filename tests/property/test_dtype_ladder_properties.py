"""Property tests: the batched engines' color-state dtype ladder.

Each phase of the batched engines keeps its color state in the narrowest
of int8, int16 and int32 that holds a provable bound on the phase's
values — the largest color drawn, plus ``noise_amp x phase`` under an
active channel, plus any adversary plan value once values far above the
honest band have moved down to just above it — and widens to int64 only
when a plan value leaves int32 (see :mod:`repro.core.batch`).  These
tests pin the ladder end-to-end by spying on every flood-kernel
max-reduction (the only place color state crosses the wire): honest runs
and the early-stop, inflation and combo strategies hand the kernel
one-byte state, built-in strategies never exceed int32, and each forced
widening (a large draw, a mid-phase injection window too wide for int8
or int16, a window that only the channel's noise pushes past int8, a
negative initial color, a huge noise amplitude, an out-of-int32 plan)
shows up at the kernel.  Every narrow run is also compared bit for bit
with the same run forced to int32 through the ladder helper, which is
the historical state dtype and moves no plan value.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    Adversary,
    BatchSubphasePlan,
    SubphasePlan,
    random_placement,
)
from repro.adversary.strategies import HUGE_COLOR
from repro.core import ADVERSARIES, batch, make_adversary, run_counting_batch
from repro.core.batch import run_counting_multinet, run_counting_unionstack
from repro.graphs import build_small_world
from repro.sim.channel import MAX_NOISE_AMP, ChannelModel
from repro.sim.flood import FloodKernel, MultiFloodKernel, UnionFloodKernel

_INT32_MAX = int(np.iinfo(np.int32).max)
_KERNEL_METHODS = ("neighbor_max", "neighbor_max_stacked")

seeds = st.integers(min_value=0, max_value=2**31)


@contextlib.contextmanager
def _spy_kernel_dtypes():
    """Record, in call order, the itemsize of every array a kernel reduces."""
    seen: list[int] = []
    patched = []

    def _wrap(cls, name):
        orig = cls.__dict__[name]

        def wrapper(self, values, *args, **kwargs):
            seen.append(np.asarray(values).dtype.itemsize)
            return orig(self, values, *args, **kwargs)

        patched.append((cls, name, orig))
        setattr(cls, name, wrapper)

    for cls in (FloodKernel, MultiFloodKernel, UnionFloodKernel):
        for name in _KERNEL_METHODS:
            if name in cls.__dict__:
                _wrap(cls, name)
    try:
        yield seen
    finally:
        for cls, name, orig in patched:
            setattr(cls, name, orig)


@contextlib.contextmanager
def _forced_int32():
    """Pin every phase to int32, the dtype the engines ran before the ladder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_ladder_dtype", lambda lo, hi: np.int32)
        yield


@contextlib.contextmanager
def _forced_first_draw(value):
    """Overwrite the first color of every per-phase draw with ``value``.

    The wrapped draw still consumes the cell's stream exactly as before,
    so only that one color changes.
    """
    original = batch.sample_colors

    def forced(rng, size):
        draws = original(rng, size)
        draws[0] = value
        return draws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "sample_colors", forced)
        yield


def assert_trial_equal(a, b):
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


def _ladder_and_int32(run):
    """``run()`` on the ladder (with the kernel itemsizes) and forced int32."""
    with _spy_kernel_dtypes() as seen:
        got = run()
    with _forced_int32():
        want = run()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_trial_equal(a, b)
    return seen


def test_builtin_injection_values_fit_int32():
    assert HUGE_COLOR <= _INT32_MAX


@settings(max_examples=6, deadline=None)
@given(seed=seeds, n=st.sampled_from([64, 128]))
def test_honest_batch_state_is_int8(seed, n):
    net = build_small_world(n, 8, seed=seed % 50)
    seen = _ladder_and_int32(lambda: run_counting_batch(net, seeds=[seed, seed + 1]))
    assert seen and set(seen) == {1}


@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_lossy_honest_state_is_int8_and_exact(seed):
    # Small noise keeps the bound (largest draw + 2 * phase) inside int8,
    # so the channel's clamp at the dtype maximum is never reached.
    net = build_small_world(96, 8, seed=seed % 50)
    channel = ChannelModel(loss_p=0.15, noise_p=0.2, noise_amp=2)
    seen = _ladder_and_int32(
        lambda: run_counting_batch(net, seeds=[seed, seed + 1], channel=channel)
    )
    assert seen and set(seen) == {1}


def test_max_noise_amp_stays_int32():
    net = build_small_world(64, 8, seed=4)
    channel = ChannelModel(loss_p=0.1, noise_p=0.3, noise_amp=MAX_NOISE_AMP)
    seen = _ladder_and_int32(
        lambda: run_counting_batch(net, seeds=[3, 4], channel=channel)
    )
    assert seen and min(seen) >= 4


def test_forced_draw_of_128_widens_to_int16():
    net = build_small_world(64, 8, seed=5)
    with _forced_first_draw(128):
        seen = _ladder_and_int32(lambda: run_counting_batch(net, seeds=[7, 8]))
    assert seen and set(seen) == {2}


def test_forced_draw_of_127_stays_int8():
    net = build_small_world(64, 8, seed=5)
    with _forced_first_draw(127):
        seen = _ladder_and_int32(lambda: run_counting_batch(net, seeds=[7, 8]))
    assert seen and set(seen) == {1}


def _window_plan(state, low, width):
    """Round-1 injections of ``low`` at the first Byzantine node and
    ``low + width`` at the others.

    The engine moves plan values above the honest band down to just above
    it (see :func:`repro.core.batch._shift_plans`), keeping their order
    and spacing, so such a plan needs a rung at least ``width`` wide
    however large ``low`` is.
    """
    injections = np.full((1, state.byz_nodes.shape[0], state.batch), low, dtype=np.int64)
    injections[0, 1:] += width
    return BatchSubphasePlan(
        injections=injections, counts=np.ones((1, state.batch), dtype=np.int64)
    )


class _SecondSubphaseHuge(Adversary):
    """Injects ``HUGE_COLOR`` and ``HUGE_COLOR + 2**16`` in each phase's
    second subphase, a window no rung below int32 holds, which moves an
    int8 phase to int32 mid-phase."""

    def batch_subphase_plan(self, state):
        if state.subphase != 2:
            return BatchSubphasePlan()
        return _window_plan(state, HUGE_COLOR, 2**16)


def test_forced_mid_phase_widen_int8_to_int32():
    # The phase's int8 draws (one of them the rung's maximum) feed an
    # int32 state from the second subphase on.
    net = build_small_world(96, 8, seed=6)
    byz = random_placement(96, 3, rng=1)
    with _forced_first_draw(127):
        seen = _ladder_and_int32(
            lambda: run_counting_batch(
                net, seeds=[11, 12], adversary_factory=_SecondSubphaseHuge, byz_mask=byz
            )
        )
    assert set(seen) == {1, 4}
    assert 1 in seen[: seen.index(4)]


@settings(max_examples=10, deadline=None)
@given(seed=seeds, strategy=st.sampled_from(sorted(ADVERSARIES)))
def test_builtin_strategies_state_stays_int32(seed, strategy):
    net = build_small_world(96, 8, seed=7)
    byz = random_placement(96, 4, rng=seed)
    seen = _ladder_and_int32(
        lambda: run_counting_batch(
            net,
            seeds=[seed, seed + 1],
            adversary_factory=make_adversary(strategy),
            byz_mask=byz,
        )
    )
    # A topology-liar crash ball can engulf a small network entirely, ending
    # the run with no flood rounds at all — the bound is what matters.
    assert max(seen, default=0) <= 4


@settings(max_examples=4, deadline=None)
@given(seed=seeds, strategy=st.sampled_from(["early-stop", "combo", "silent"]))
def test_multinet_and_union_state_stays_int32(seed, strategy):
    nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
    masks = [random_placement(net.n, 3, rng=seed) for net in nets]
    with _spy_kernel_dtypes() as seen:
        run_counting_multinet(
            nets,
            seeds=[seed, seed + 1],
            adversary_factory=ADVERSARIES[strategy],
            byz_mask=masks,
        )
    assert max(seen, default=0) <= 4
    with _spy_kernel_dtypes() as seen:
        run_counting_unionstack(
            nets,
            seeds=[seed, seed + 1],
            adversary_factory=ADVERSARIES[strategy],
            byz_mask=masks,
        )
    assert max(seen, default=0) <= 4


class _OverflowAdversary(Adversary):
    """Early-stop clone whose planted color exceeds the int32 range."""

    def subphase_plan(self, state):
        colors = np.full(state.byz_nodes.shape[0], _INT32_MAX + 1, dtype=np.int64)
        return SubphasePlan(initial_colors=colors, injections=[], relay=True)

    def batch_subphase_plan(self, state):
        colors = np.full(
            (state.byz_nodes.shape[0], state.batch), _INT32_MAX + 1, dtype=np.int64
        )
        return BatchSubphasePlan(initial_colors=colors)


def test_out_of_range_plan_widens_to_int64():
    """Control: the spy does observe widening when a plan leaves int32."""
    net = build_small_world(64, 8, seed=3)
    byz = random_placement(64, 2, rng=0)
    with _spy_kernel_dtypes() as seen:
        run_counting_batch(
            net, seeds=[5], adversary_factory=_OverflowAdversary, byz_mask=byz
        )
    assert 8 in seen


class _SecondSubphaseInjector(Adversary):
    """Injects ``2**20`` and ``2**20 + 200`` in each phase's second
    subphase: moved down to just above the honest band, the window still
    needs int16."""

    def batch_subphase_plan(self, state):
        if state.subphase != 2:
            return BatchSubphasePlan()
        return _window_plan(state, 2**20, 200)


def test_mid_phase_injection_widens_int8_to_int16():
    net = build_small_world(96, 8, seed=6)
    byz = random_placement(96, 3, rng=1)
    seen = _ladder_and_int32(
        lambda: run_counting_batch(
            net,
            seeds=[11, 12],
            adversary_factory=_SecondSubphaseInjector,
            byz_mask=byz,
        )
    )
    # Every phase with a second subphase opens on int8 and widens there.
    assert set(seen) == {1, 2}
    first_wide = seen.index(2)
    assert 1 in seen[:first_wide]


class _NegativeInitial(Adversary):
    """Plants an initial color below int8's minimum at every Byzantine node."""

    def batch_subphase_plan(self, state):
        colors = np.full((state.byz_nodes.shape[0], state.batch), -200, dtype=np.int64)
        return BatchSubphasePlan(initial_colors=colors)


def test_negative_initial_color_widens():
    net = build_small_world(96, 8, seed=8)
    byz = random_placement(96, 3, rng=2)
    seen = _ladder_and_int32(
        lambda: run_counting_batch(
            net,
            seeds=[13, 14],
            adversary_factory=_NegativeInitial,
            byz_mask=byz,
        )
    )
    assert seen and set(seen) == {2}


class _HonestColorSpy(Adversary):
    """Records the dtype and ``global_max_colors() + 1`` it is shown."""

    records: list = []

    def batch_subphase_plan(self, state):
        _HonestColorSpy.records.append(
            (state.subphase, state.honest_colors.dtype, state.global_max_colors() + 1)
        )
        return BatchSubphasePlan()


def test_adversaries_see_int64_colors_in_an_int8_phase():
    net = build_small_world(96, 8, seed=9)
    byz = random_placement(96, 3, rng=3)
    _HonestColorSpy.records = []
    # A first draw of 127 fills int8 exactly: the state stays one byte
    # wide, while ``max + 1`` in that dtype would wrap to -128.
    with _forced_first_draw(127), _spy_kernel_dtypes() as seen:
        run_counting_batch(
            net, seeds=[21, 22], adversary_factory=_HonestColorSpy, byz_mask=byz
        )
    assert seen and set(seen) == {1}
    assert _HonestColorSpy.records
    for subphase, dtype, next_color in _HonestColorSpy.records:
        assert dtype == np.int64
        if subphase == 1:  # the subphase holding the forced 127
            assert np.all(next_color == 128)


class _WindowInjector(Adversary):
    """Injects ``2**20`` and ``2**20 + 60`` in round 1 of every subphase."""

    def batch_subphase_plan(self, state):
        return _window_plan(state, 2**20, 60)


@pytest.mark.parametrize("noise_amp, itemsize", [(0, 1), (2, 2)])
def test_lossy_byzantine_injection_widens_through_noise(noise_amp, itemsize):
    # Every phase's largest draw is a forced 60, above each threshold the
    # run reaches.  Without noise the window moves down to 61..121, which
    # fits int8.  With noise_amp = 2 (noise = 2 * phase per subphase) the
    # window lands 4 * noise above the largest draw and the bound adds
    # noise once more, so the plan bound 121 + 10 * phase needs int16,
    # while the draws alone (60 + 2 * phase) open every phase on int8.
    net = build_small_world(96, 8, seed=10)
    byz = random_placement(96, 3, rng=4)
    channel = ChannelModel(loss_p=0.1, noise_p=0.2, noise_amp=noise_amp)
    with _forced_first_draw(60):
        seen = _ladder_and_int32(
            lambda: run_counting_batch(
                net,
                seeds=[15, 16],
                adversary_factory=_WindowInjector,
                byz_mask=byz,
                channel=channel,
            )
        )
    assert seen and set(seen) == {itemsize}


@pytest.mark.parametrize("strategy", ["early-stop", "inflation", "combo"])
@pytest.mark.parametrize("entry", ["batch", "unionstack", "multinet"])
def test_out_of_band_strategies_run_int8(strategy, entry):
    # These strategies plant or inject values near HUGE_COLOR, which only
    # ever compare as "above every honest color": moved down to just
    # above the honest band, they flood in one-byte state.
    nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
    masks = [random_placement(net.n, 3, rng=5) for net in nets]
    factory = ADVERSARIES[strategy]
    runs = {
        "batch": lambda: run_counting_batch(
            nets[1], seeds=[3, 4], adversary_factory=factory, byz_mask=masks[1]
        ),
        "unionstack": lambda: run_counting_unionstack(
            nets, seeds=[3, 4], adversary_factory=factory, byz_mask=masks
        ),
        "multinet": lambda: run_counting_multinet(
            [nets[0], nets[1], nets[0]],
            seeds=[3, 4, 5],
            adversary_factory=factory,
            byz_mask=[masks[0], masks[1], masks[0]],
        ),
    }
    seen = _ladder_and_int32(runs[entry])
    assert seen and set(seen) == {1}
