"""Property tests: moving out-of-band plan values down changes no result.

The batched engine moves every adversary plan value above ``cut`` (two
noise spans above the phase's largest draw and its threshold) down to
start just above ``cut + 2 x noise``, where ``noise = noise_amp x phase``
is the most a value drifts within one subphase, whenever that lets the
color state run on a narrower dtype rung (see
:func:`repro.core.batch._shift_plans`).  Such values only ever compare as
"above every honest color and the threshold", so the move keeps every
maximum, threshold test and new-record test.

Here a plan-building adversary mixes, per subphase, values in the honest
band, values at exactly ``cut``, at ``cut + 2 x noise`` (which rules the
move out) and one above it, narrow and wide windows far above the band,
values just under the int32 clamp, zero cells, relay-off columns with
and without their own re-send schedules, and negative initial colors,
with and without a noisy channel.  Every run must equal, bit for bit, the
same run forced onto int32 state, where nothing moves.  The phase's
largest draw is pinned so the adversary knows ``cut`` exactly.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import Adversary, BatchSubphasePlan, random_placement
from repro.analysis.bounds import color_threshold
from repro.core import CountingConfig, batch, run_counting_batch
from repro.graphs import build_small_world
from repro.sim.channel import ChannelModel

_INT32_MAX = int(np.iinfo(np.int32).max)

#: Value kinds an adversary plan may mix within one subphase.
KINDS = (
    "zero",
    "band",
    "at-cut",
    "edge",
    "edge+1",
    "narrow",
    "wide",
    "int32-top",
    "negative",
)

NET = build_small_world(64, 8, seed=12)
CONFIG = CountingConfig(max_phase=8)


@dataclass(frozen=True)
class Recipe:
    seed: int
    kinds: tuple[str, ...]
    draw: int
    noise_amp: int  # the channel's amplitude; 0 also covers no channel
    resend_p: float


def _value(kind, rng, size, cut, noise):
    if kind == "zero":
        return np.zeros(size, dtype=np.int64)
    if kind == "band":
        return rng.integers(1, cut + 1, size=size)
    if kind == "at-cut":
        return np.full(size, cut, dtype=np.int64)
    if kind == "edge":
        return np.full(size, cut + 2 * noise, dtype=np.int64)
    if kind == "edge+1":
        return np.full(size, cut + 2 * noise + 1, dtype=np.int64)
    if kind == "narrow":
        return 2**20 + rng.integers(0, 40, size=size)
    if kind == "wide":
        return 2**20 + rng.integers(0, 2**17, size=size)
    if kind == "int32-top":
        return _INT32_MAX - noise + rng.integers(0, 2, size=size)
    return rng.integers(-300, 0, size=size)  # "negative"


class _MixedPlans(Adversary):
    """Builds each subphase's plan from a :class:`Recipe`.

    The subphase's own generator (seeded by the recipe and the subphase)
    takes all of the recipe's kinds or a subset of them and fills every
    plan cell with one of those, so different subphases move different
    sets of values.
    """

    recipe: Recipe

    def batch_subphase_plan(self, state):
        r = self.recipe
        rng = np.random.default_rng([r.seed, state.phase, state.subphase])
        noise = r.noise_amp * state.phase
        thr = math.floor(color_threshold(state.phase, state.network.d))
        cut = max(r.draw, thr) + 2 * noise
        kinds = r.kinds
        if rng.random() < 0.5:
            kinds = rng.permutation(kinds)[: rng.integers(1, len(kinds) + 1)]
        m, b = state.byz_nodes.shape[0], state.batch

        def fill(shape, signed):
            pick = rng.integers(len(kinds), size=shape)
            out = np.zeros(shape, dtype=np.int64)
            for i, kind in enumerate(kinds):
                sel = pick == i
                out[sel] = _value(kind, rng, int(sel.sum()), cut, noise)
            return out if signed else np.maximum(out, 0)

        plan = BatchSubphasePlan(relay=rng.random(b) < 0.6)
        if rng.random() < 0.6:
            plan.initial_colors = fill((m, b), signed=True)
        if rng.random() < 0.8:
            rounds = int(rng.integers(1, state.rounds + 1))
            plan.injections = fill((rounds, m, b), signed=False)
            plan.counts = (plan.injections > 0).sum(axis=1)
            if rng.random() < r.resend_p:
                plan.resend = fill((rounds, m, b), signed=False)
        return plan


@contextlib.contextmanager
def _pinned_draw_max(value):
    """Overwrite the first color of every per-phase draw with ``value``.

    Natural geometric(1/2) draws reach ``value >= 24`` with probability
    below ``2**-23`` each, so ``value`` is the phase's largest draw.
    """
    original = batch.sample_colors

    def pinned(rng, size):
        draws = original(rng, size)
        draws[0] = value
        return draws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "sample_colors", pinned)
        yield


def _run(recipe, channel):
    factory = type("_Recipe", (_MixedPlans,), {"recipe": recipe})
    masks = [random_placement(NET.n, 4, rng=recipe.seed + i) for i in range(2)]
    with _pinned_draw_max(recipe.draw):
        return run_counting_batch(
            NET,
            seeds=[recipe.seed, recipe.seed + 1, recipe.seed + 2, recipe.seed + 3],
            config=CONFIG,
            adversary_factory=factory,
            byz_mask=[masks[0], masks[1], masks[0], masks[1]],
            channel=channel,
        )


recipes = st.builds(
    Recipe,
    seed=st.integers(0, 2**20),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, unique=True).map(tuple),
    draw=st.sampled_from([24, 30]),
    noise_amp=st.sampled_from([0, 1, 2, 3]),
    resend_p=st.sampled_from([0.0, 0.5]),
)


def _assert_same_as_int32(run):
    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_ladder_dtype", lambda lo, hi: np.int32)
        want = run()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.decided_phase, b.decided_phase)
        assert np.array_equal(a.crashed, b.crashed)
        assert np.array_equal(a.byz, b.byz)
        assert a.meter.as_dict() == b.meter.as_dict()
        assert list(a.trace) == list(b.trace)
        assert a.injections_accepted == b.injections_accepted
        assert a.injections_rejected == b.injections_rejected


@settings(max_examples=40, deadline=None)
@given(recipe=recipes, loss_p=st.sampled_from([0.0, 0.1]))
def test_moved_plans_match_int32(recipe, loss_p):
    channel = None
    if recipe.noise_amp or loss_p:
        channel = ChannelModel(loss_p=loss_p, noise_p=0.5, noise_amp=recipe.noise_amp)
    _assert_same_as_int32(lambda: _run(recipe, channel))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    noise_amp=st.sampled_from([1, 2, 3]),
    draw=st.sampled_from([24, 30]),
)
def test_moved_values_clear_noisy_band(seed, noise_amp, draw):
    # Unmoved values at ``cut`` drift up by as much as moved ones drift
    # down, so a noisy channel tells whether moved values land a full
    # ``2 x noise`` above ``cut``.
    recipe = Recipe(seed, ("band", "at-cut", "narrow"), draw, noise_amp, 0.0)
    channel = ChannelModel(loss_p=0.0, noise_p=0.5, noise_amp=noise_amp)
    _assert_same_as_int32(lambda: _run(recipe, channel))
