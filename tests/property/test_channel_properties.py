"""Hypothesis properties for the lossy/noisy channel axis.

Two invariants back the channel determinism contract
(:mod:`repro.sim.channel`):

* **null channels are invisible** — any :class:`ChannelModel` with
  ``loss_p == 0`` and no effective noise (``noise_p == 0`` or
  ``noise_amp == 0``) normalizes away before reaching an engine, so the
  run is *bit-for-bit* the channel-free output on every batched entry
  point and every available kernel backend;
* **lossy runs are layout-invariant** — each trial draws one key per
  phase from its own channel stream, and every round's draws hash that
  key with the round and the row within the trial's own network (never
  its column, block offset or the batch width), so the same
  (network, seed, channel) cell produces identical results whether it
  runs through the single-network entry point, as a ragged multinet
  cell beside an absent one, or as a segment of a rectangular
  union-stack column.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.adaptive import MobileAdversary
from repro.core import CountingConfig, make_adversary
from repro.core.batch import (
    run_counting_batch,
    run_counting_multinet,
    run_counting_unionstack,
)
from repro.graphs import build_small_world
from repro.sim.backends import available_backends
from repro.sim.channel import ChannelModel

NET = build_small_world(64, 4, seed=11)
DECOY = build_small_world(48, 4, seed=12)
CFG = CountingConfig(max_phase=6)
CFG_HONEST = CFG.with_(verification=False)

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every way to spell "no channel effect": zero everything, noise with
#: zero amplitude, amplitude with zero probability.
null_channels = st.one_of(
    st.just(ChannelModel()),
    st.floats(0.0, 1.0).map(lambda p: ChannelModel(noise_p=p, noise_amp=0)),
    st.integers(0, 5).map(lambda a: ChannelModel(noise_p=0.0, noise_amp=a)),
)

lossy_channels = st.builds(
    ChannelModel,
    loss_p=st.floats(0.01, 0.5),
    noise_p=st.floats(0.0, 1.0),
    noise_amp=st.integers(0, 4),
)


def byz_mask(net, count=3):
    mask = np.zeros(net.n, dtype=bool)
    mask[:count] = True
    return mask


def assert_trial_equal(a, b):
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


class TestNullChannelIsInvisible:
    @pytest.mark.parametrize("backend", available_backends())
    @SETTINGS
    @given(channel=null_channels, seed0=st.integers(0, 10_000))
    def test_batch_honest(self, backend, channel, seed0):
        seeds = [seed0, seed0 + 7]
        ref = run_counting_batch(NET, seeds, config=CFG_HONEST, backend=backend)
        got = run_counting_batch(
            NET, seeds, config=CFG_HONEST, backend=backend, channel=channel
        )
        for a, b in zip(ref, got, strict=True):
            assert_trial_equal(a, b)

    @pytest.mark.parametrize("backend", available_backends())
    @SETTINGS
    @given(channel=null_channels, seed0=st.integers(0, 10_000))
    def test_batch_byzantine(self, backend, channel, seed0):
        seeds = [seed0, seed0 + 7]
        kw = dict(
            config=CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=byz_mask(NET),
            backend=backend,
        )
        ref = run_counting_batch(NET, seeds, **kw)
        got = run_counting_batch(NET, seeds, channel=channel, **kw)
        for a, b in zip(ref, got, strict=True):
            assert_trial_equal(a, b)

    @pytest.mark.parametrize("backend", available_backends())
    @SETTINGS
    @given(channel=null_channels, seed0=st.integers(0, 10_000))
    def test_multinet(self, backend, channel, seed0):
        nets = [DECOY, NET]
        seeds = [seed0 + 1000, seed0]
        kw = dict(
            config=CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=[byz_mask(DECOY), byz_mask(NET)],
            backend=backend,
        )
        ref = run_counting_multinet(nets, seeds, **kw)
        got = run_counting_multinet(nets, seeds, channel=channel, **kw)
        for a, b in zip(ref, got, strict=True):
            assert_trial_equal(a, b)

    @pytest.mark.parametrize("backend", available_backends())
    @SETTINGS
    @given(channel=null_channels, seed0=st.integers(0, 10_000))
    def test_unionstack(self, backend, channel, seed0):
        nets = [DECOY, NET]
        seeds = [seed0, seed0 + 13]
        kw = dict(
            config=CFG,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=[byz_mask(DECOY), byz_mask(NET)],
            backend=backend,
        )
        ref = run_counting_unionstack(nets, seeds, **kw)
        got = run_counting_unionstack(nets, seeds, channel=channel, **kw)
        for a, b in zip(ref, got, strict=True):
            assert_trial_equal(a, b)


class TestLossyLayoutInvariance:
    """The same lossy cell is bit-for-bit equal via all three entry points."""

    @SETTINGS
    @given(channel=lossy_channels, seed0=st.integers(0, 10_000))
    def test_honest_cell_across_layouts(self, channel, seed0):
        seeds = [seed0, seed0 + 7]
        batch = run_counting_batch(
            NET, seeds, config=CFG_HONEST, channel=channel
        )
        multi = run_counting_multinet(
            [DECOY, NET, NET],
            [seed0 + 1000, seeds[0], seeds[1]],
            config=CFG_HONEST,
            channel=channel,
        )
        union = run_counting_unionstack(
            [DECOY, NET], seeds, config=CFG_HONEST, channel=channel
        )
        for j in range(2):
            assert_trial_equal(batch[j], multi[1 + j])
            # Union results are network-major: NET is block 1 of 2.
            assert_trial_equal(batch[j], union[1 * 2 + j])

    @SETTINGS
    @given(
        channel=lossy_channels,
        seed0=st.integers(0, 10_000),
        strategy=st.sampled_from(["early-stop", "inflation", "mobile"]),
    )
    def test_byzantine_cell_across_layouts(self, channel, seed0, strategy):
        def factory():
            if strategy == "mobile":
                return MobileAdversary(make_adversary("early-stop"))
            return make_adversary(strategy)

        seeds = [seed0, seed0 + 7]
        mask = byz_mask(NET)
        batch = run_counting_batch(
            NET,
            seeds,
            config=CFG,
            adversary_factory=factory,
            byz_mask=mask,
            channel=channel,
        )
        multi = run_counting_multinet(
            [DECOY, NET, NET],
            [seed0 + 1000, seeds[0], seeds[1]],
            config=CFG,
            adversary_factory=factory,
            byz_mask=[byz_mask(DECOY), mask, mask],
            channel=channel,
        )
        union = run_counting_unionstack(
            [DECOY, NET],
            seeds,
            config=CFG,
            adversary_factory=factory,
            byz_mask=[byz_mask(DECOY), mask],
            channel=channel,
        )
        for j in range(2):
            assert_trial_equal(batch[j], multi[1 + j])
            assert_trial_equal(batch[j], union[1 * 2 + j])
