"""Hypothesis properties for ragged multi-network batches.

:class:`~repro.sim.flood.MultiFloodKernel` (used by the geometric-max
baseline) keeps trials of *different-sized* graphs as columns of one
state matrix padded to the largest ``n``; the counting engine runs the
same ragged mixes on the union stack, leaving absent cells where a
network has fewer trials.  Two families of invariants are pinned here on
random ragged size mixes:

* **padding never leaks** — a padding row (a row at or beyond a column's
  network size) is identically zero after every flooding round, and can
  never win a max into a live column: for any mix of networks and any
  values, every column of the padded kernel equals the unpadded
  per-network kernel;
* **per-column engine equality** — for random ragged mixes of networks,
  seeds, and (for Algorithm 2) placements, each column of
  :func:`repro.core.batch.run_counting_multinet` equals the single-trial
  per-network run bit for bit (decisions, crashes, meters, traces,
  injection counters), i.e. the per-cell bookkeeping (decided counting,
  saturation, witness metering, absent cells) holds after every round of
  every phase.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CountingConfig, make_adversary
from repro.core.batch import run_counting_batch, run_counting_multinet
from repro.graphs import build_small_world
from repro.sim.flood import FloodKernel, MultiFloodKernel

# Session-fixed pool of small same-degree networks (two share (n, d) so
# the shape-group merged gather path is exercised too).
NETWORKS = [
    build_small_world(24, 4, seed=1),
    build_small_world(32, 4, seed=2),
    build_small_world(32, 4, seed=5),
    build_small_world(48, 4, seed=3),
    build_small_world(64, 4, seed=4),
]

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_trial_equal(a, b):
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


col_mixes = st.lists(
    st.integers(min_value=0, max_value=len(NETWORKS) - 1), min_size=1, max_size=8
)


class TestKernelPadding:
    """MultiFloodKernel: padding rows stay zero, live prefixes stay exact."""

    @SETTINGS
    @given(mix=col_mixes, value_seed=st.integers(0, 2**31 - 1), rounds=st.integers(1, 3))
    def test_padding_rows_never_leak(self, mix, value_seed, rounds):
        used = sorted(set(mix))
        nets = [NETWORKS[i] for i in used]
        col_net = np.asarray([used.index(i) for i in mix], dtype=np.int64)
        mk = MultiFloodKernel(nets)
        rng = np.random.default_rng(value_seed)
        values = np.zeros((mk.n_pad, len(mix)), dtype=np.int64)
        for b, g in enumerate(col_net):
            n_b = nets[g].n
            values[:n_b, b] = rng.integers(0, 1000, n_b)
        refs = [
            np.array(values[: nets[g].n, b]) for b, g in enumerate(col_net)
        ]
        plan = mk.column_plan(col_net)
        kernels = [FloodKernel(net.h.indptr, net.h.indices) for net in nets]
        cur = values
        for _ in range(rounds):
            out = mk.neighbor_max_stacked(cur, plan)
            for b, g in enumerate(col_net):
                n_b = nets[g].n
                # Invariant 1: the padding suffix is identically zero
                # after every round.
                assert not out[n_b:, b].any()
                # Invariant 2: the live prefix equals the unpadded kernel.
                expected = kernels[g].neighbor_max(refs[b])
                assert np.array_equal(out[:n_b, b], expected)
                np.maximum(refs[b], expected, out=refs[b])
            cur = np.maximum(cur, out)
            for b, g in enumerate(col_net):
                assert np.array_equal(cur[: nets[g].n, b], refs[b])
                assert not cur[nets[g].n :, b].any()


class TestEnginePadding:
    """run_counting_multinet: ragged mixes equal the unpadded runs."""

    @SETTINGS
    @given(mix=col_mixes, seed0=st.integers(0, 10_000))
    def test_honest_ragged_mix_equals_unpadded(self, mix, seed0):
        cfg = CountingConfig(max_phase=5, verification=False)
        nets = [NETWORKS[i] for i in mix]
        seeds = [seed0 + 7 * j for j in range(len(mix))]
        multi = run_counting_multinet(nets, seeds, config=cfg)
        for j, (net, s) in enumerate(zip(nets, seeds)):
            ref = run_counting_batch(net, [s], config=cfg)[0]
            assert_trial_equal(ref, multi[j])

    @SETTINGS
    @given(mix=col_mixes, seed0=st.integers(0, 10_000), byz_count=st.integers(1, 3))
    def test_byzantine_ragged_mix_equals_unpadded(self, mix, seed0, byz_count):
        cfg = CountingConfig(max_phase=5)
        nets = [NETWORKS[i] for i in mix]
        seeds = [seed0 + 11 * j for j in range(len(mix))]
        masks = []
        for net in nets:
            m = np.zeros(net.n, dtype=bool)
            m[:byz_count] = True
            masks.append(m)
        multi = run_counting_multinet(
            nets,
            seeds,
            config=cfg,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=masks,
        )
        for j, (net, s, m) in enumerate(zip(nets, seeds, masks)):
            ref = run_counting_batch(
                net,
                [s],
                config=cfg,
                adversary_factory=lambda: make_adversary("early-stop"),
                byz_mask=m,
            )[0]
            assert_trial_equal(ref, multi[j])

    def test_mixed_configs_keep_columns_independent(self):
        # Config grouping + network interleaving in one deterministic case.
        cfgs = [
            CountingConfig(max_phase=4, verification=False),
            CountingConfig(max_phase=4, verification=False, eps=0.25),
        ]
        nets = [NETWORKS[0], NETWORKS[3], NETWORKS[0], NETWORKS[3]]
        seeds = [1, 2, 3, 4]
        trial_cfgs = [cfgs[0], cfgs[0], cfgs[1], cfgs[1]]
        multi = run_counting_multinet(nets, seeds, config=trial_cfgs)
        for j, (net, s, c) in enumerate(zip(nets, seeds, trial_cfgs)):
            ref = run_counting_batch(net, [s], config=c)[0]
            assert_trial_equal(ref, multi[j])
