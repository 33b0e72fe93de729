"""Hypothesis properties for the block-diagonal union-stack batch.

The batched engine keeps a rectangular (network x seed) grid as one
``(sum n_g, C)`` state whose row *segments* are the member networks'
blocks.  Two families of invariants make that sound, pinned here on
random rectangular grids:

* **segment offsets partition the rows exactly** — the union kernel's
  ``offsets`` tile ``[0, N)`` with the member sizes in order, and no
  value ever crosses a block boundary: after every flooding round of any
  values, each block's rows equal the member network's own unpadded
  kernel output (blocks share no edges, so leakage is structurally
  impossible);
* **per-cell equality with the scalar runner** — for random rectangular
  grids of networks and seeds (and, for Algorithm 2, placements), every
  ``(network, seed)`` cell of
  :func:`repro.core.batch.run_counting_unionstack` equals the
  per-network sequential :func:`repro.core.runner.run_counting` call bit
  for bit (decisions, crashes, meters, traces, injection counters).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CountingConfig, make_adversary
from repro.core.batch import run_counting_unionstack
from repro.core.runner import run_counting
from repro.graphs import build_small_world
from repro.sim.flood import FloodKernel, UnionFloodKernel

# Session-fixed pool of small same-degree networks (two share (n, d) so
# same-shape blocks are exercised too).
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


# A block mix: which pool networks stack, in which order (repeats allowed
# — re-samples of one shape are distinct blocks).
block_mixes = st.lists(
    st.integers(min_value=0, max_value=len(NETWORKS) - 1), min_size=1, max_size=4
)


class TestKernelSegments:
    """UnionFloodKernel: offsets tile the rows; blocks never leak."""

    @SETTINGS
    @given(mix=block_mixes)
    def test_offsets_partition_rows_exactly(self, mix):
        nets = [NETWORKS[i] for i in mix]
        uk = UnionFloodKernel.from_networks(nets)
        sizes = [net.n for net in nets]
        assert uk.sizes == tuple(sizes)
        assert uk.offsets[0] == 0
        assert uk.offsets[-1] == uk.n == sum(sizes)
        assert np.array_equal(np.diff(uk.offsets), np.asarray(sizes))
        # Every block's adjacency references only its own row segment.
        for g in range(len(nets)):
            lo, hi = int(uk.offsets[g]), int(uk.offsets[g + 1])
            seg_indices = uk.indices[uk.indptr[lo] : uk.indptr[hi]]
            assert seg_indices.min() >= lo
            assert seg_indices.max() < hi

    @SETTINGS
    @given(
        mix=block_mixes,
        batch=st.integers(1, 5),
        value_seed=st.integers(0, 2**31 - 1),
        rounds=st.integers(1, 3),
    )
    def test_blocks_never_leak_across_boundaries(self, mix, batch, value_seed, rounds):
        nets = [NETWORKS[i] for i in mix]
        uk = UnionFloodKernel.from_networks(nets)
        kernels = [FloodKernel(net.h.indptr, net.h.indices) for net in nets]
        rng = np.random.default_rng(value_seed)
        cur = rng.integers(0, 1000, (uk.n, batch)).astype(np.int64)
        refs = [
            np.array(cur[uk.offsets[g] : uk.offsets[g + 1]]) for g in range(len(nets))
        ]
        for _ in range(rounds):
            out = uk.neighbor_max_stacked(cur)
            for g, kernel in enumerate(kernels):
                lo, hi = int(uk.offsets[g]), int(uk.offsets[g + 1])
                # The union round restricted to one block equals the
                # member network's own unpadded kernel, column for column.
                expected = np.stack(
                    [kernel.neighbor_max(refs[g][:, b]) for b in range(batch)], axis=1
                )
                assert np.array_equal(out[lo:hi], expected)
                np.maximum(refs[g], expected, out=refs[g])
            np.maximum(cur, out, out=cur)
            for g in range(len(nets)):
                lo, hi = int(uk.offsets[g]), int(uk.offsets[g + 1])
                assert np.array_equal(cur[lo:hi], refs[g])

    @SETTINGS
    @given(mix=block_mixes, batch=st.integers(1, 4), value_seed=st.integers(0, 2**31 - 1))
    def test_segment_reductions_match_per_block(self, mix, batch, value_seed):
        nets = [NETWORKS[i] for i in mix]
        uk = UnionFloodKernel.from_networks(nets)
        rng = np.random.default_rng(value_seed)
        values = rng.integers(0, 3, (uk.n, batch)).astype(np.int64)
        nz = uk.segment_sum(values != 0)
        sums = uk.segment_sum(values)
        for g in range(len(nets)):
            lo, hi = int(uk.offsets[g]), int(uk.offsets[g + 1])
            assert np.array_equal(nz[g], np.count_nonzero(values[lo:hi], axis=0))
            assert np.array_equal(sums[g], values[lo:hi].sum(axis=0))


class TestEngineUnionStack:
    """run_counting_unionstack: every grid cell equals its scalar run."""

    @SETTINGS
    @given(mix=block_mixes, cols=st.integers(1, 4), seed0=st.integers(0, 10_000))
    def test_honest_grid_equals_scalar(self, mix, cols, seed0):
        cfg = CountingConfig(max_phase=5, verification=False)
        nets = [NETWORKS[i] for i in mix]
        seeds = [seed0 + 7 * j for j in range(cols)]
        union = run_counting_unionstack(nets, seeds, config=cfg)
        assert len(union) == len(nets) * cols
        scalar = [run_counting(net, cfg, seed=s) for net in nets for s in seeds]
        for a, b in zip(scalar, union):
            assert_trial_equal(a, b)

    @SETTINGS
    @given(
        mix=block_mixes,
        cols=st.integers(1, 3),
        seed0=st.integers(0, 10_000),
        byz_count=st.integers(1, 3),
    )
    def test_byzantine_grid_equals_scalar(self, mix, cols, seed0, byz_count):
        cfg = CountingConfig(max_phase=5)
        nets = [NETWORKS[i] for i in mix]
        seeds = [seed0 + 11 * j for j in range(cols)]
        masks = []
        for net in nets:
            m = np.zeros(net.n, dtype=bool)
            m[:byz_count] = True
            masks.append(m)
        union = run_counting_unionstack(
            nets,
            seeds,
            config=cfg,
            adversary_factory=lambda: make_adversary("early-stop"),
            byz_mask=masks,
        )
        scalar = [
            run_counting(
                net, cfg, seed=s, adversary=make_adversary("early-stop"), byz_mask=m
            )
            for net, m in zip(nets, masks)
            for s in seeds
        ]
        for a, b in zip(scalar, union):
            assert_trial_equal(a, b)

    def test_mixed_configs_keep_columns_independent(self):
        # Column config grouping in one deterministic case: two configs
        # interleaved across the column axis of a two-block stack.
        cfgs = [
            CountingConfig(max_phase=4, verification=False),
            CountingConfig(max_phase=4, verification=False, eps=0.25),
        ]
        nets = [NETWORKS[0], NETWORKS[3]]
        seeds = [1, 2, 3, 4]
        col_cfgs = [cfgs[0], cfgs[1], cfgs[0], cfgs[1]]
        union = run_counting_unionstack(nets, seeds, config=col_cfgs)
        scalar = [
            run_counting(net, cfg, seed=s)
            for net in nets
            for s, cfg in zip(seeds, col_cfgs)
        ]
        for a, b in zip(scalar, union):
            assert_trial_equal(a, b)
