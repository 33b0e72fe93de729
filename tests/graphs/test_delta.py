"""ResidentGraph: churn deltas equal cold rebuilds.

The resident engine's bit-for-bit guarantee bottoms out here: after any
sequence of join/leave deltas, :meth:`ResidentGraph.snapshot` must equal
the network a cold :func:`build_small_world` produces from the same
Hamiltonian cycles — same CSR, same lattice chunks, same everything the
estimation engines consume.
"""

import numpy as np
import pytest

from repro.graphs import (
    AppliedDelta,
    ResidentGraph,
    ball_chunk,
    build_small_world,
    hgraph_from_cycles,
)
from repro.sim.rng import derive_seed, make_rng


def assert_net_equal(a, b):
    """Full structural equality of two SmallWorldNetworks."""
    assert (a.n, a.d, a.k) == (b.n, b.d, b.k)
    assert np.array_equal(a.h.cycles, b.h.cycles)
    assert np.array_equal(a.h.indptr, b.h.indptr)
    assert np.array_equal(a.h.indices, b.h.indices)
    assert np.array_equal(a.g_indptr, b.g_indptr)
    assert np.array_equal(a.g_indices, b.g_indices)
    assert np.array_equal(a.g_dist, b.g_dist)


def cold_rebuild(net):
    """Re-derive the network from its cycles through the cold constructor."""
    return build_small_world(net.n, net.d, h=hgraph_from_cycles(net.h.cycles), k=net.k)


class TestAdoption:
    def test_from_network_snapshot_identity(self):
        net = build_small_world(48, 4, seed=3)
        rg = ResidentGraph.from_network(net)
        assert rg.snapshot() is net  # adoption caches the instance
        assert rg.n == net.n
        assert rg.version == 0

    def test_sample_matches_cold_build(self):
        rg = ResidentGraph.sample(48, 4, seed=7)
        assert_net_equal(rg.snapshot(), build_small_world(48, 4, seed=7))


class TestDeltaEqualsColdRebuild:
    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_churn_sequence_bit_for_bit(self, d):
        rng = make_rng(derive_seed(42, "delta-test", d))
        n0 = int(rng.integers(40, 90))
        rg = ResidentGraph.sample(n0, d, seed=int(rng.integers(1 << 30)))
        for _ in range(6):
            n = rg.n
            n_leave = int(rng.integers(0, max(1, n // 8) + 1))
            leaves = rng.choice(n, size=n_leave, replace=False)
            joins = int(rng.integers(0, 6))
            applied = rg.apply_delta(leaves, joins, rng)
            assert isinstance(applied, AppliedDelta)
            assert sorted(applied.left) == sorted(int(v) for v in leaves)
            assert len(applied.joined) == joins
            snap = rg.snapshot()
            assert snap.n == n - n_leave + joins
            assert_net_equal(snap, cold_rebuild(snap))

    def test_snapshot_cached_per_version(self):
        rg = ResidentGraph.sample(40, 4, seed=1)
        rng = make_rng(0)
        rg.apply_delta([3], 1, rng)
        s1 = rg.snapshot()
        assert rg.snapshot() is s1  # cached until the next delta
        rg.apply_delta([], 1, rng)
        assert rg.snapshot() is not s1
        assert rg.version == 2


class TestRebuild:
    def test_small_delta_recomputes_every_row(self):
        # Every delta rebuilds G in one all-sources k_balls pass, so the
        # report counts every row of the post-delta network.
        rg = ResidentGraph.sample(4096, 8, seed=5)
        applied = rg.apply_delta([100], 1, make_rng(9))
        snap = rg.snapshot()
        assert applied.recomputed == snap.n
        assert_net_equal(snap, cold_rebuild(snap))

    @pytest.mark.parametrize(
        "n,d,seed,leaves,joins,rng_seed",
        [
            (512, 8, 5, [100], 1, 9),
            (300, 6, 2, [7, 150, 299], 2, 4),
        ],
    )
    def test_rows_equal_per_node_ball_chunk(
        self, n, d, seed, leaves, joins, rng_seed
    ):
        # Every G row must equal the one-source ball_chunk on the new H.
        rg = ResidentGraph.sample(n, d, seed=seed)
        applied = rg.apply_delta(leaves, joins, make_rng(rng_seed))
        snap = rg.snapshot()
        assert applied.recomputed == snap.n
        for v in range(snap.n):
            nodes, dists = ball_chunk(snap.h.indptr, snap.h.indices, v, snap.k)
            assert snap.g_neighbors(v).dtype == nodes.dtype == np.int64
            assert snap.g_neighbor_dists(v).dtype == dists.dtype == np.int8
            assert np.array_equal(snap.g_neighbors(v), nodes)
            assert np.array_equal(snap.g_neighbor_dists(v), dists)

    def test_joiners_get_fresh_top_ids(self):
        rg = ResidentGraph.sample(50, 4, seed=2)
        applied = rg.apply_delta([10, 20], 3, make_rng(4))
        assert applied.joined == (48, 49, 50)  # ids [n_live, n_live + joins)


class TestValidation:
    def test_rng_type_checked(self):
        rg = ResidentGraph.sample(40, 4, seed=0)
        with pytest.raises(TypeError, match="Generator"):
            rg.apply_delta([1], 1, 123)

    def test_rejects_bad_leaves(self):
        rg = ResidentGraph.sample(40, 4, seed=0)
        rng = make_rng(0)
        with pytest.raises(ValueError):
            rg.apply_delta([40], 0, rng)  # out of range
        with pytest.raises(ValueError):
            rg.apply_delta([1, 1], 0, rng)  # duplicate

    def test_rejects_negative_joins_and_tiny_result(self):
        rg = ResidentGraph.sample(40, 4, seed=0)
        rng = make_rng(0)
        with pytest.raises(ValueError):
            rg.apply_delta([], -1, rng)
        with pytest.raises(ValueError):
            rg.apply_delta(range(38), 0, rng)  # would leave n < 3

    def test_rejected_delta_changes_nothing(self):
        rg = ResidentGraph.sample(40, 4, seed=0)
        snap = rg.snapshot()
        rng = make_rng(0)
        with pytest.raises(TypeError, match="joins must be an integer"):
            rg.apply_delta([3], 1.5, rng)
        with pytest.raises(TypeError, match="leave ids must be integers"):
            rg.apply_delta([2.9], 0, rng)  # no silent truncation to node 2
        with pytest.raises(TypeError, match="leave ids must be integers"):
            rg.apply_delta(np.array([True, False]), 0, rng)
        assert (rg.n, rg.version) == (40, 0)
        assert rg.snapshot() is snap
        # Integer-like joins and empty leave lists are accepted.
        rg.apply_delta([], np.int64(1), rng)
        assert (rg.n, rg.version) == (41, 1)
