"""Unit tests for the vectorized flooding kernel."""

import numpy as np
import pytest
from flood_reference import reference_neighbor_max

from repro.graphs.balls import bfs_distances
from repro.graphs.smallworld import build_small_world
from repro.sim.flood import FloodKernel, UnionFloodKernel, stack_union_csr

#: Every rung of the batched engines' color-state dtype ladder.
LADDER_DTYPES = [np.int8, np.int16, np.int32, np.int64]


def cycle_kernel(n):
    indptr = np.arange(n + 1, dtype=np.int64) * 2
    indices = np.empty(2 * n, dtype=np.int64)
    for v in range(n):
        indices[2 * v] = (v - 1) % n
        indices[2 * v + 1] = (v + 1) % n
    return FloodKernel(indptr, indices)


class TestNeighborMax:
    def test_cycle_propagation(self):
        kern = cycle_kernel(6)
        values = np.array([9, 0, 0, 0, 0, 0], dtype=np.int64)
        out = kern.neighbor_max(values)
        assert out.tolist() == [0, 9, 0, 0, 0, 9]

    def test_zero_for_silent_neighbors(self):
        kern = cycle_kernel(4)
        out = kern.neighbor_max(np.zeros(4, dtype=np.int64))
        assert np.all(out == 0)

    def test_out_buffer(self):
        kern = cycle_kernel(4)
        values = np.array([1, 2, 3, 4], dtype=np.int64)
        buf = np.zeros(4, dtype=np.int64)
        result = kern.neighbor_max(values, out=buf)
        assert result is buf
        assert buf.tolist() == [4, 3, 4, 3]

    def test_rejects_isolated_nodes(self):
        indptr = np.array([0, 0, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="degree"):
            FloodKernel(indptr, indices)


class TestCsrContract:
    """Every kernel floods a CSR of one degree >= 1 at every node."""

    # Degrees 1, 3, 2, 2: every node has a neighbor, but no one degree.
    RAGGED = (
        np.array([0, 1, 4, 6, 8], dtype=np.int64),
        np.array([1, 0, 2, 3, 1, 3, 1, 2], dtype=np.int64),
    )

    def test_ragged_csr_rejected_at_construction(self):
        with pytest.raises(ValueError, match="one degree"):
            FloodKernel(*self.RAGGED)
        with pytest.raises(ValueError, match="one degree"):
            UnionFloodKernel((4,), *self.RAGGED)

    def test_union_of_mixed_degrees_rejected(self):
        nets = [build_small_world(48, 8, seed=1), build_small_world(48, 6, seed=2)]
        with pytest.raises(ValueError, match="one degree"):
            UnionFloodKernel.from_networks(nets)

    def test_empty_csr_rejected(self):
        with pytest.raises(ValueError, match="one degree"):
            FloodKernel(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_ragged_csr_rejected_at_update_csr(self):
        kern = cycle_kernel(4)
        indptr, indices = kern.indptr, kern.indices
        with pytest.raises(ValueError, match="one degree"):
            kern.update_csr(*self.RAGGED)
        # The rejected CSR left the kernel as it was.
        assert kern.indptr is indptr and kern.indices is indices
        assert kern.neighbor_max(np.array([1, 2, 3, 4])).tolist() == [4, 3, 4, 3]


class TestUnionUpdateCsr:
    """Re-pointing a union kernel keeps its blocks."""

    @pytest.fixture()
    def nets(self):
        return [build_small_world(48, 8, seed=1), build_small_world(64, 8, seed=2)]

    def test_update_csr_keeps_blocks(self, nets):
        union = UnionFloodKernel.from_networks(nets)
        others = [build_small_world(48, 8, seed=3), build_small_world(64, 8, seed=4)]
        sizes, indptr, indices = stack_union_csr(others)
        union.update_csr(indptr, indices)
        assert union.sizes == sizes == (48, 64)
        assert union.offsets.tolist() == [0, 48, 112]
        ones = np.ones((112, 1), dtype=np.int64)
        assert union.segment_sum(ones).ravel().tolist() == [48, 64]
        values = np.random.default_rng(0).integers(0, 99, size=(112, 3))
        assert np.array_equal(
            union.neighbor_max_stacked(values),
            reference_neighbor_max(indptr, indices, values),
        )

    def test_update_csr_rejects_other_row_count(self, nets):
        union = UnionFloodKernel.from_networks(nets)
        other = build_small_world(96, 8, seed=3)
        with pytest.raises(ValueError, match="block sizes sum to 112"):
            union.update_csr(other.h.indptr, other.h.indices)
        assert union.n == 112 and union.sizes == (48, 64)

    def test_plain_kernel_follows_its_csr(self):
        kern = cycle_kernel(4)
        kern.update_csr(cycle_kernel(6).indptr, cycle_kernel(6).indices)
        assert kern.sizes == (6,)
        assert kern.offsets.tolist() == [0, 6]


class TestNeighborMaxStacked:
    @pytest.mark.parametrize("dtype", LADDER_DTYPES)
    def test_matches_reference(self, h_small, dtype):
        kern = FloodKernel(h_small.indptr, h_small.indices)
        assert kern._uniform_degree == 8
        values = np.random.default_rng(7).integers(
            -50, 99, size=(h_small.n, 3)
        ).astype(dtype)
        want = reference_neighbor_max(h_small.indptr, h_small.indices, values)
        got = kern.neighbor_max_stacked(values)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        assert kern.neighbor_max_stacked(values, out=values) is values
        assert np.array_equal(values, want)

    def test_scalar_kernel_matches_reference(self, h_small):
        kern = FloodKernel(h_small.indptr, h_small.indices)
        values = np.random.default_rng(8).integers(0, 99, size=h_small.n)
        assert np.array_equal(
            kern.neighbor_max(values),
            reference_neighbor_max(h_small.indptr, h_small.indices, values),
        )

    def test_out_buffer(self):
        kern = cycle_kernel(4)
        values = np.array([[1], [2], [3], [4]], dtype=np.int64)
        buf = np.zeros((4, 1), dtype=np.int64)
        assert kern.neighbor_max_stacked(values, out=buf) is buf
        assert buf.ravel().tolist() == [4, 3, 4, 3]

    def test_degree_one_graph(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        kern = FloodKernel(indptr, indices)
        values = np.array([[3, 1], [7, 2]], dtype=np.int64)
        out = kern.neighbor_max_stacked(values)
        assert out.tolist() == [[7, 2], [3, 1]]

    def test_wrong_height_rejected(self):
        kern = cycle_kernel(4)
        with pytest.raises(ValueError, match="matrix"):
            kern.neighbor_max_stacked(np.zeros((5, 2), dtype=np.int64))


class TestMultiPlanCacheEviction:
    def test_column_plan_cache_evicts_only_the_oldest(self):
        from repro.graphs.smallworld import build_small_world
        from repro.sim.flood import MultiFloodKernel

        nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
        mkern = MultiFloodKernel(nets)
        plans = {}
        for batch in range(1, 17):  # 16 distinct live-column assignments
            col_net = np.zeros(batch, dtype=np.int64)
            plans[batch] = mkern.column_plan(col_net)
        assert len(mkern._plan_cache) == 16
        mkern.column_plan(np.zeros(17, dtype=np.int64))  # 17th: evict oldest
        assert len(mkern._plan_cache) == 16
        oldest_key = np.zeros(1, dtype=np.int64).tobytes()
        assert oldest_key not in mkern._plan_cache
        # Every survivor is the cached object, not a rebuild.
        for batch in range(2, 17):
            key = np.zeros(batch, dtype=np.int64).tobytes()
            assert mkern._plan_cache[key] is plans[batch]


class TestSpreadSteps:
    def test_spread_matches_bfs(self, h_small):
        # Running-max flooding reaches exactly the BFS ball of each radius.
        kern = FloodKernel(h_small.indptr, h_small.indices)
        spread = np.zeros(h_small.n, dtype=np.int64)
        spread[0] = 42
        dist = bfs_distances(h_small.indptr, h_small.indices, 0)
        for steps in (1, 2, 3):
            np.maximum(spread, kern.neighbor_max(spread), out=spread)
            reached = spread == 42
            assert np.array_equal(reached, (dist <= steps) & (dist >= 0))

    def test_spread_does_not_mutate_input(self):
        kern = cycle_kernel(5)
        values = np.array([5, 0, 0, 0, 0], dtype=np.int64)
        kern.neighbor_max(values)
        assert values.tolist() == [5, 0, 0, 0, 0]


def rounds_to_saturation(kern, values):
    """Flood ``values`` by running max until nothing changes; return rounds."""
    values = values.copy()
    rounds = 0
    while True:
        nxt = np.maximum(values, kern.neighbor_max(values))
        if np.array_equal(nxt, values):
            return rounds
        values = nxt
        rounds += 1


class TestSaturation:
    def test_rounds_to_saturation_equals_eccentricity(self):
        kern = cycle_kernel(9)
        values = np.zeros(9, dtype=np.int64)
        values[0] = 7
        # On a 9-cycle the farthest node is 4 hops away.
        assert rounds_to_saturation(kern, values) == 4

    def test_already_saturated(self):
        kern = cycle_kernel(5)
        assert rounds_to_saturation(kern, np.full(5, 3, dtype=np.int64)) == 0
