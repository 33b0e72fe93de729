"""Unit tests for the vectorized flooding kernel."""

import numpy as np
import pytest

from repro.graphs.balls import bfs_distances
from repro.sim.flood import FloodKernel


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


class TestNeighborMaxBatch:
    def ragged_kernel(self):
        # Degrees 1, 3, 2, 2 — exercises the reduceat fallback paths.
        indptr = np.array([0, 1, 4, 6, 8], dtype=np.int64)
        indices = np.array([1, 0, 2, 3, 1, 3, 1, 2], dtype=np.int64)
        return FloodKernel(indptr, indices)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_matches_per_row_kernel(self, h_small, batch):
        kern = FloodKernel(h_small.indptr, h_small.indices)
        values = np.random.default_rng(batch).integers(
            0, 50, size=(batch, h_small.n)
        ).astype(np.int64)
        expected = np.stack([kern.neighbor_max(row) for row in values])
        assert np.array_equal(kern.neighbor_max_batch(values), expected)

    def test_ragged_degrees(self):
        kern = self.ragged_kernel()
        values = np.array([[5, 0, 2, 9], [1, 1, 1, 1]], dtype=np.int64)
        expected = np.stack([kern.neighbor_max(row) for row in values])
        assert np.array_equal(kern.neighbor_max_batch(values), expected)

    def test_out_buffer_and_1d_passthrough(self):
        kern = cycle_kernel(4)
        values = np.array([[1, 2, 3, 4]], dtype=np.int64)
        buf = np.zeros((1, 4), dtype=np.int64)
        assert kern.neighbor_max_batch(values, out=buf) is buf
        assert buf.tolist() == [[4, 3, 4, 3]]
        # 1-D input degrades to the scalar kernel.
        assert kern.neighbor_max_batch(values[0]).tolist() == [4, 3, 4, 3]

    def test_wrong_width_rejected(self):
        kern = cycle_kernel(4)
        with pytest.raises(ValueError, match="matrix"):
            kern.neighbor_max_batch(np.zeros((2, 5), dtype=np.int64))

    def test_plan_cache_reused(self):
        kern = cycle_kernel(6)
        values = np.arange(12, dtype=np.int64).reshape(2, 6)
        first = kern.neighbor_max_batch(values)
        assert 2 in kern._batch_plans
        assert np.array_equal(kern.neighbor_max_batch(values), first)

    def test_plan_cache_evicts_only_the_oldest(self):
        # The cap must behave as FIFO eviction, not a full clear: a 9th
        # batch size drops size 1 and ONLY size 1, so the other recurring
        # sizes keep their cached plans.
        kern = cycle_kernel(6)
        for batch in range(1, 9):
            kern._batch_plan(batch)
        assert sorted(kern._batch_plans) == list(range(1, 9))
        kept = {b: kern._batch_plans[b] for b in range(2, 9)}
        kern._batch_plan(9)
        assert sorted(kern._batch_plans) == list(range(2, 10))
        for batch, plan in kept.items():
            assert kern._batch_plans[batch] is plan  # untouched, not rebuilt

    def test_plan_cache_eviction_keeps_results_exact(self):
        kern = cycle_kernel(6)
        values = np.arange(12, dtype=np.int64).reshape(2, 6)
        expected = kern.neighbor_max_batch(values)
        for batch in range(1, 10):  # churn past the cap
            kern._batch_plan(batch)
        assert np.array_equal(kern.neighbor_max_batch(values), expected)


class TestNeighborMaxStacked:
    def test_uniform_degree_fast_path(self, h_small):
        kern = FloodKernel(h_small.indptr, h_small.indices)
        assert kern._uniform_degree == 8
        values = np.random.default_rng(7).integers(
            0, 50, size=(h_small.n, 3)
        ).astype(np.int32)
        expected = np.stack(
            [kern.neighbor_max(values[:, b].astype(np.int64)) for b in range(3)],
            axis=1,
        )
        assert np.array_equal(kern.neighbor_max_stacked(values), expected)

    def test_out_buffer(self):
        kern = cycle_kernel(4)  # degree 2 everywhere -> fast path
        values = np.array([[1], [2], [3], [4]], dtype=np.int64)
        buf = np.zeros((4, 1), dtype=np.int64)
        assert kern.neighbor_max_stacked(values, out=buf) is buf
        assert buf.ravel().tolist() == [4, 3, 4, 3]

    def test_ragged_fallback(self):
        indptr = np.array([0, 1, 4, 6, 8], dtype=np.int64)
        indices = np.array([1, 0, 2, 3, 1, 3, 1, 2], dtype=np.int64)
        kern = FloodKernel(indptr, indices)
        assert kern._uniform_degree == 0
        values = np.array([[5, 1], [0, 1], [2, 1], [9, 1]], dtype=np.int64)
        expected = np.stack(
            [kern.neighbor_max(values[:, b]) for b in range(2)], axis=1
        )
        assert np.array_equal(kern.neighbor_max_stacked(values), expected)

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
