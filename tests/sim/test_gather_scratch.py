"""The numpy backend's one-take gather and the lifetime of its scratch.

On a uniform-degree kernel, rows of at most ``ONE_TAKE_MAX_ROW_BYTES``
bytes are gathered with one ``np.take`` into a scratch cached on the
kernel; wider rows take the per-slot path.  The scratch and the flat
neighbor columns are functions of the current CSR, so re-pointing a
kernel (``update_csr``) must drop them — a stale scratch sized for the
old ``n``, or stale columns of the old adjacency, would silently gather
the wrong rows.
"""

import numpy as np
import pytest

from repro.graphs import build_small_world
from repro.sim.backends.numpy_backend import ONE_TAKE_MAX_ROW_BYTES
from repro.sim.flood import FloodKernel


def reference_neighbor_max(indptr, indices, values):
    out = np.empty_like(values)
    for v in range(indptr.shape[0] - 1):
        out[v] = values[indices[indptr[v] : indptr[v + 1]]].max(axis=0)
    return out


# (dtype, B) pairs on each side of the crossover: one-take, then per-slot.
PATHS = [
    (np.int8, 16),
    (np.int8, ONE_TAKE_MAX_ROW_BYTES),
    (np.int32, ONE_TAKE_MAX_ROW_BYTES // 4),
    (np.int16, 32),
    (np.int32, 16),
    (np.int64, 8),
]


def _check_both_paths(kernel, indptr, indices, seed):
    rng = np.random.default_rng(seed)
    for dtype, batch in PATHS:
        values = rng.integers(0, 120, size=(kernel.n, batch)).astype(dtype)
        want = reference_neighbor_max(indptr, indices, values)
        got = kernel.neighbor_max_stacked(values)
        assert got.dtype == dtype
        assert np.array_equal(got, want), (dtype, batch)
        out = np.empty_like(values)
        assert kernel.neighbor_max_stacked(values, out=out) is out
        assert np.array_equal(out, want), (dtype, batch)


def test_one_take_path_is_taken_for_narrow_rows():
    net = build_small_world(64, 8, seed=1)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    values = np.ones((64, 16), dtype=np.int8)
    kernel.neighbor_max_stacked(values)
    assert kernel._take is not None
    (dtype, batch), flat, scratch = kernel._take
    assert (dtype, batch) == (np.dtype(np.int8), 16)
    assert flat.shape == (8 * 64,)
    assert scratch.shape == (8 * 64, 16) and scratch.dtype == np.int8
    kernel.invalidate_plans()
    assert kernel._take is None
    # A wide row never builds the take plan.
    kernel.neighbor_max_stacked(np.ones((64, 16), dtype=np.int32))
    assert kernel._take is None


@pytest.mark.parametrize("new_n", [96, 64])
def test_update_csr_drops_the_take_scratch(new_n):
    # 96: a different n (the scratch shape changes); 64: the same n with a
    # different adjacency (only the flat columns change).
    first = build_small_world(64, 8, seed=2)
    kernel = FloodKernel(first.h.indptr, first.h.indices, backend="numpy")
    _check_both_paths(kernel, first.h.indptr, first.h.indices, seed=0)
    # Leave the cache keyed like the first gather after the re-point, so
    # a plan kept across update_csr would be reused, not rebuilt.
    dtype, batch = PATHS[0]
    kernel.neighbor_max_stacked(np.ones((first.n, batch), dtype=dtype))
    assert kernel._take is not None

    second = build_small_world(new_n, 8, seed=3)
    kernel.update_csr(second.h.indptr, second.h.indices)
    assert kernel._take is None
    _check_both_paths(kernel, second.h.indptr, second.h.indices, seed=1)


@pytest.mark.parametrize("dtype", [np.int8, np.int32])
def test_out_may_alias_values(dtype):
    # int8 rows take the one-take path, int32 rows (64 bytes) the per-slot.
    net = build_small_world(64, 8, seed=4)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    values = np.random.default_rng(5).integers(0, 120, size=(64, 16)).astype(dtype)
    want = reference_neighbor_max(net.h.indptr, net.h.indices, values)
    assert kernel.neighbor_max_stacked(values, out=values) is values
    assert np.array_equal(values, want)
