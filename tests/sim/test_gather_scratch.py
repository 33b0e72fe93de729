"""The numpy backend's chunked take and the lifetime of its scratch.

The numpy backend gathers an ``(n, B)`` state in runs of nodes, one
``np.take`` of every neighbor slot per run into a scratch cached on the
kernel, capped at ``TAKE_SCRATCH_BYTES``; states under the cap are one
run.  The scratch and the run-ordered neighbor columns are functions of
the current CSR, so re-pointing a kernel (``update_csr``) must drop them —
a stale scratch sized for the old ``n``, or stale columns of the old
adjacency, would silently gather the wrong rows.
"""

import numpy as np
import pytest
from flood_reference import reference_neighbor_max

from repro.graphs import build_small_world
from repro.sim.backends import numpy_backend
from repro.sim.flood import FloodKernel

#: Every rung of the batched engines' color-state dtype ladder.
LADDER_DTYPES = [np.int8, np.int16, np.int32, np.int64]

#: (dtype, B) pairs of one row of each ladder width.
SHAPES = [(np.int8, 16), (np.int8, 32), (np.int16, 32), (np.int32, 16), (np.int64, 8)]


def _check_shapes(kernel, indptr, indices, seed):
    rng = np.random.default_rng(seed)
    for dtype, batch in SHAPES:
        values = rng.integers(0, 120, size=(kernel.n, batch)).astype(dtype)
        want = reference_neighbor_max(indptr, indices, values)
        got = kernel.neighbor_max_stacked(values)
        assert got.dtype == dtype
        assert np.array_equal(got, want), (dtype, batch)
        out = np.empty_like(values)
        assert kernel.neighbor_max_stacked(values, out=out) is out
        assert np.array_equal(out, want), (dtype, batch)


def _runs(kernel):
    """How many runs the last gather took, from the cached plan."""
    return len(kernel._take[1])


def test_benchmarked_states_take_one_run():
    # The largest state of the benchmarked workloads: the n = 1024 + 2048
    # union stack at B = 16 in int8.
    net = build_small_world(3072, 8, seed=1)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    kernel.neighbor_max_stacked(np.ones((3072, 16), dtype=np.int8))
    assert _runs(kernel) == 1
    (dtype, batch, _), [(cols, span, stack, lo, hi)] = kernel._take
    assert (dtype, batch, lo, hi) == (np.dtype(np.int8), 16, 0, 3072)
    assert cols.shape == (8 * 3072,) and np.shares_memory(cols, kernel._cols())
    assert span.shape == (8 * 3072, 16) and span.dtype == np.int8
    assert stack.shape == (8, 3072, 16) and np.shares_memory(stack, span)
    kernel.invalidate_plans()
    assert kernel._take is None


@pytest.mark.parametrize("dtype", LADDER_DTYPES)
@pytest.mark.parametrize("alias", [False, True], ids=["fresh-out", "out-is-values"])
def test_chunked_runs_match_reference(monkeypatch, dtype, alias):
    # A cap of 4 state rows per run cuts n = 66 into 17 runs, the last one
    # short; every ladder dtype must gather exactly, also in place.
    net = build_small_world(66, 8, seed=6)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    batch = 5
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(numpy_backend, "TAKE_SCRATCH_BYTES", 4 * 8 * batch * itemsize)
    values = np.random.default_rng(itemsize).integers(
        -100, 120, size=(66, batch)
    ).astype(dtype)
    want = reference_neighbor_max(net.h.indptr, net.h.indices, values)
    out = values if alias else np.empty_like(values)
    assert kernel.neighbor_max_stacked(values, out=out) is out
    assert _runs(kernel) == 17
    assert np.array_equal(out, want)
    assert [hi - lo for _, _, _, lo, hi in kernel._take[1]] == [4] * 16 + [2]


def test_chunked_runs_on_strided_views(monkeypatch):
    # Column slices of wider matrices: the take reads strided rows and
    # each run writes a strided slice of ``out``.
    net = build_small_world(66, 8, seed=7)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    monkeypatch.setattr(numpy_backend, "TAKE_SCRATCH_BYTES", 4 * 8 * 3 * 4)
    wide = np.random.default_rng(8).integers(0, 120, size=(66, 8)).astype(np.int32)
    values = wide[:, 2:5]
    out = np.zeros((66, 6), dtype=np.int32)[:, ::2]
    assert kernel.neighbor_max_stacked(values, out=out) is out
    assert _runs(kernel) >= 3
    assert np.array_equal(
        out, reference_neighbor_max(net.h.indptr, net.h.indices, values)
    )


def test_zero_column_state():
    net = build_small_world(64, 8, seed=9)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    got = kernel.neighbor_max_stacked(np.zeros((64, 0), dtype=np.int8))
    assert got.shape == (64, 0) and got.dtype == np.int8


@pytest.mark.parametrize("new_n", [96, 64])
def test_update_csr_drops_the_take_scratch(new_n):
    # 96: a different n (the scratch shape changes); 64: the same n with a
    # different adjacency (only the flat columns change).
    first = build_small_world(64, 8, seed=2)
    kernel = FloodKernel(first.h.indptr, first.h.indices, backend="numpy")
    _check_shapes(kernel, first.h.indptr, first.h.indices, seed=0)
    # Leave the cache keyed like the first gather after the re-point, so
    # a plan kept across update_csr would be reused, not rebuilt.
    dtype, batch = SHAPES[0]
    kernel.neighbor_max_stacked(np.ones((first.n, batch), dtype=dtype))
    assert kernel._take is not None

    second = build_small_world(new_n, 8, seed=3)
    kernel.update_csr(second.h.indptr, second.h.indices)
    assert kernel._take is None
    _check_shapes(kernel, second.h.indptr, second.h.indices, seed=1)


@pytest.mark.parametrize("dtype", [np.int8, np.int32])
def test_out_may_alias_values(dtype):
    net = build_small_world(64, 8, seed=4)
    kernel = FloodKernel(net.h.indptr, net.h.indices, backend="numpy")
    values = np.random.default_rng(5).integers(0, 120, size=(64, 16)).astype(dtype)
    want = reference_neighbor_max(net.h.indptr, net.h.indices, values)
    assert kernel.neighbor_max_stacked(values, out=values) is values
    assert np.array_equal(values, want)
