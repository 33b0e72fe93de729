"""Microbenchmarks of the library's computational kernels.

These are the pieces whose throughput determines how large an ``n`` the
experiment suite can reach: graph sampling, the vectorized flooding round,
and full protocol runs (Algorithm 1 and Algorithm 2).

The backend grid at the bottom times one batched flooding round
(``neighbor_max_stacked``, the engine hot path) on a d-regular H-graph
for every kernel backend that is available on this machine (numpy
always; numba when importable), at int32 and at int8, the two ends of the
engines' usual state-dtype ladder.  At ``GRID_B = 32`` the numpy
backend's slot-major take fills its 512 KiB scratch in 1 run (int8) or
2 runs (int32) at n = 1024, and in 2 or 8 runs at n = 4096.  A wide
int32 case at n = 16384, B = 64 (64 runs) records the chunked path on a
state far past the cap.
"""

import numpy as np
import pytest

from repro.adversary import placement_for_delta
from repro.core import (
    CountingConfig,
    make_adversary,
    run_basic_counting,
    run_byzantine_counting,
)
from repro.graphs import build_small_world, generate_hgraph
from repro.sim.backends import available_backends
from repro.sim.flood import FloodKernel

N = 1024
D = 8

#: Backend grid scales.
GRID_NS = (1024, 4096)
GRID_B = 32

#: The wide case: an int32 state whose gather spans many scratch runs.
WIDE_N = 16384
WIDE_B = 64


@pytest.fixture(scope="module")
def net():
    return build_small_world(N, D, seed=3)


def test_bench_hgraph_generation(benchmark):
    g = benchmark(generate_hgraph, N, D, 5)
    assert g.n == N


def test_bench_small_world_build(benchmark):
    net = benchmark.pedantic(build_small_world, args=(N, D), kwargs={"seed": 5},
                             rounds=2, iterations=1)
    assert net.k == 3


def test_bench_flood_round(benchmark, net):
    kernel = FloodKernel(net.h.indptr, net.h.indices)
    values = np.random.default_rng(0).integers(1, 30, size=N)

    result = benchmark(kernel.neighbor_max, values)
    assert result.shape == (N,)


def test_bench_algorithm1(benchmark, net):
    result = benchmark.pedantic(
        run_basic_counting, args=(net,), kwargs={"seed": 7}, rounds=3, iterations=1
    )
    assert result.fraction_decided() == 1.0


def test_bench_algorithm2_early_stop(benchmark, net):
    byz = placement_for_delta(net, 0.5, rng=2)
    cfg = CountingConfig(max_phase=24)

    def run():
        return run_byzantine_counting(
            net, make_adversary("early-stop"), byz, config=cfg, seed=7
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.fraction_decided() == 1.0


def test_bench_algorithm2_inflation(benchmark, net):
    byz = placement_for_delta(net, 0.5, rng=2)
    cfg = CountingConfig(max_phase=24)

    def run():
        return run_byzantine_counting(
            net, make_adversary("inflation"), byz, config=cfg, seed=7
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.injections_rejected > 0


# ----------------------------------------------------------------------
# Backend grid: one stacked flooding round per combination.
# ----------------------------------------------------------------------


def _bench_stacked_round(benchmark, n, batch, dtype, backend):
    reg = build_small_world(n, D, seed=3)
    kernel = FloodKernel(reg.h.indptr, reg.h.indices, backend=backend)
    rng = np.random.default_rng(0)
    values = rng.integers(1, 30, size=(n, batch), dtype=dtype)
    out = np.empty_like(values)
    kernel.neighbor_max_stacked(values, out=out)  # warm (JIT-compiles numba)

    result = benchmark(kernel.neighbor_max_stacked, values, out=out)
    assert result.shape == (n, batch)


@pytest.mark.parametrize("n", GRID_NS)
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("dtype", [np.int32, np.int8], ids=["int32", "int8"])
def test_bench_stacked_round_grid(benchmark, dtype, backend, n):
    _bench_stacked_round(benchmark, n, GRID_B, dtype, backend)


@pytest.mark.parametrize("backend", available_backends())
def test_bench_stacked_round_wide(benchmark, backend):
    _bench_stacked_round(benchmark, WIDE_N, WIDE_B, np.int32, backend)
