"""Microbenchmarks of the library's computational kernels.

These are the pieces whose throughput determines how large an ``n`` the
experiment suite can reach: graph sampling, the vectorized flooding round,
and full protocol runs (Algorithm 1 and Algorithm 2).

The backend x layout grid at the bottom times one batched flooding round
(``neighbor_max_stacked``, the engine hot path) for every registered
kernel backend that is available on this machine (numpy always; numba
when importable) against both CSR layouts the backends must cover:

* **regular** — a uniform-degree H-graph: the numpy backend's one-take
  gather for int8 state, its per-slot row-gather path for int32;
* **ragged** — a block-diagonal union of two different-degree networks,
  the general ``reduceat`` / CSR-walk path the union stack uses when
  degrees differ.

Each cell runs at int32 and at int8, the two ends of the engines' usual
state-dtype ladder.
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
from repro.sim.flood import FloodKernel, UnionFloodKernel

N = 1024
D = 8

#: backend x layout grid scales (ISSUE: reference microbenchmark sizes).
GRID_NS = (1024, 4096)
GRID_B = 32


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
# Backend x layout grid: one stacked flooding round per combination.
# ----------------------------------------------------------------------


def _grid_kernel(layout: str, n: int, backend: str) -> FloodKernel:
    if layout == "regular":
        reg = build_small_world(n, D, seed=3)
        return FloodKernel(reg.h.indptr, reg.h.indices, backend=backend)
    # Ragged: two half-size blocks at different degrees, so no uniform
    # degree exists and the general reduceat / CSR-walk path runs.
    nets = [
        build_small_world(n // 2, D, seed=3),
        build_small_world(n // 2, 6, seed=4),
    ]
    return UnionFloodKernel.from_networks(nets, backend=backend)


@pytest.mark.parametrize("n", GRID_NS)
@pytest.mark.parametrize("layout", ["regular", "ragged"])
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("dtype", [np.int32, np.int8], ids=["int32", "int8"])
def test_bench_stacked_round_grid(benchmark, dtype, backend, layout, n):
    # int8 is the honest engines' state dtype: at GRID_B = 32 its rows are
    # 32 bytes, which the numpy backend gathers with one np.take.
    kernel = _grid_kernel(layout, n, backend)
    rng = np.random.default_rng(0)
    values = rng.integers(1, 30, size=(kernel.n, GRID_B), dtype=dtype)
    out = np.empty_like(values)
    kernel.neighbor_max_stacked(values, out=out)  # warm (JIT-compiles numba)

    result = benchmark(kernel.neighbor_max_stacked, values, out=out)
    assert result.shape == (kernel.n, GRID_B)
