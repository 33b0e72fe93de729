"""ResidentEngine: warm caches change speed, never results.

The soak test is the tentpole contract: N epochs of churn driven through
the resident engine produce estimation results bit-for-bit equal to cold
per-epoch runs (fresh network object, fresh kernel, stock batch entry
point) — decisions, estimates, crash sets, meters, and injection
counters all included.
"""

import numpy as np
import pytest

from repro.adversary import InflationAdversary, random_placement
from repro.core.batch import run_counting_batch, run_counting_multinet
from repro.core.config import CountingConfig
from repro.core.sweep import run_multi_sweep
from repro.graphs import build_small_world, hgraph_from_cycles
from repro.service import ChurnDelta, ResidentEngine, SizeQuery
from repro.sim.flood import FloodKernel, UnionFloodKernel
from repro.sim.rng import derive_seed, make_rng

CFG = CountingConfig(max_phase=12)
SEEDS = list(range(6))


def assert_trial_equal(a, b):
    assert np.array_equal(a.decided_phase, b.decided_phase)
    assert np.array_equal(a.crashed, b.crashed)
    assert np.array_equal(a.byz, b.byz)
    assert a.meter.as_dict() == b.meter.as_dict()
    assert list(a.trace) == list(b.trace)
    assert a.injections_accepted == b.injections_accepted
    assert a.injections_rejected == b.injections_rejected


def cold_copy(net):
    """An independent rebuild of ``net`` (no shared arrays or caches)."""
    return build_small_world(net.n, net.d, h=hgraph_from_cycles(net.h.cycles), k=net.k)


class TestKernelAdoption:
    """Warm kernels passed through ``kernel=``: same results, validated."""

    def test_adopted_kernels_bit_for_bit(self):
        nets = [build_small_world(40, 4, seed=s) for s in range(3)]
        trial_nets = [nets[i % 3] for i in range(7)]
        seeds = list(range(7))
        cold = run_counting_multinet(trial_nets, seeds, config=CFG)
        warm_kernel = UnionFloodKernel.from_networks(nets)
        for _ in range(2):  # the second call reuses the warm gather plans
            warm = run_counting_multinet(
                trial_nets, seeds, config=CFG, kernel=warm_kernel
            )
            for a, b in zip(cold, warm):
                assert_trial_equal(a, b)

    def test_one_block_kernel_keeps_its_plans(self):
        # A plain FloodKernel runs as a one-block union: no CSR copy and
        # no gather-plan rebuild between calls.
        net = build_small_world(40, 4, seed=1)
        kernel = FloodKernel(net.h.indptr, net.h.indices)
        cold = run_counting_batch(net, SEEDS, config=CFG)
        first = run_counting_batch(net, SEEDS, config=CFG, kernel=kernel)
        plan, indices = kernel._neighbor_cols, kernel.indices
        again = run_counting_batch(net, SEEDS, config=CFG, kernel=kernel)
        assert plan is not None and kernel._neighbor_cols is plan
        assert kernel.indices is indices
        for a, b, c in zip(cold, first, again):
            assert_trial_equal(a, b)
            assert_trial_equal(a, c)

    def test_adoption_validation(self):
        nets = [build_small_world(40, 4, seed=s) for s in range(2)]
        union = UnionFloodKernel.from_networks(nets)
        with pytest.raises(ValueError, match="not both"):
            run_counting_multinet(nets, [1, 2], kernel=union, backend="numpy")
        with pytest.raises(ValueError, match="block sizes"):
            run_counting_multinet(nets[:1], [1], kernel=union)
        other = build_small_world(40, 4, seed=9)
        stale = FloodKernel(other.h.indptr, other.h.indices)
        with pytest.raises(ValueError, match="update_csr"):
            run_counting_batch(nets[0], [1], kernel=stale)


class TestSoak:
    """N epochs of churn: resident results == cold per-epoch results."""

    def test_epochs_under_churn_equal_cold_runs(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("east", n=72, d=4, seed=1)
        engine.add_overlay("west", n=56, d=4, seed=2)
        rng = make_rng(derive_seed(11, "soak"))
        for epoch in range(5):
            for name in engine.overlay_names():
                warm = engine.run_epoch(name, SEEDS)
                cold = run_counting_batch(
                    cold_copy(engine.network(name)), SEEDS, config=CFG
                )
                for a, b in zip(warm, cold):
                    assert_trial_equal(a, b)
            # Churn both overlays before the next epoch.
            for name in engine.overlay_names():
                n = engine.network(name).n
                leaves = rng.choice(n, size=int(rng.integers(1, 5)), replace=False)
                joins = int(rng.integers(0, 5))
                engine.apply_churn(name, ChurnDelta(tuple(leaves), joins), rng)
                assert engine.version(name) == epoch + 1

    def test_byzantine_epoch_after_churn(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("o", n=64, d=4, seed=3)
        rng = make_rng(7)
        engine.apply_churn("o", ChurnDelta.replace((1, 2, 3)), rng)
        net = engine.network("o")
        mask = random_placement(net.n, 5, rng=make_rng(4))
        warm = engine.run_epoch(
            "o", SEEDS, adversary_factory=InflationAdversary, byz_mask=mask
        )
        cold = run_counting_batch(
            cold_copy(net),
            SEEDS,
            config=CFG,
            adversary_factory=InflationAdversary,
            byz_mask=mask,
        )
        for a, b in zip(warm, cold):
            assert_trial_equal(a, b)


class TestServe:
    def test_mixed_query_batch_matches_direct_runs(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("a", n=48, d=4, seed=1)
        engine.add_overlay("b", n=40, d=4, seed=2)
        mask = random_placement(48, 4, rng=make_rng(5))
        queries = [
            SizeQuery("b", 10),
            SizeQuery("a", 11),
            SizeQuery("b", 12, config=CountingConfig(max_phase=9)),
            SizeQuery("a", 13, strategy=InflationAdversary, byz_mask=mask),
        ]
        results = engine.serve(queries)
        assert len(results) == len(queries)
        for q, r in zip(queries, results):
            ref = run_counting_batch(
                cold_copy(engine.network(q.overlay)),
                [q.seed],
                config=q.config or CFG,
                adversary_factory=q.strategy,
                byz_mask=q.byz_mask,
            )[0]
            assert_trial_equal(r, ref)

    def test_serve_reuses_cached_union_stack_until_churn(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("a", n=40, d=4, seed=1)
        engine.add_overlay("b", n=48, d=4, seed=2)
        engine.serve([SizeQuery("a", 1), SizeQuery("b", 2)])
        (key1,) = engine._tuple_cache
        stack1 = engine._tuple_cache[key1]
        engine.serve([SizeQuery("a", 3), SizeQuery("b", 4)])
        assert list(engine._tuple_cache) == [key1]  # hit, not rebuild
        assert engine._tuple_cache[key1] is stack1
        engine.serve([SizeQuery("b", 7)])  # one overlay: its warm kernel
        assert list(engine._tuple_cache) == [key1]
        engine.apply_churn("a", ChurnDelta(joins=1), make_rng(0))
        assert not engine._tuple_cache  # the stale stack is evicted at once
        results = engine.serve([SizeQuery("a", 5), SizeQuery("b", 6)])
        (key2,) = engine._tuple_cache  # the new version gets its own entry
        assert key2 != key1
        for q, r in zip([SizeQuery("a", 5), SizeQuery("b", 6)], results):
            ref = run_counting_batch(
                cold_copy(engine.network(q.overlay)), [q.seed], config=CFG
            )[0]
            assert_trial_equal(r, ref)

    def test_unknown_overlay_raises(self):
        engine = ResidentEngine(config=CFG)
        with pytest.raises(KeyError, match="unknown overlay"):
            engine.serve([SizeQuery("ghost", 1)])
        with pytest.raises(KeyError):
            engine.run_epoch("ghost", SEEDS)


class TestSweep:
    def test_cached_union_payload_matches_cold_sweep(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("a", n=40, d=4, seed=1)
        engine.add_overlay("b", n=48, d=4, seed=2)
        engine.apply_churn("b", ChurnDelta.replace((0,)), make_rng(3))
        warm = engine.sweep(seeds=range(4))
        cold = run_multi_sweep(
            [cold_copy(engine.network(nm)) for nm in engine.overlay_names()],
            seeds=range(4),
        )
        assert len(warm.results) == len(cold.results)
        for a, b in zip(warm.results, cold.results):
            assert_trial_equal(a, b)
        # Payload is cached per version: a second sweep reuses the stack.
        (key,) = engine._tuple_cache
        engine.sweep(seeds=range(2))
        assert list(engine._tuple_cache) == [key]


class TestLifecycle:
    def test_duplicate_overlay_rejected(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("a", n=40, d=4, seed=1)
        with pytest.raises(ValueError, match="already registered"):
            engine.add_overlay("a", n=40, d=4, seed=1)

    def test_remove_overlay_evicts_caches(self):
        engine = ResidentEngine(config=CFG)
        engine.add_overlay("a", n=40, d=4, seed=1)
        engine.add_overlay("b", n=40, d=4, seed=2)
        engine.serve([SizeQuery("a", 1), SizeQuery("b", 2)])
        engine.sweep(seeds=range(2))
        assert engine._tuple_cache
        engine.remove_overlay("a")
        assert not engine._tuple_cache
        assert engine.overlay_names() == ("b",)
