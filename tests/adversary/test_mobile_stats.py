"""Statistical checks of the mobile adversary's walk law.

:class:`~repro.adversary.MobileAdversary` promises a law, not a stream:
at every adaptation point each walker, in ascending node order, steps to
a ``G``-neighbor chosen uniformly among those no earlier walker claimed
this step, and falls back to staying put (or, if its own position was
claimed, to the lowest free node) when every neighbor is claimed.  These
tests check that law at fixed seeds and the draw contract the stream
follows; none of them pins a particular destination sequence.

Every random acceptance region is sized so that a correct walk fails a
test with probability at most ``ALPHA = 1e-6``:

* **lone walker** — its destinations over ``STEPS`` steps from a fixed
  position must pass a chi-square goodness-of-fit test against uniform
  over its ``G``-neighbors at level ``ALPHA``;
* **later walker given earlier claims** — on a small dense overlay where
  collisions are common, the last walker's destination, grouped by the
  set of its neighbors the earlier walkers claimed, must be uniform over
  the unclaimed rest.  Conditional on the group sizes the per-group
  counts are independent multinomials, so the summed chi-square
  statistic is chi-square with the summed degrees of freedom; the test
  runs at level ``ALPHA``.  Groups with fewer than ``MIN_EXPECTED``
  expected draws per cell are left out, which conditions on sizes only;
* the **fallback** and the **draw contract** are exact checks.

Every expected cell count in the chi-square tests exceeds ``MIN_EXPECTED``
(at least 100), so the asymptotic level is accurate.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from repro.adversary import BatchAdaptationState, MobileAdversary
from repro.adversary.adaptive import walk_step
from repro.core import CountingConfig
from repro.graphs import build_small_world
from repro.sim.rng import spawn

ALPHA = 1e-6
STEPS = 100_000
MIN_EXPECTED = 100
CFG = CountingConfig(max_phase=4)


def assert_chisquare(stat, dof):
    limit = stats.chi2.isf(ALPHA, dof)
    assert stat <= limit, f"chi-square {stat:.2f} > {limit:.2f} on {dof} dof"


def bound_mobile(net, walkers, *, seed):
    mask = np.zeros(net.n, dtype=bool)
    mask[walkers] = True
    adv = MobileAdversary()
    adv.bind_batch(net, mask, [np.random.default_rng(seed)], CFG)
    return adv


def adaptation_state(net, walkers):
    return BatchAdaptationState(
        phase=1,
        subphase=1,
        network=net,
        byz_nodes=np.asarray(walkers, dtype=np.int64),
        trials=np.zeros(1, dtype=np.int64),
        traffic=np.zeros((net.n, 1), dtype=np.int64),
        rngs=(np.random.default_rng(0),),
    )


def test_lone_walker_is_uniform_over_its_neighbors():
    """A lone walker's destinations from one position over STEPS steps
    are uniform over its G-neighbors: chi-square at level ALPHA (false
    failure <= 1e-6); every destination is a neighbor (exact)."""
    net = build_small_world(256, 4, seed=3)
    walker = 17
    nbrs = net.g_neighbors(walker)
    adv = bound_mobile(net, [walker], seed=11)
    state = adaptation_state(net, [walker])
    dests = np.empty(STEPS, dtype=np.int64)
    for s in range(STEPS):
        mask = adv.batch_adapt(state)
        assert mask is not None
        dests[s] = int(np.flatnonzero(mask)[0])
    assert np.isin(dests, nbrs).all()
    counts = np.bincount(np.searchsorted(nbrs, dests), minlength=nbrs.shape[0])
    stat, _ = stats.chisquare(counts)
    assert_chisquare(stat, nbrs.shape[0] - 1)


@pytest.mark.parametrize(
    "walkers, seed",
    [([9, 31], 21), ([3, 9, 31], 22)],
    ids=["pair", "triple"],
)
def test_later_walker_is_uniform_over_unclaimed_neighbors(walkers, seed):
    """On a dense n=32 overlay (neighbor sets of 14-15 of 31 nodes; the
    last walker's overlaps walker 9's in 11), the last walker's
    destination given the neighbors its predecessors claimed is uniform
    over the unclaimed rest: summed per-group chi-square at level ALPHA (false failure
    <= 1e-6).  Destinations are distinct and the last walker stays on its
    neighbors (exact).  Claims reach the last walker in most steps: its
    predecessors land in its neighborhood with probability >= 11/15 per
    step, so a share under 1/2 over STEPS steps has probability below
    exp(-2 * STEPS * 0.23**2) (Hoeffding), far under 1e-6."""
    net = build_small_world(32, 4, seed=1)
    walkers = np.asarray(walkers, dtype=np.int64)
    last = int(walkers[-1])
    nbrs = net.g_neighbors(last)
    rng = np.random.default_rng(seed)
    by_claims: dict[tuple[int, ...], Counter[int]] = {}
    for _ in range(STEPS):
        dests = walk_step(net.g_indptr, net.g_indices, walkers, net.n, rng)
        assert np.unique(dests).shape[0] == walkers.shape[0]
        claims = tuple(sorted(set(dests[:-1].tolist()) & set(nbrs.tolist())))
        by_claims.setdefault(claims, Counter())[int(dests[-1])] += 1
    claimed_steps = sum(sum(c.values()) for key, c in by_claims.items() if key)
    assert claimed_steps > STEPS // 2

    stat, dof = 0.0, 0
    for claims, counter in by_claims.items():
        free = np.setdiff1d(nbrs, claims)
        assert set(counter) <= set(free.tolist())
        total = sum(counter.values())
        if total < MIN_EXPECTED * free.shape[0]:
            continue
        counts = np.asarray([counter[int(v)] for v in free], dtype=np.float64)
        stat += float(stats.chisquare(counts)[0])
        dof += free.shape[0] - 1
    assert dof >= nbrs.shape[0]  # several claim groups were tested
    assert_chisquare(stat, dof)


def star_net():
    """Center 0 with leaves 1, 2, 3, plus an isolated node 4."""
    nbrs = [[1, 2, 3], [0], [0], [0], []]
    indptr = np.cumsum([0] + [len(x) for x in nbrs]).astype(np.int64)
    indices = np.asarray([u for x in nbrs for u in x], dtype=np.int64)
    return SimpleNamespace(n=len(nbrs), g_indptr=indptr, g_indices=indices)


class TestFallback:
    """Exact checks of the all-claimed fallback on a hand-built star."""

    def test_walker_with_every_neighbor_claimed_stays_put(self):
        net = star_net()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            dests = walk_step(
                net.g_indptr, net.g_indices, np.array([1, 2]), net.n, rng
            )
            assert dests.tolist() == [0, 2]
            # No free neighbor means no redraw: only the first picks.
            twin.integers(0, np.array([1, 1]))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_claimed_own_position_takes_lowest_free_node(self):
        # The center steps to leaf L, leaf 1 takes the center, and leaf 2
        # (center claimed) stays put unless L == 2 claimed it too, when
        # it takes the lowest free node, 1.  All three leaves show up in
        # 60 steps unless one is missed, probability 3 (2/3)**60 < 1e-10.
        net = star_net()
        expect = {1: [1, 0, 2], 2: [2, 0, 1], 3: [3, 0, 2]}
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            dests = walk_step(
                net.g_indptr, net.g_indices, np.array([0, 1, 2]), net.n, rng
            ).tolist()
            assert dests == expect[dests[0]]
            seen.add(dests[0])
        assert seen == {1, 2, 3}

    def test_isolated_walker_stays_put(self):
        net = star_net()
        rng = np.random.default_rng(5)
        dests = walk_step(net.g_indptr, net.g_indices, np.array([3, 4]), net.n, rng)
        assert dests.tolist() == [0, 4]

    def test_mask_preserves_count(self):
        net = star_net()
        adv = MobileAdversary()
        mask = np.zeros(net.n, dtype=bool)
        mask[[0, 1, 2]] = True
        adv.bind_batch(net, mask, [np.random.default_rng(3)], CFG)
        for _ in range(20):
            out = adv.batch_adapt(adaptation_state(net, [0, 1, 2]))
            assert out is not None and int(out.sum()) == 3


def test_collision_free_step_is_one_vectorized_draw():
    """Walkers with pairwise disjoint neighbor sets never collide, so each
    step must advance the walk stream by exactly one vectorized
    ``integers(0, deg)`` call and land on the picks it names (exact)."""
    net = build_small_world(256, 4, seed=3)
    walkers: list[int] = []
    covered: set[int] = set()
    for v in range(net.n):
        nbrs = set(net.g_neighbors(v).tolist())
        if not nbrs & covered:
            walkers.append(v)
            covered |= nbrs
        if len(walkers) == 5:
            break
    assert len(walkers) == 5
    adv = bound_mobile(net, walkers, seed=31)
    twin = spawn(np.random.default_rng(31), 1)[0]
    starts = net.g_indptr[walkers]
    deg = net.g_indptr[np.asarray(walkers) + 1] - starts
    state = adaptation_state(net, walkers)
    for _ in range(50):
        mask = adv.batch_adapt(state)
        picks = net.g_indices[starts + twin.integers(0, deg)]
        assert adv._walk_rng.bit_generator.state == twin.bit_generator.state
        assert np.flatnonzero(mask).tolist() == sorted(picks.tolist())
