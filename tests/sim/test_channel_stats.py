"""Statistical checks of the channel's counter-based draws.

Each test runs :class:`~repro.sim.channel.ChannelState` over at least
``10**6`` (cell, row, round) draws at fixed seeds and compares what the
channel did with what :class:`~repro.sim.channel.ChannelModel` promises.
Every acceptance region is exact for i.i.d. draws with the model's
probabilities, sized so that a correct channel fails a test with
probability at most ``ALPHA = 1e-6`` (split evenly between the two tails
of a two-sided binomial region):

* **drop fraction** — the number of dropped values among ``N`` sends is
  ``Binomial(N, loss_p)``; it must lie in ``[lo, hi]`` with
  ``P(X < lo) <= ALPHA / 2`` and ``P(X > hi) <= ALPHA / 2``;
* **conditional corrupt fraction** — among the ``M`` delivered values, a
  hit changes the value unless its offset is ``0``, so the number changed
  is ``Binomial(M, noise_p * 2 amp / (2 amp + 1))`` given ``M``; same
  two-sided region.  Values sit far from both clamps, so a nonzero offset
  always shows;
* **offset histogram** — with ``noise_p = 1`` every delivered value is
  hit, and the ``2 amp + 1`` offset counts must pass a chi-square
  goodness-of-fit test against uniform at level ``ALPHA``;
* **independence of neighbours** — drop indicators of disjoint pairs of
  adjacent rows, and of consecutive rounds, at ``loss_p = 1/2`` must fill
  the four outcomes uniformly (chi-square, 3 degrees of freedom, level
  ``ALPHA``).  This is what a hash that leaked its counter lattice would
  fail.

The model's probabilities hold up to the channel's ``2**-32``
quantization (of the thresholds on its 32-bit hash, and of each offset's
share of the corruption window), far below what ``10**6`` draws can
resolve.  The asymptotic chi-square level is accurate here: every
expected cell count exceeds ``10**5``.
"""

import numpy as np
import pytest
from scipy import stats

from repro.sim.channel import ChannelModel, ChannelState

ALPHA = 1e-6
ROWS, COLS, ROUNDS = 4096, 32, 8  # 1,048,576 draws per test


def run_channel(model, values, *, seed):
    """Corrupt ``values`` for ROUNDS rounds; one slot per column."""
    slots = [
        (c, 0, ROWS, np.random.default_rng([seed, c])) for c in range(COLS)
    ]
    state = ChannelState(model, slots)
    return np.stack([state.corrupt(values).copy() for _ in range(ROUNDS)])


def assert_binomial(count, n, p):
    lo = stats.binom.ppf(ALPHA / 2, n, p)
    hi = stats.binom.isf(ALPHA / 2, n, p)
    assert lo <= count <= hi, f"{count} outside [{lo}, {hi}] for Bin({n}, {p})"


def assert_uniform(counts):
    counts = np.asarray(counts, dtype=np.float64)
    stat, _ = stats.chisquare(counts)
    limit = stats.chi2.isf(ALPHA, counts.size - 1)
    assert stat <= limit, f"chi-square {stat:.2f} > {limit:.2f} for {counts}"


VALUES = np.full((ROWS, COLS), 1000, dtype=np.int32)


@pytest.mark.parametrize(
    "model, seed",
    [
        (ChannelModel(loss_p=0.15, noise_p=0.05, noise_amp=2), 1),
        (ChannelModel(loss_p=0.4, noise_p=0.3, noise_amp=1), 2),
        (ChannelModel(loss_p=0.02, noise_p=0.9, noise_amp=5), 3),
    ],
)
def test_drop_and_conditional_corrupt_fractions(model, seed):
    out = run_channel(model, VALUES, seed=seed)
    dropped = out == 0
    assert_binomial(int(dropped.sum()), out.size, model.loss_p)
    delivered = int(out.size - dropped.sum())
    changed = int(np.count_nonzero((out != 1000) & ~dropped))
    amp = model.noise_amp
    assert_binomial(changed, delivered, model.noise_p * 2 * amp / (2 * amp + 1))


@pytest.mark.parametrize("amp, seed", [(2, 4), (3, 5)])
def test_offset_histogram_is_uniform(amp, seed):
    out = run_channel(ChannelModel(noise_p=1.0, noise_amp=amp), VALUES, seed=seed)
    offsets = out.astype(np.int64) - 1000
    assert np.abs(offsets).max() <= amp
    assert_uniform(np.bincount((offsets + amp).ravel(), minlength=2 * amp + 1))


def test_adjacent_rows_and_rounds_drop_independently():
    out = run_channel(ChannelModel(loss_p=0.5), VALUES, seed=6)
    dropped = (out == 0).astype(np.int64)
    rows = 2 * dropped[:, 0::2] + dropped[:, 1::2]
    rounds = 2 * dropped[0::2] + dropped[1::2]
    for pairs in (rows, rounds):
        assert_uniform(np.bincount(pairs.ravel(), minlength=4))
