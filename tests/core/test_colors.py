"""Unit tests for geometric color machinery (Observations 4-5)."""

import numpy as np
import pytest

from repro.core.colors import (
    color_pmf,
    color_sf,
    expected_max_color,
    max_color_cdf,
    sample_color_columns,
    sample_colors,
)
from repro.sim.rng import make_rng


class TestSampling:
    def test_support_positive(self):
        colors = sample_colors(make_rng(0), 10_000)
        assert colors.min() >= 1

    def test_mean_close_to_two(self):
        colors = sample_colors(make_rng(1), 50_000)
        assert colors.mean() == pytest.approx(2.0, rel=0.05)

    def test_empty(self):
        assert sample_colors(make_rng(0), 0).shape == (0,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_colors(make_rng(0), -1)

    def test_tail_matches_observation4(self):
        colors = sample_colors(make_rng(2), 100_000)
        # Pr[c > 3] = 1/8 (Observation 4.5).
        assert np.mean(colors > 3) == pytest.approx(0.125, abs=0.01)


class TestMatchesNumpyGeometric:
    """``sample_colors`` is numpy's ``geometric(0.5)`` stream, bit for bit."""

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    @pytest.mark.parametrize("size", [1, 7, 4096, 300_000])
    def test_values_and_stream_position(self, bitgen, size):
        ours = np.random.Generator(bitgen(size))
        ref = np.random.Generator(bitgen(size))
        got = sample_colors(ours, size)
        want = ref.geometric(0.5, size=size)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # Both consumed the same draws: the next read agrees.
        assert ours.integers(1 << 62) == ref.integers(1 << 62)

    def test_successive_calls_follow_one_stream(self):
        ours, ref = make_rng(11), make_rng(11)
        got = np.concatenate([sample_colors(ours, k) for k in (3, 0, 500, 1)])
        np.testing.assert_array_equal(got, ref.geometric(0.5, size=504))

    def test_every_boundary_against_the_search_loop(self):
        """Uniforms at and beside each ``1 - 2**-x`` map like numpy's loop."""

        def search(u: float) -> int:  # numpy's random_geometric_search, p = 1/2
            x, total, prob = 1, 0.5, 0.5
            while u > total:
                prob *= 0.5
                total += prob
                x += 1
            return x

        us = [0.0, 2.0**-53, 0.25, 0.5 - 2.0**-53]
        for k in range(1, 54):
            edge = 1.0 - 2.0**-k
            us += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
        us = np.array([u for u in us if 0.0 <= u < 1.0])

        class Fixed:
            def random(self, size: int) -> np.ndarray:
                assert size == us.size
                return us.copy()

        got = sample_colors(Fixed(), us.size)  # type: ignore[arg-type]
        assert got.max() == 53
        np.testing.assert_array_equal(got, [search(float(u)) for u in us])


class TestColorColumns:
    """Column ``j`` of ``sample_color_columns`` is ``sample_colors(rngs[j])``."""

    @pytest.mark.parametrize("size", [0, 1, 45, 2048])
    def test_columns_and_stream_positions(self, size):
        ours = [make_rng(s) for s in (3, 4, 5)]
        ref = [make_rng(s) for s in (3, 4, 5)]
        got = sample_color_columns(ours, size)
        assert got.shape == (size, 3) and got.dtype == np.int64
        for j, rng in enumerate(ref):
            np.testing.assert_array_equal(got[:, j], sample_colors(rng, size))
        for a, b in zip(ours, ref):
            assert a.integers(1 << 62) == b.integers(1 << 62)

    def test_no_streams(self):
        assert sample_color_columns([], 4).shape == (4, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_color_columns([make_rng(0)], -1)


class TestDistributionFunctions:
    def test_pmf_sums_to_one(self):
        rs = np.arange(1, 60)
        assert color_pmf(rs).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_pmf_value(self, r):
        assert color_pmf(r) == pytest.approx(0.5**r)

    def test_sf_identity(self):
        # Pr[c > r] = 1 - sum_{j<=r} pmf(j).
        for r in (1, 3, 7):
            total = sum(color_pmf(j) for j in range(1, r + 1))
            assert color_sf(r) == pytest.approx(1 - total)

    def test_pmf_zero_below_support(self):
        assert color_pmf(0) == 0.0

    def test_max_cdf_observation5(self):
        # Pr[max <= r] = (1 - 2^-r)^m.
        assert max_color_cdf(3, 10) == pytest.approx((1 - 0.125) ** 10)

    def test_max_cdf_monotone_in_r(self):
        values = [max_color_cdf(r, 64) for r in range(1, 12)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_max_cdf_requires_m(self):
        with pytest.raises(ValueError):
            max_color_cdf(2, 0)


class TestExpectedMax:
    def test_single_node(self):
        assert expected_max_color(1) == pytest.approx(2.0, rel=1e-3)

    def test_grows_like_log(self):
        e16 = expected_max_color(16)
        e256 = expected_max_color(256)
        # log2(256/16) = 4 more nodes-doublings => roughly +4.
        assert 3.0 <= e256 - e16 <= 5.0

    def test_monte_carlo_agreement(self):
        rng = make_rng(3)
        sims = [sample_colors(rng, 128).max() for _ in range(2000)]
        assert np.mean(sims) == pytest.approx(expected_max_color(128), rel=0.03)
