"""Geometric token colors (Section 3.1 and Observations 4-5).

Every node flips a fair coin until heads; the number of flips is its
*color* for the subphase.  Colors are therefore geometric(1/2) random
variables, whose maxima concentrate at ``log2 m`` over ``m`` nodes — the
mechanism by which the sphere ``Bd(v, i)`` announces its size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._types import AnyArray, FloatArray, Int64Array

__all__ = [
    "sample_colors",
    "sample_color_columns",
    "color_pmf",
    "color_sf",
    "max_color_cdf",
    "expected_max_color",
]


def sample_colors(rng: np.random.Generator, size: int) -> Int64Array:
    """Draw ``size`` geometric(1/2) colors (support {1, 2, ...}).

    Bit for bit ``rng.geometric(0.5, size=size)``, stream position
    included, in a few vectorized passes.  For ``p >= 1/3`` numpy's
    geometric reads one double ``U`` per variate (the same read as
    ``rng.random``) and returns the least ``x >= 1`` with
    ``U <= 1 - 2**-x``; those sums are exact in binary64, so ``x`` is
    ``max(1, -floor(log2(1 - U)))``.  ``1 - U`` is exact too (``U`` is a
    multiple of ``2**-53``) and never subnormal, so ``-floor(log2)`` is
    ``1023`` minus its biased exponent field.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    return _colors_from_uniform(rng.random(size))


def sample_color_columns(rngs: Sequence[np.random.Generator], size: int) -> Int64Array:
    """A ``(size, len(rngs))`` matrix whose column ``j`` is bit for bit
    ``sample_colors(rngs[j], size)``, stream position included.

    Each stream is read exactly as that call reads it (``size`` doubles);
    only the color transform runs once over the whole block.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    draws = np.empty((len(rngs), size))
    for row, rng in zip(draws, rngs):
        rng.random(out=row)
    return _colors_from_uniform(draws).T


def _colors_from_uniform(draws: FloatArray) -> Int64Array:
    """Map ``rng.random`` doubles to colors in place (see :func:`sample_colors`)."""
    np.subtract(1.0, draws, out=draws)
    colors = draws.view(np.int64)  # sign bit clear: shift reads the exponent
    np.right_shift(colors, 52, out=colors)
    np.subtract(1023, colors, out=colors)
    np.maximum(colors, 1, out=colors)
    return colors


def color_pmf(r: int | AnyArray) -> float | FloatArray:
    """Observation 4.1: ``Pr[c = r] = 2^{-r}``."""
    r = np.asarray(r, dtype=np.float64)
    out = np.where(r >= 1, 0.5**r, 0.0)
    return float(out) if out.ndim == 0 else out


def color_sf(r: int | AnyArray) -> float | FloatArray:
    """Observation 4.5: ``Pr[c > r] = 2^{-r}`` (survival function)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.where(r >= 0, 0.5**r, 1.0)
    return float(out) if out.ndim == 0 else out


def max_color_cdf(r: int | AnyArray, m: int) -> float | FloatArray:
    """Observation 5.3: ``Pr[max over m nodes <= r] = (1 - 2^{-r})^m``."""
    if m < 1:
        raise ValueError("need at least one node")
    r = np.asarray(r, dtype=np.float64)
    out = np.where(r >= 1, (1.0 - 0.5**r) ** m, np.where(r >= 0, 0.0, 0.0))
    return float(out) if out.ndim == 0 else out


def expected_max_color(m: int, tail_terms: int = 128) -> float:
    """``E[max]`` over ``m`` i.i.d. geometric(1/2) colors (≈ log2 m + 0.5...).

    Computed from ``E[X] = sum_{r>=0} Pr[X > r] = sum (1 - (1-2^{-r})^m)``.
    """
    if m < 1:
        raise ValueError("need at least one node")
    r = np.arange(tail_terms, dtype=np.float64)
    return float(np.sum(1.0 - (1.0 - 0.5**r) ** m))
