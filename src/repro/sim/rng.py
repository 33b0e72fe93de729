"""Deterministic random-stream management.

All randomness in the library flows through :class:`numpy.random.Generator`
instances produced here.  Experiments and protocol runs derive *named* child
streams from a root seed so that adding a new consumer of randomness never
perturbs the draws seen by existing consumers (the classic "stream splitting"
discipline from parallel RNG practice).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn", "spawn_seed", "stream", "derive_seed"]

#: Fixed application-level salt so repro streams are distinct from any other
#: library that also spawns from the raw user seed.
_APP_SALT = 0x5EED_CAFE


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (OS entropy).  Integer seeds are salted so that
    ``make_rng(0)`` differs from ``numpy.random.default_rng(0)``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence([_APP_SALT, int(seed)]))


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` statistically independent child generators."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return rng.spawn(n)


def spawn_seed(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """``spawn(make_rng(seed), n)`` without building the root generator.

    An integer seed's children come straight from its salted
    :class:`~numpy.random.SeedSequence`, which is what ``Generator.spawn``
    spawns from, so the streams are bit for bit the same while the root's
    PCG64 state is never set up.  A ``Generator`` or ``None`` seed goes
    through :func:`make_rng` and :func:`spawn` unchanged (a ``Generator``
    seed's child counter advances exactly as before).
    """
    if isinstance(seed, np.random.Generator) or seed is None:
        return spawn(make_rng(seed), n)
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    children = np.random.SeedSequence([_APP_SALT, int(seed)]).spawn(n)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def stream(seed: int, *key: int | str) -> np.random.Generator:
    """Return the named child stream ``key`` of root ``seed``.

    ``stream(seed, "colors", phase)`` always yields the same generator for
    the same arguments, independent of any other stream ever created.
    String components are hashed stably (FNV-1a over UTF-8).
    """
    words = [_APP_SALT, int(seed)]
    for part in key:
        words.append(_fnv1a(part.encode()) if isinstance(part, str) else int(part))
    return np.random.default_rng(np.random.SeedSequence(words))


def derive_seed(seed: int, *key: int | str) -> int:
    """Derive a 63-bit integer sub-seed from ``seed`` and a key path."""
    return int(stream(seed, *key).integers(0, 2**63 - 1))


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFF
