"""Golden churn pins: fixed seeded delta sequences hash to recorded values.

``tests/graphs/test_delta.py`` checks that a snapshot equals a cold
rebuild *from its own cycles*; that cannot notice a change in which
cycles a delta produces.  These pins can: each sequence below replays a
fixed list of ``(leaves, joins)`` deltas from a fixed churn stream and
hashes, after every delta, the snapshot's ``h.cycles``, ``g_indptr``,
``g_indices`` and ``g_dist`` plus the :class:`AppliedDelta` report.  The
digests were recorded from the incremental pointer-splice implementation
and must not change: they pin the splice, the id compaction and the
anchor draw order (one ``integers(n_current)`` per join, then per cycle).
"""

import copy
import hashlib

import numpy as np
import pytest

from repro.graphs import ResidentGraph, build_small_world, hgraph_from_cycles
from repro.sim.rng import make_rng


def _rotated_network():
    """An adopted network whose cycles do not start at node 0."""
    gen = np.random.default_rng(2024)
    cycles = np.stack([gen.permutation(30) for _ in range(3)])
    assert (cycles[:, 0] != 0).all()
    return build_small_world(30, 6, h=hgraph_from_cycles(cycles))


#: name -> (network factory, churn stream seed, [(leaves, joins), ...])
SEQUENCES = {
    "d4": (
        lambda: build_small_world(60, 4, seed=11),
        101,
        [([3, 17, 59], 4), ([0], 0), ([], 6), ([5, 6, 7, 8, 40], 2), ([61], 1)],
    ),
    "d6": (
        lambda: build_small_world(52, 6, seed=12),
        102,
        [([51, 1, 26], 3), ([0, 10, 20, 30], 5), ([], 2), ([49, 50], 0)],
    ),
    "d8": (
        lambda: build_small_world(70, 8, seed=13),
        103,
        [([69, 68, 2], 5), ([], 4), ([0, 1, 72, 73], 3), ([33], 1)],
    ),
    "d6-many-joins": (
        lambda: build_small_world(12, 6, seed=14),
        104,
        [([1, 2], 9), ([0, 15, 18], 6), ([], 12)],
    ),
    "adopted-rotated": (
        _rotated_network,
        105,
        [([], 0), ([4, 29], 3), ([0, 7, 30], 2)],
    ),
}

GOLDEN = {
    "adopted-rotated": {
        "cycles": "18a1f973a1c25297ad66b787b7064f34f0459716305b98398ed41a637fe7c044",
        "g_indptr": "7a5da243c5de39e9c7adb0d4073b84d0a3ab01bbb9f709a43005892184fd7c47",
        "g_indices": "038f2215af168191854e6d21d2fb6476ead0839c0da80d76c926067ba5c0cfaa",
        "g_dist": "eae63f0895d99f57d444847e4324445df8c47ad94f741ac85b2faf7233700e9b",
        "applied": "7bf028ec8c30e523ff003015ead9a880548b4b38267f9d8eeacf3002962c27e3",
    },
    "d4": {
        "cycles": "b9fa4ed1621293e1f35d7aea78ee5762f03488ee2bfc5221953eda2f6d9ec4de",
        "g_indptr": "a828e0f40748f8f8f547b9b64125eb1b371de9139681e3e0beb9135b7676b869",
        "g_indices": "0106486a2160fba4ca830c5e9cec5d58e348616244e88ea1f9d7cdca2f3c55bc",
        "g_dist": "4ef63a15e0d99902fc6baf67162e5a2b9cd80a9958a7badf466addd96f4f53af",
        "applied": "2cffe624bf1411b773eb5a229c951af7abe2543f1ce14da22f7e7c1be4e0af5e",
    },
    "d6": {
        "cycles": "454f9ef98ccf1b4c5dfeebb6ed2e5a7993e179e5bc002a0818bd6265d0d6d028",
        "g_indptr": "33f340d4765969c3d7f9525498926fa0836c2a9ca3082f596928f92833f3a371",
        "g_indices": "0e4fe58f42dc5ec9d59c440033d023ca37b822d064d3841288881684f734dfc0",
        "g_dist": "6dfdd8d813e0956548fe5a918d26bde47514a56f7d738b40e99773cd8d5ebe79",
        "applied": "80b45d97a4b95d34375442f9286fb2ec47146be4b446532910772e6e11de70ab",
    },
    "d6-many-joins": {
        "cycles": "28c830e4350166c156752ee65906ce6228d366743c6a13afd7ed22374277c646",
        "g_indptr": "e9d290d90a3f3e44b2f51e6e7aeb08244acc505d42856c4a97783293c2fc8416",
        "g_indices": "b15e030ecc8c8e29a542216bc132f18bdc15a51e369ac790ae3fee5193e1b000",
        "g_dist": "73e753c4a5d95bad10f8a6902f4044f7abf78bab186bc4351d593e3d1e126b42",
        "applied": "4aef28dd0ae5afd62a617fc3f5c79c23c969219a0558a793ccba1e49a5f3830e",
    },
    "d8": {
        "cycles": "9f909404f3ac11cce318ebf2a3c4ca0f29373b4a4a97ce8f2ee35b95951d90cc",
        "g_indptr": "0c663dbf51c06b7ff01416999fa99d496a890717d3d82aba37bac1c5c5fd1fc8",
        "g_indices": "3a13cd8c92b615c61e9d3f9e2c47375d78253a4ba280cf4d7c6b00d1f5b6cce6",
        "g_dist": "0da4c9629082f606f23368908bea2c485cc61cb8d2f4709aa6f1fe58ca4f8ef7",
        "applied": "47730420a7249291a4cec2fd9e0599ae320cb69f3fd7fab47547070c16100025",
    },
}

_ARRAYS = ("cycles", "g_indptr", "g_indices", "g_dist")


def _replay(name):
    """Yield ``(rg, applied, anchors)`` after each delta of one sequence.

    ``anchors`` are the per-join, per-cycle anchors the delta draws,
    replayed from a copy of the churn stream taken just before it.
    """
    factory, rng_seed, deltas = SEQUENCES[name]
    rg = ResidentGraph.from_network(factory())
    rng = make_rng(rng_seed)
    half = rg.d // 2
    for leaves, joins in deltas:
        probe = copy.deepcopy(rng)
        n_live = rg.n - len(leaves)
        anchors = [
            [int(probe.integers(n_live + j)) for _ in range(half)]
            for j in range(joins)
        ]
        applied = rg.apply_delta(leaves, joins, rng)
        yield rg, applied, anchors


def _digests(name):
    hashes = {key: hashlib.sha256() for key in (*_ARRAYS, "applied")}
    for rg, applied, _ in _replay(name):
        snap = rg.snapshot()
        arrays = (snap.h.cycles, snap.g_indptr, snap.g_indices, snap.g_dist)
        for key, arr in zip(_ARRAYS, arrays):
            hashes[key].update(str(arr.shape).encode())
            hashes[key].update(np.ascontiguousarray(arr).tobytes())
        report = (
            applied.left,
            applied.joined,
            sorted(applied.relabeled.items()),
            snap.n,
        )
        hashes["applied"].update(repr(report).encode())
    return {key: h.hexdigest() for key, h in hashes.items()}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_golden_churn_digests(name):
    assert _digests(name) == GOLDEN[name]


def test_sequences_cover_joins_anchored_on_joiners():
    # At least one join in the pinned sequences lands after a node that
    # joined earlier in the same delta, so the pins cover chained joins.
    hits = 0
    for name in SEQUENCES:
        for rg, applied, anchors in _replay(name):
            first_joiner = applied.joined[0] if applied.joined else rg.n
            hits += sum(a >= first_joiner for row in anchors for a in row)
    assert hits > 0
