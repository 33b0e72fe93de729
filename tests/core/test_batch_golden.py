"""Golden pins for batched cells that no independent oracle checks.

The scalar runner and the agent engine implement neither the channel model
nor adaptive adversaries, so lossy and adaptive cells of the batched engine
are otherwise pinned only batch-of-1 against batch-of-B: a change to the
engine that shifted their random streams (draw order, channel slots,
adaptation points) would pass those tests unnoticed.  This module pins the
exact outcome of each such cell: a digest of every trial's decided-phase,
crashed and Byzantine vectors, its meter, a digest of its phase trace, and
its injection counters.

The cells are honest lossy on a two-block union, ``early-stop`` lossy,
``mobile`` and ``traffic-adaptive`` each lossless and lossy, and an
``inflation`` cell whose injections widen the color state past int8.

The expected values were generated by this snippet, run from the
repository root::

    PYTHONPATH=src:tests/core python -c "
    import test_batch_golden as m
    for name in m.CELLS:
        print(repr(name) + ':', m.observe(name), end=',\\n')
    "

Regenerate them only for a change that is meant to alter these streams,
and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.adversary import random_placement
from repro.core import ADVERSARIES
from repro.core.batch import run_counting_batch, run_counting_unionstack
from repro.graphs import build_small_world
from repro.sim.channel import ChannelModel

LOSSY = ChannelModel(loss_p=0.15, noise_p=0.05, noise_amp=2)


@lru_cache(maxsize=None)
def _net(n, seed):
    return build_small_world(n, 8, seed=seed)


def _single(strategy, channel):
    net = _net(128, 3)
    return run_counting_batch(
        net,
        seeds=[5, 6, 7],
        adversary_factory=ADVERSARIES[strategy],
        byz_mask=random_placement(net.n, 6, rng=1),
        channel=channel,
    )


def _union(strategy, channel):
    nets = [_net(96, 1), _net(160, 2)]
    return run_counting_unionstack(
        nets,
        seeds=[3, 4],
        adversary_factory=ADVERSARIES[strategy],
        byz_mask=[random_placement(net.n, 5, rng=g) for g, net in enumerate(nets)],
        channel=channel,
    )


CELLS = {
    "honest-lossy-union": lambda: run_counting_unionstack(
        [_net(96, 1), _net(160, 2)], seeds=[3, 4, 5], channel=LOSSY
    ),
    "early-stop-lossy": lambda: _single("early-stop", LOSSY),
    "mobile-lossless": lambda: _single("mobile", None),
    "mobile-lossy-union": lambda: _union("mobile", LOSSY),
    "traffic-adaptive-lossless-union": lambda: _union("traffic-adaptive", None),
    "traffic-adaptive-lossy": lambda: _single("traffic-adaptive", LOSSY),
    "inflation-past-int8": lambda: _single("inflation", None),
}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def observe(name):
    """One pinned tuple per trial of cell ``name``."""
    out = []
    for res in CELLS[name]():
        vectors = _digest(
            np.asarray(res.decided_phase, dtype=np.int64).tobytes(),
            np.asarray(res.crashed, dtype=bool).tobytes(),
            np.asarray(res.byz, dtype=bool).tobytes(),
        )
        trace = _digest(repr([tuple(vars(rec).values()) for rec in res.trace]).encode())
        meter = res.meter.as_dict()
        out.append(
            (
                vectors,
                trace,
                int(meter["rounds"]),
                int(meter["messages"]),
                int(meter["id_payload"]),
                int(meter["max_message_ids"]),
                res.injections_accepted,
                res.injections_rejected,
            )
        )
    return out


GOLDEN = {
    "honest-lossy-union": [
        ("f434c3920e096e59", "04b8a6f198c3918e", 115, 82568, 0, 0, 0, 0),
        ("a6d06fbcf6ee0d49", "b34b1cd8866fd85a", 115, 84264, 0, 0, 0, 0),
        ("56d9146519b9893e", "0000cbe0a7aed64d", 79, 58760, 0, 0, 0, 0),
        ("78b227227c6559d0", "33715d6e0216bda6", 228, 279744, 0, 0, 0, 0),
        ("a681f19ea77b1603", "fc0220ae8d6d38f2", 164, 200648, 0, 0, 0, 0),
        ("017871aa49637ddc", "a39f49e686a35983", 228, 266440, 0, 0, 0, 0),
    ],
    "early-stop-lossy": [
        ("7b6abcfca0c1677d", "c7214a3818ea904f", 114146, 370220734, 331678128, 8, 0, 0),
        ("9b199715a632d97f", "5ef4a3db62213cba", 114146, 369714222, 331144624, 8, 0, 0),
        ("b4f1b63a134425f8", "f3dc337acfc90c96", 114146, 368610134, 330058416, 8, 0, 0),
    ],
    "mobile-lossless": [
        ("7550bad9b3911def", "833c3352f6f9f972", 239, 840374, 877616, 8, 0, 0),
        ("c5cbc653ee68e2b7", "ac5aab908dc5d46e", 347, 1030006, 1038896, 8, 0, 0),
        ("20da7d3552fd8c0e", "8abdb4a2852d0b9e", 347, 1039694, 1049264, 8, 0, 0),
    ],
    "mobile-lossy-union": [
        ("33c0b8c1879f696a", "4e3cf64601d2423f", 347, 986968, 968256, 8, 0, 0),
        ("88f20aeb26bbdd4b", "3dab2c235363e698", 686, 1855552, 1763008, 8, 0, 0),
        ("d1288c7ccd68ed52", "d1f3a274838a620d", 929, 4330670, 4138800, 8, 0, 0),
        ("3df2624b6e473d30", "355783a74ad312e3", 929, 4364886, 4173360, 8, 0, 0),
    ],
    "traffic-adaptive-lossless-union": [
        ("bd4ebd8c31b80f46", "604f93f409962cdf", 164, 500104, 522176, 8, 0, 0),
        ("9b082cc9e7c0368f", "4490ab353d6473ad", 239, 611432, 619456, 8, 0, 0),
        ("ea6564015a497687", "1207024d26948fca", 239, 1075534, 1153584, 8, 0, 0),
        ("f32de12e04b3f586", "493f7d41035b088f", 239, 1095558, 1172016, 8, 0, 0),
    ],
    "traffic-adaptive-lossy": [
        ("cdae3d9f09ca83f9", "58cf744122035f06", 494, 1860630, 1816368, 8, 0, 0),
        ("268d1df111766539", "ce2ede445657e11e", 347, 1343862, 1340080, 8, 0, 0),
        ("a7f2a201c43ef124", "3f8e4c4fe9ddae5a", 686, 2479958, 2384432, 8, 0, 0),
    ],
    "inflation-past-int8": [
        ("36dd7aed7d24cfc1", "7613bc0cd494b0f7", 239, 961742, 999088, 8, 50, 29),
        ("36dd7aed7d24cfc1", "7613bc0cd494b0f7", 239, 959438, 996784, 8, 50, 29),
        ("36dd7aed7d24cfc1", "7613bc0cd494b0f7", 239, 956238, 993584, 8, 50, 29),
    ],
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(name):
    assert observe(name) == GOLDEN[name]
