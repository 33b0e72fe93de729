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
        ("f0b1407f36ad8c64", "315c41d014e45ed3", 164, 116968, 0, 0, 0, 0),
        ("22d2e84d58c1c1e6", "dbb7718c6d2eaf1a", 115, 84432, 0, 0, 0, 0),
        ("eeb04a986d457969", "c94d27ac3a7c7fdc", 115, 84072, 0, 0, 0, 0),
        ("7fb2327c08cec0a2", "1df4438cec84eec5", 228, 278576, 0, 0, 0, 0),
        ("1c13fda367ac1fc9", "b8b0bcc4c07b68fe", 228, 264800, 0, 0, 0, 0),
        ("01bd2ed938833b1a", "e6bd765b7afe1b7b", 164, 193672, 0, 0, 0, 0),
    ],
    "early-stop-lossy": [
        ("0a58cf748fec7730", "8eda8ce345241294", 114146, 369638150, 331011248, 8, 0, 0),
        ("36a36ea7c71cf8a2", "88f0c3c23d1cad93", 114146, 369820486, 331147312, 8, 0, 0),
        ("c94e43a077505280", "3285afb257d60805", 114146, 369811318, 331268784, 8, 0, 0),
    ],
    "mobile-lossless": [
        ("7550bad9b3911def", "833c3352f6f9f972", 239, 840374, 877616, 8, 0, 0),
        ("c5cbc653ee68e2b7", "ac5aab908dc5d46e", 347, 1030006, 1038896, 8, 0, 0),
        ("20da7d3552fd8c0e", "8abdb4a2852d0b9e", 347, 1039694, 1049264, 8, 0, 0),
    ],
    "mobile-lossy-union": [
        ("00870c1c9b818608", "78d26acf588fb10d", 686, 1920824, 1823040, 8, 0, 0),
        ("985be93fa4f8c9d1", "2c367804b17ff374", 686, 1793784, 1704640, 8, 0, 0),
        ("04927fd61ff243f5", "74134977d542f288", 929, 4387990, 4197552, 8, 0, 0),
        ("6a198b6cb9de5d2a", "69430e59bd3bd347", 686, 3165542, 3078320, 8, 0, 0),
    ],
    "traffic-adaptive-lossless-union": [
        ("bd4ebd8c31b80f46", "604f93f409962cdf", 164, 500104, 522176, 8, 0, 0),
        ("9b082cc9e7c0368f", "4490ab353d6473ad", 239, 611432, 619456, 8, 0, 0),
        ("ea6564015a497687", "1207024d26948fca", 239, 1075534, 1153584, 8, 0, 0),
        ("f32de12e04b3f586", "493f7d41035b088f", 239, 1095558, 1172016, 8, 0, 0),
    ],
    "traffic-adaptive-lossy": [
        ("3e461e046a9cf2bd", "e909e422a29e00f7", 494, 1876718, 1832624, 8, 0, 0),
        ("d4f4cd2715790fa3", "2b6dccbafe16c08a", 347, 1384774, 1379888, 8, 0, 0),
        ("bded07ade8365d53", "b485afcb5a377e22", 494, 1924542, 1872304, 8, 0, 0),
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
