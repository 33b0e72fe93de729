"""Lossy / noisy message channels for the flooding kernels.

Every scenario the engines ran before this module was synchronous and
lossless: a transmitted value always arrived intact.  :class:`ChannelModel`
adds the two classic impairments as a first-class sweep axis:

* **message loss** — each transmitting node's outgoing value is dropped
  (replaced by silence) for one round with probability ``loss_p``,
  independently per (node, round, trial);
* **corruption noise** — each transmitted *nonzero* value is perturbed by
  an additive offset drawn uniformly from ``[-noise_amp, +noise_amp]``
  with probability ``noise_p``, again per (node, round, trial); corrupted
  values are clamped to ``>= 1`` so a noisy message can never masquerade
  as the silence sentinel ``0``.

Determinism contract
--------------------
The channel randomness comes from the same stream-splitting discipline as
every other consumer of randomness (:mod:`repro.sim.rng`): each trial's
channel stream is the **third spawned child** of the trial's root
generator (``make_rng(seed)``), after the color stream (child 0) and the
adversary stream (child 1).  That generator is read **once per phase**:
when the engine builds the phase's :class:`ChannelState`, every live
trial draws one ``uint64`` *key* from it, in slot order.  The round-level
draws are then a stateless counter-based hash, evaluated for the whole
``(rows, B)`` block at once:

* the cell at row ``r`` of its own segment ``[lo, hi)``, in round ``t``
  of the phase (the ``t``-th ``corrupt()`` call, from 0), reads position
  ``i = t * 2**32 + (r - lo)`` of the splitmix64 sequence keyed by its
  key: ``h = mix(key + i * GAMMA)`` (all mod ``2**64``, ``mix`` the
  splitmix64 finalizer).  ``GAMMA`` is odd, so distinct ``(t, r)`` pairs
  of one cell never share a counter;
* the one 64-bit value ``h`` drives both impairments, which are mutually
  exclusive (a dropped value is silence, and noise only touches nonzero
  values): the value is dropped when ``h < loss_p * 2**64`` and corrupted
  when it falls in the next ``(1 - loss_p) * noise_p * 2**64`` values, so
  ``P(drop) = loss_p`` and ``P(corrupt | delivered) = noise_p`` up to
  ``2**-64`` threshold quantization;
* a corrupted value's offset comes from a second mix, ``mix(h + GAMMA)``,
  whose top 32 bits are mapped by multiply-shift onto
  ``[-noise_amp, +noise_amp]`` (each offset's probability is within
  ``2**-32`` of ``1 / (2 * noise_amp + 1)``).

A cell's draws depend only on its key, its round, and its row within its
*own* network, never on its column, its block offset in a union stack, or
the batch width.  Every entry point builds one state per phase from the
same live cells, so each cell draws the same keys in the same phases:
lossy runs are bit-for-bit equal whichever cells share the batch, and
shard boundaries in sweeps cannot perturb them.  Trials stop drawing keys
exactly when they leave the live batch, matching what a per-trial
sequential run would draw.

A null channel (``loss_p == 0`` and no effective noise) is normalized to
``None`` before it ever reaches an engine, so lossless runs execute the
exact pre-channel code path and stay bit-for-bit equal to the historical
engine output.

The corruption is applied to a scratch *copy* of the transmitted state
before the backend-dispatched gather (see
:meth:`repro.sim.flood.FloodKernel.neighbor_max_stacked`), so both kernel
backends (numpy and numba) receive identical corrupted inputs and agree
bit for bit by construction.  The dense per-round work runs in place in
buffers set up on a state's first ``corrupt()`` call; only the sparse
noise fix-up (the hit positions, a few percent of the block) allocates
per round, so the engines' no-alloc round-loop discipline (reprolint
R003) still stops at the ``corrupt()`` call boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .._types import AnyArray

__all__ = ["MAX_NOISE_AMP", "ChannelModel", "ChannelState", "ChannelSlot"]

#: One live trial's view of the channel: ``(col, lo, hi, rng)`` — the
#: trial's column in the engine's ``(rows, B)`` state, its row segment
#: ``[lo, hi)`` (its network's block segment of the union stack — the
#: whole matrix for a single-network batch), and its dedicated channel
#: generator (read once, for the cell's key, when the state is built).
ChannelSlot = tuple[int, int, int, np.random.Generator]

#: Largest ``noise_amp`` the offset draw supports: multiply-shift maps 32
#: hash bits onto ``2 * noise_amp + 1 <= 2**32`` offsets without overflowing
#: 64-bit arithmetic.  A larger offset could only saturate the int32 clamp.
MAX_NOISE_AMP = 2**31 - 1

_TWO64 = 1 << 64
#: splitmix64's Weyl increment (odd, so ``i -> key + i * GAMMA`` is a
#: bijection mod 2**64) and its finalizer's multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(h: AnyArray, tmp: AnyArray) -> AnyArray:
    """splitmix64's finalizer, in place on the ``uint64`` array ``h``.

    ``tmp`` is scratch of ``h``'s shape; returns ``h``.
    """
    np.right_shift(h, 30, out=tmp)
    np.bitwise_xor(h, tmp, out=h)
    np.multiply(h, _MIX1, out=h)
    np.right_shift(h, 27, out=tmp)
    np.bitwise_xor(h, tmp, out=h)
    np.multiply(h, _MIX2, out=h)
    np.right_shift(h, 31, out=tmp)
    np.bitwise_xor(h, tmp, out=h)
    return h


@dataclass(frozen=True)
class ChannelModel:
    """An i.i.d. per-(node, round, trial) loss / corruption channel.

    ``loss_p`` is the probability that a node's outgoing value is dropped
    for one round; ``noise_p`` the probability that a transmitted nonzero
    value is corrupted by an additive offset uniform in
    ``[-noise_amp, +noise_amp]`` (clamped to ``>= 1``); ``noise_amp`` is at
    most :data:`MAX_NOISE_AMP`.  The dataclass is frozen and plain-data, so
    it pickles into sweep task tuples and rides shared-memory handles the
    same way ``kernel_backend`` does.
    """

    loss_p: float = 0.0
    noise_p: float = 0.0
    noise_amp: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.loss_p) <= 1.0:
            raise ValueError(f"loss_p must be in [0, 1], got {self.loss_p!r}")
        if not 0.0 <= float(self.noise_p) <= 1.0:
            raise ValueError(f"noise_p must be in [0, 1], got {self.noise_p!r}")
        if int(self.noise_amp) != self.noise_amp or int(self.noise_amp) < 0:
            raise ValueError(
                f"noise_amp must be a non-negative integer, got {self.noise_amp!r}"
            )
        if int(self.noise_amp) > MAX_NOISE_AMP:
            raise ValueError(
                f"noise_amp must be at most {MAX_NOISE_AMP}, got {self.noise_amp!r}"
            )

    @property
    def is_null(self) -> bool:
        """True when the channel provably changes nothing."""
        return self.loss_p == 0.0 and (self.noise_p == 0.0 or self.noise_amp == 0)


def _normalize_channel(channel: ChannelModel | None) -> ChannelModel | None:
    """Typed validation for engine entry points.

    Returns ``None`` for a null channel so the engines run their exact
    lossless code path (the bit-for-bit guarantee), and rejects anything
    that is not a :class:`ChannelModel` with a :class:`TypeError` before
    any array state is touched.
    """
    if channel is None:
        return None
    if not isinstance(channel, ChannelModel):
        raise TypeError(
            f"channel must be a ChannelModel or None, got {type(channel).__name__}"
        )
    return None if channel.is_null else channel


class ChannelState:
    """Realizes a :class:`ChannelModel`'s per-round draws for one batch.

    Engines build one per phase from the live trials' slots and hand it to
    the kernels (``neighbor_max_stacked(..., channel=state)``); building it
    draws each slot's key, and every kernel call then corrupts a scratch
    copy of the transmitted values with one round of hashed draws (see the
    module docstring).  The hash counters, the mask of cells outside every
    slot and the per-round buffers are laid out on the first ``corrupt()`` call and
    reused until the live shape changes; the scratch copy is also
    reallocated when the state dtype changes (lazy int64 widening).
    """

    __slots__ = (
        "_model",
        "_slots",
        "_keys",
        "_drop_below",
        "_hit_width",
        "_round",
        "_bufs",
        "_scratch",
        "_limit",
        "_span",
    )

    def __init__(self, model: ChannelModel, slots: list[ChannelSlot]) -> None:
        self._model = model
        self._slots = slots
        self._keys = [
            int(rng.integers(_TWO64, dtype=np.uint64)) for *_, rng in slots
        ]
        # Integer thresholds on the 64-bit hash: drop when h < drop_below,
        # corrupt when drop_below <= h < drop_below + hit_width.  Both are
        # exact floors of the real-valued bounds (Fraction is exact on a
        # float), so loss_p == 1 drops every value.
        self._drop_below = int(Fraction(model.loss_p) * _TWO64)
        self._hit_width = (
            int(Fraction(model.noise_p) * (_TWO64 - self._drop_below))
            if model.noise_amp > 0
            else 0
        )
        self._round = 0
        self._bufs: tuple[AnyArray, ...] | None = None
        self._scratch: AnyArray | None = None
        # The scratch dtype's maximum (set with the scratch) and the
        # offset span ``2 amp + 1``: per-round constants of _add_noise.
        self._limit = 0
        self._span = np.uint64(2 * int(model.noise_amp) + 1)

    @property
    def model(self) -> ChannelModel:
        return self._model

    def _layout(self, shape: tuple[int, ...]) -> tuple[AnyArray, ...]:
        """``(base, dead, hash, tmp, mask)`` buffers for a ``shape`` block.

        ``base`` holds each live cell's round-0 hash counter and ``dead``
        marks the cells outside every slot; the rest is per-round scratch.
        """
        base = np.zeros(shape, dtype=np.uint64)
        dead = np.ones(shape, dtype=bool)
        for (col, lo, hi, _rng), key in zip(self._slots, self._keys):
            rows = np.arange(hi - lo, dtype=np.uint64)
            base[lo:hi, col] = np.multiply(rows, _GAMMA) + np.uint64(key)
            dead[lo:hi, col] = False
        tmp = np.empty(shape, dtype=np.uint64)
        return base, dead, np.empty_like(tmp), tmp, np.empty(shape, dtype=bool)

    def corrupt(self, values: AnyArray) -> AnyArray:
        """Return a channel-corrupted copy of ``values`` (one round's draws).

        ``values`` itself is never written — engine metering that charges
        *attempted* transmissions keeps reading the caller's buffer — and
        cells outside the live slots are copied unchanged.  The returned
        array is this state's internal scratch: valid until the next
        ``corrupt()`` call, which is exactly the lifetime of one kernel
        gather.
        """
        bufs = self._bufs
        if bufs is None or bufs[0].shape != values.shape:
            bufs = self._bufs = self._layout(values.shape)
        base, dead, h, tmp, mask = bufs
        scratch = self._scratch
        if (
            scratch is None
            or scratch.shape != values.shape
            or scratch.dtype != values.dtype
        ):
            scratch = np.empty(values.shape, dtype=values.dtype)
            self._scratch = scratch
            self._limit = int(np.iinfo(scratch.dtype).max)

        # Round t reads counter position t * 2**32 + row of each cell.
        step = ((self._round << 32) * _GAMMA) % _TWO64
        self._round += 1
        np.add(base, np.uint64(step), out=h)
        _mix(h, tmp)

        drop_below = self._drop_below
        if drop_below:
            # Multiplying by the keep mask copies and drops in one pass.
            np.greater(h, drop_below - 1, out=mask)
            np.logical_or(mask, dead, out=mask)
            np.multiply(values, mask, out=scratch)
        else:
            np.copyto(scratch, values)
        if self._hit_width:
            # drop_below <= h < drop_below + width, as one wrapped compare.
            np.subtract(h, np.uint64(drop_below), out=tmp)
            np.less_equal(tmp, self._hit_width - 1, out=mask)
            self._add_noise(scratch, h, dead, np.flatnonzero(mask))
        return scratch

    def _add_noise(
        self, scratch: AnyArray, h: AnyArray, dead: AnyArray, idx: AnyArray
    ) -> None:
        """Offset the live nonzero values at flat positions ``idx``."""
        flat = scratch.reshape(-1)
        vals = flat[idx]
        hit = vals > 0
        hit &= ~dead.reshape(-1)[idx]
        idx = idx[hit]
        if not idx.size:
            return
        vals = vals[hit].astype(np.int64)
        draw = h.reshape(-1)[idx] + np.uint64(_GAMMA)
        _mix(draw, np.empty_like(draw))
        offsets = ((draw >> np.uint64(32)) * self._span >> np.uint64(32)).astype(
            np.int64
        )
        offsets -= int(self._model.noise_amp)
        # Clamp into [1, dtype max] without overflowing int64: a corrupted
        # value can never masquerade as silence (0) or wrap negative.
        vals = np.minimum(vals, self._limit - np.maximum(offsets, 0)) + offsets
        np.maximum(vals, 1, out=vals)
        flat[idx] = vals
