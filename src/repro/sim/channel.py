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
draws are then a stateless counter-based 32-bit hash, evaluated for the
whole ``(rows, B)`` block at once (all arithmetic mod ``2**32``):

* the cell at row ``r`` of its own segment ``[lo, hi)``, in round ``t``
  of the phase (the ``t``-th ``corrupt()`` call, from 0), has counter
  ``c = (r - lo) + t * (hi - lo)`` and hashes
  ``h = lowbias32(uint32(key) + c * G32)``, where ``uint32(key)`` is the
  key's low 32 bits, ``G32 = 0x9E3779B9`` and ``lowbias32(x)`` is
  ``x ^= x >> 16; x *= 0x7FEB352D; x ^= x >> 15; x *= 0x846CA68B;
  x ^= x >> 16``.  ``G32`` is odd and ``lowbias32`` is a bijection, so
  distinct counters of one cell give distinct hashes.  Counters are
  distinct while ``rounds * (hi - lo) <= 2**32``: a state runs at most
  ``2**32 // (hi - lo)`` rounds for its longest segment, and asking for
  more (up front through ``rounds=``, or with one ``corrupt()`` call too
  many) raises :class:`ChannelCounterError` before anything is drawn;
* the one 32-bit value ``h`` drives both impairments, which are mutually
  exclusive (a dropped value is silence, and noise only touches nonzero
  values): with ``D = floor(loss_p * 2**32)`` the value is dropped when
  ``h < D``, and with ``W = floor(noise_p * (2**32 - D))`` it is corrupted
  when ``D <= h < D + W``, so ``P(drop) = loss_p`` and
  ``P(corrupt | delivered) = noise_p`` up to ``2**-32`` threshold
  quantization (``loss_p = 1`` drops and ``noise_p = 1`` corrupts every
  value exactly);
* a corrupted value's offset is where ``h`` sits in its window, scaled
  onto ``[-noise_amp, +noise_amp]``:
  ``(h - D) * (2 * noise_amp + 1) // W - noise_amp``.  Each offset takes
  ``floor`` or ``ceil`` of ``W / (2 * noise_amp + 1)`` of the window's
  values, so every (corrupt, offset) outcome has its model probability
  ``(1 - loss_p) * noise_p / (2 * noise_amp + 1)`` up to the same
  ``2**-32`` quantization, and no second hash is needed.

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
``uint32`` buffers set up on a state's first ``corrupt()`` call (in memory
handed over from the previous phase's state); only the sparse noise
fix-up (the hit positions, a few percent of the block) allocates per
round, so the engines' no-alloc round-loop discipline (reprolint R003)
still stops at the ``corrupt()`` call boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .._types import AnyArray

__all__ = [
    "MAX_NOISE_AMP",
    "ChannelCounterError",
    "ChannelModel",
    "ChannelState",
    "ChannelSlot",
]

#: One live trial's view of the channel: ``(col, lo, hi, rng)`` — the
#: trial's column in the engine's ``(rows, B)`` state, its row segment
#: ``[lo, hi)`` (its network's block segment of the union stack — the
#: whole matrix for a single-network batch), and its dedicated channel
#: generator (read once, for the cell's key, when the state is built).
ChannelSlot = tuple[int, int, int, np.random.Generator]

#: Largest ``noise_amp`` the offset draw supports: it scales a window
#: position below ``2**32`` by ``2 * noise_amp + 1 <= 2**32`` without
#: overflowing 64-bit arithmetic.  A larger offset could only saturate the
#: int32 clamp.
MAX_NOISE_AMP = 2**31 - 1

_TWO32 = 1 << 32
#: The counter's Weyl increment (odd, so ``c -> key + c * G32`` is a
#: bijection mod 2**32) and lowbias32's multipliers.
_G32 = 0x9E3779B9
_LB1 = np.uint32(0x7FEB352D)
_LB2 = np.uint32(0x846CA68B)


class ChannelCounterError(ValueError):
    """A phase would run a cell's 32-bit hash counter past ``2**32``.

    Raised before any generator read or draw: the counters of one cell
    are distinct only while ``rounds * (hi - lo) <= 2**32``.
    """


def _lowbias32(x: AnyArray, out: AnyArray, tmp: AnyArray) -> AnyArray:
    """lowbias32 of the ``uint32`` array ``x`` into ``out``; returns ``out``.

    ``tmp`` is scratch of ``x``'s shape; ``out`` may be ``x`` itself.
    """
    np.right_shift(x, 16, out=tmp)
    np.bitwise_xor(x, tmp, out=out)
    np.multiply(out, _LB1, out=out)
    np.right_shift(out, 15, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.multiply(out, _LB2, out=out)
    np.right_shift(out, 16, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    return out


def _hit_positions(words: AnyArray) -> AnyArray:
    """``np.flatnonzero`` of the zero-padded bool buffer ``words``.

    A few percent of the cells are hits, spread at random: numpy's sparse
    nonzero scan then pays a branch miss per hit.  Scanning the buffer as
    ``uint64`` words first leaves a dense enough remainder (the nonzero
    words) for its branch-free path: 34 against 58 us on a 49k-cell block
    with 4% hits.
    """
    packed = words.view(np.uint64)
    nonzero = np.flatnonzero(packed != 0)
    j = np.flatnonzero(packed[nonzero].view(bool))
    return (nonzero[j >> 3] << 3) | (j & 7)


@dataclass(frozen=True)
class ChannelModel:
    """An i.i.d. per-(node, round, trial) loss / corruption channel.

    ``loss_p`` is the probability that a node's outgoing value is dropped
    for one round; ``noise_p`` the probability that a transmitted nonzero
    value is corrupted by an additive offset uniform in
    ``[-noise_amp, +noise_amp]`` (clamped to ``>= 1``); ``noise_amp`` is at
    most :data:`MAX_NOISE_AMP`.  The dataclass is frozen and plain-data, so
    it pickles into sweep task tuples.  Like the kernel backend, it
    reaches the engines only as their ``channel=`` argument.
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


class _Buffers(NamedTuple):
    """One phase's per-block buffers, laid out on the first ``corrupt()``.

    ``ctr`` holds each live cell's current hash counter and ``step`` its
    per-round advance ``(hi - lo) * G32`` (both arbitrary outside the
    slots); ``dead`` and ``live`` mark the cells outside and inside every
    slot (both ``None`` when every cell is live).  The rest is per-round
    scratch; ``hit`` is a view of the zero-padded ``words``.
    """

    ctr: AnyArray
    step: AnyArray
    dead: AnyArray | None
    live: AnyArray | None
    h: AnyArray
    tmp: AnyArray
    keep: AnyArray
    hit: AnyArray
    words: AnyArray


class ChannelState:
    """Realizes a :class:`ChannelModel`'s per-round draws for one batch.

    Engines build one per phase from the live trials' slots and hand it to
    the kernels (``neighbor_max_stacked(..., channel=state)``); building it
    draws each slot's key, and every kernel call then corrupts a scratch
    copy of the transmitted values with one round of hashed draws (see the
    module docstring).  ``rounds``, when given, is the number of
    ``corrupt()`` calls the caller will make; a phase whose counters would
    wrap raises :class:`ChannelCounterError` before any key is drawn.  The
    hash counters, their per-round steps, the mask of cells inside a slot
    and the per-round buffers are laid out on the first ``corrupt()`` call
    and again whenever the block's shape changes; the scratch copy is also
    reallocated when the state dtype changes (lazy int64 widening).
    ``reuse`` hands over the backing memory of the previous phase's state,
    which then lays out afresh if it is ever called again: consecutive
    phases refill the same pages instead of faulting in new ones.
    """

    __slots__ = (
        "_model",
        "_slots",
        "_keys",
        "_drop_below",
        "_hit_below",
        "_round",
        "_max_rounds",
        "_store",
        "_bufs",
        "_scratch",
        "_limit",
        "_span",
    )

    def __init__(
        self,
        model: ChannelModel,
        slots: list[ChannelSlot],
        rounds: int | None = None,
        *,
        reuse: ChannelState | None = None,
    ) -> None:
        longest = max((hi - lo for _, lo, hi, _ in slots), default=1)
        self._max_rounds = _TWO32 // max(longest, 1)
        if rounds is not None and rounds > self._max_rounds:
            raise ChannelCounterError(
                f"{rounds} rounds over a {longest}-row segment exceed the "
                f"2**32 hash counters of one phase (at most {self._max_rounds})"
            )
        self._model = model
        self._slots = slots
        # One raw 64-bit word per slot: the same bits, and the same stream
        # position, as ``rng.integers(2**64, dtype=np.uint64)``.
        self._keys = [rng.bit_generator.random_raw() for *_, rng in slots]
        # Integer thresholds on the 32-bit hash: drop when h < drop_below,
        # corrupt when drop_below <= h < hit_below.  Both are exact floors
        # of the real-valued bounds (Fraction is exact on a float), so
        # loss_p == 1 drops and noise_p == 1 corrupts every value.
        self._drop_below = int(Fraction(model.loss_p) * _TWO32)
        width = (
            int(Fraction(model.noise_p) * (_TWO32 - self._drop_below))
            if model.noise_amp > 0
            else 0
        )
        self._hit_below = self._drop_below + width
        self._round = 0
        self._store: tuple[AnyArray, AnyArray] | None = None
        if reuse is not None:
            self._store, reuse._store, reuse._bufs = reuse._store, None, None
        self._bufs: _Buffers | None = None
        self._scratch: AnyArray | None = None
        # The scratch dtype's maximum (set with the scratch) and the
        # offset span ``2 amp + 1``: per-round constants of _add_noise.
        self._limit = 0
        self._span = np.uint64(2 * int(model.noise_amp) + 1)

    @property
    def model(self) -> ChannelModel:
        return self._model

    def _layout(self, shape: tuple[int, ...]) -> _Buffers:
        """This round's buffers for a ``shape`` block (see :class:`_Buffers`).

        Views into the state's backing store, grown when too small.  The
        counters start at the current round, so a shape change mid-phase
        keeps every cell's stream.
        """
        cells = int(np.prod(shape))
        padded = -(-cells // 8) * 8
        store = self._store
        if store is None or store[0].shape[1] < padded:
            store = self._store = (
                np.empty((4, padded), dtype=np.uint32),
                np.empty((4, padded), dtype=bool),
            )
        ctr, step, h, tmp = (row[:cells].reshape(shape) for row in store[0])
        live, dead, keep = (row[:cells].reshape(shape) for row in store[1][:3])
        words = store[1][3, :padded]
        # ``hit`` heads a zero-padded run of whole 8-byte words, which
        # _hit_positions scans a word at a time.
        words[cells:] = False
        live.fill(False)
        # One row-band write per distinct segment (a union block's cells
        # share one), contiguous where per-slot column writes are strided.
        # Counters outside the slots are arbitrary, so only bands that
        # share rows with another band need masking to their columns.
        bands: dict[tuple[int, int], AnyArray] = {}
        for (col, lo, hi, _rng), key in zip(self._slots, self._keys):
            start = bands.get((lo, hi))
            if start is None:
                start = bands[lo, hi] = np.full(shape[1], -1, dtype=np.int64)
            start[col] = (key + self._round * (hi - lo) * _G32) % _TWO32
        spans = sorted(bands)
        shared = any(a[1] > b[0] for a, b in zip(spans, spans[1:]))
        for (lo, hi), start in bands.items():
            mask = start >= 0
            where = mask if shared else True
            rows = np.arange(hi - lo, dtype=np.uint32)[:, None] * np.uint32(_G32)
            np.add(rows, start.astype(np.uint32), out=ctr[lo:hi], where=where)
            np.copyto(step[lo:hi], ((hi - lo) * _G32) % _TWO32, where=where)
            live[lo:hi] |= mask
        np.logical_not(live, out=dead)
        everyone = not dead.any()
        return _Buffers(
            ctr=ctr,
            step=step,
            dead=None if everyone else dead,
            live=None if everyone else live,
            h=h,
            tmp=tmp,
            keep=keep,
            hit=words[:cells].reshape(shape),
            words=words,
        )

    def corrupt(self, values: AnyArray) -> AnyArray:
        """Return a channel-corrupted copy of ``values`` (one round's draws).

        ``values`` itself is never written — engine metering that charges
        *attempted* transmissions keeps reading the caller's buffer — and
        cells outside the live slots are copied unchanged.  The returned
        array is this state's internal scratch: valid until the next
        ``corrupt()`` call, which is exactly the lifetime of one kernel
        gather.  A call past the state's last distinct counter raises
        :class:`ChannelCounterError` and draws nothing.
        """
        if self._round >= self._max_rounds:
            raise ChannelCounterError(
                f"round {self._round} would repeat a 32-bit hash counter "
                f"(at most {self._max_rounds} rounds per phase)"
            )
        bufs = self._bufs
        if bufs is None or bufs.ctr.shape != values.shape:
            bufs = self._bufs = self._layout(values.shape)
        ctr, step, dead, live, h, tmp, keep, hit, words = bufs
        scratch = self._scratch
        if (
            scratch is None
            or scratch.shape != values.shape
            or scratch.dtype != values.dtype
        ):
            scratch = np.empty(values.shape, dtype=values.dtype)
            self._scratch = scratch
            self._limit = int(np.iinfo(scratch.dtype).max)

        # This round's hashes, then every counter moves to the next round.
        self._round += 1
        _lowbias32(ctr, h, tmp)
        np.add(ctr, step, out=ctr)

        drop_below = self._drop_below
        if drop_below:
            # Multiplying by the keep mask copies and drops in one pass.
            np.greater(h, drop_below - 1, out=keep)
            if dead is not None:
                np.logical_or(keep, dead, out=keep)
            np.multiply(values, keep, out=scratch)
        else:
            np.copyto(scratch, values)
        hit_below = self._hit_below
        if hit_below > drop_below:
            # A hit is a live delivered nonzero value with h < hit_below: a
            # dropped value is 0 in ``scratch``, so ``> 0`` also asks h >= D.
            np.greater(scratch, 0, out=hit)
            if hit_below < _TWO32:
                np.less(h, hit_below, out=keep)
                np.logical_and(hit, keep, out=hit)
            if live is not None:
                np.logical_and(hit, live, out=hit)
            self._add_noise(scratch, h, _hit_positions(words))
        return scratch

    def _add_noise(self, scratch: AnyArray, h: AnyArray, idx: AnyArray) -> None:
        """Offset the values at flat positions ``idx`` by their window position."""
        if not idx.size:
            return
        flat = scratch.reshape(-1)
        # (h - D) * span // W - amp, exact in uint64: h - D < W <= 2**32.
        offsets = np.multiply(
            h.reshape(-1)[idx] - np.uint32(self._drop_below), self._span, dtype=np.uint64
        )
        offsets //= np.uint64(self._hit_below - self._drop_below)
        offsets = offsets.view(np.int64)
        offsets -= int(self._model.noise_amp)
        # Clamp into [1, dtype max] without overflowing int64: a corrupted
        # value can never masquerade as silence (0) or wrap negative.
        vals = flat[idx]
        np.minimum(offsets, self._limit - vals, out=offsets)
        offsets += vals
        np.maximum(offsets, 1, out=offsets)
        flat[idx] = offsets
