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
The channel draws come from the same stream-splitting discipline as every
other consumer of randomness (:mod:`repro.sim.rng`): each trial's channel
stream is the **third spawned child** of the trial's root generator
(``make_rng(seed)``), after the color stream (child 0) and the adversary
stream (child 1).  Per round, a live trial draws, in fixed order:

1. one ``(rows,)`` uniform block for the drop mask (only when
   ``loss_p > 0``), then
2. one ``(rows,)`` uniform block for the corruption mask and one
   ``(rows,)`` integer block for the offsets (only when ``noise_p > 0``
   and ``noise_amp > 0``),

where ``rows`` is the trial's *own* network size.  Because the draws are
per trial and sized by the trial's network, the batched engine's three
entry points (single-network batch, ragged multinet, rectangular union
stack) consume identical channel randomness for the same (network, seed)
cell — lossy runs are bit-for-bit equal whichever cells share the batch,
and shard boundaries in sweeps cannot perturb them.  Trials stop consuming draws exactly when
they leave the live batch, matching what a per-trial sequential run
would consume.

A null channel (``loss_p == 0`` and no effective noise) is normalized to
``None`` before it ever reaches an engine, so lossless runs execute the
exact pre-channel code path and stay bit-for-bit equal to the historical
engine output.

The corruption is applied to a scratch *copy* of the transmitted state
before the backend-dispatched gather (see
:meth:`repro.sim.flood.FloodKernel.neighbor_max_stacked`), so both kernel
backends (numpy and numba) receive identical corrupted inputs and agree
bit for bit by construction.  Per-round generator draws allocate fresh
arrays by numpy API design; the engines' no-alloc round-loop discipline
(reprolint R003) therefore stops at the ``corrupt()`` call boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import AnyArray

__all__ = ["ChannelModel", "ChannelState", "ChannelSlot"]

#: One live trial's view of the channel: ``(col, lo, hi, rng)`` — the
#: trial's column in the engine's ``(rows, B)`` state, its row segment
#: ``[lo, hi)`` (its network's block segment of the union stack — the
#: whole matrix for a single-network batch), and its dedicated channel
#: generator.
ChannelSlot = tuple[int, int, int, np.random.Generator]


@dataclass(frozen=True)
class ChannelModel:
    """An i.i.d. per-(node, round, trial) loss / corruption channel.

    ``loss_p`` is the probability that a node's outgoing value is dropped
    for one round; ``noise_p`` the probability that a transmitted nonzero
    value is corrupted by an additive offset uniform in
    ``[-noise_amp, +noise_amp]`` (clamped to ``>= 1``).  The dataclass is
    frozen and plain-data, so it pickles into sweep task tuples and rides
    shared-memory handles the same way ``kernel_backend`` does.
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
    the kernels (``neighbor_max_stacked(..., channel=state)``); every
    kernel call then corrupts a scratch copy of the transmitted values and
    advances each slot's generator by exactly one round's draws.  The
    scratch buffer is reallocated lazily only when the live shape or the
    state dtype changes (batch shrinkage, lazy int64 widening), so the
    per-round cost is one ``copyto`` plus the per-trial draws.
    """

    __slots__ = ("_model", "_slots", "_loss", "_noise", "_scratch")

    def __init__(self, model: ChannelModel, slots: list[ChannelSlot]) -> None:
        self._model = model
        self._slots = slots
        self._loss = model.loss_p > 0.0
        self._noise = model.noise_p > 0.0 and model.noise_amp > 0
        self._scratch: AnyArray | None = None

    @property
    def model(self) -> ChannelModel:
        return self._model

    def corrupt(self, values: AnyArray) -> AnyArray:
        """Return a channel-corrupted copy of ``values`` (one round's draws).

        ``values`` itself is never written — engine metering that charges
        *attempted* transmissions keeps reading the caller's buffer.  The
        returned array is this state's internal scratch: valid until the
        next ``corrupt()`` call, which is exactly the lifetime of one
        kernel gather.
        """
        scratch = self._scratch
        if (
            scratch is None
            or scratch.shape != values.shape
            or scratch.dtype != values.dtype
        ):
            scratch = np.empty_like(values)
            self._scratch = scratch
        np.copyto(scratch, values)
        loss_p = self._model.loss_p
        noise_p = self._model.noise_p
        amp = int(self._model.noise_amp)
        for col, lo, hi, rng in self._slots:
            rows = hi - lo
            seg = scratch[lo:hi, col]
            if self._loss:
                drop = rng.random(rows) < loss_p
                seg[drop] = 0
            if self._noise:
                hit = rng.random(rows) < noise_p
                offsets = rng.integers(-amp, amp + 1, size=rows)
                np.logical_and(hit, seg > 0, out=hit)
                if hit.any():
                    # Clamp into [1, dtype max]: a corrupted value can
                    # never masquerade as silence (0) or wrap negative in
                    # a narrow int32 state.
                    limit = np.iinfo(values.dtype).max
                    seg[hit] = np.clip(
                        seg[hit].astype(np.int64) + offsets[hit], 1, limit
                    ).astype(values.dtype, copy=False)
        return scratch
