"""Unit tests for the lossy/noisy channel model and its per-batch state."""

from fractions import Fraction

import numpy as np
import pytest

from repro.sim.channel import (
    MAX_NOISE_AMP,
    ChannelCounterError,
    ChannelModel,
    ChannelState,
    _normalize_channel,
)

M32 = (1 << 32) - 1
G32 = 0x9E3779B9


def state_for(model, *, cols, rows, seed=0):
    """A ChannelState with one full-height slot per column."""
    slots = [
        (c, 0, rows, np.random.default_rng(seed + c)) for c in range(cols)
    ]
    return ChannelState(model, slots)


def lowbias32(x):
    """The lowbias32 integer hash on one Python int."""
    x ^= x >> 16
    x = (x * 0x7FEB352D) & M32
    x ^= x >> 15
    x = (x * 0x846CA68B) & M32
    return x ^ (x >> 16)


def reference_round(model, cells, values, t):
    """Round ``t`` of the channel contract, one cell at a time in Python ints.

    ``cells`` is a list of ``(col, lo, hi, key)``; written from the module
    docstring's contract, sharing no code with :class:`ChannelState`.
    """
    out = values.copy()
    limit = int(np.iinfo(values.dtype).max)
    amp = int(model.noise_amp)
    drop = int(Fraction(model.loss_p) * 2**32)
    width = int(Fraction(model.noise_p) * (2**32 - drop)) if amp else 0
    for col, lo, hi, key in cells:
        for r in range(lo, hi):
            counter = (r - lo) + t * (hi - lo)
            h = lowbias32(((key & M32) + counter * G32) & M32)
            v = int(values[r, col])
            if h < drop:
                out[r, col] = 0
            elif h < drop + width and v > 0:
                offset = (h - drop) * (2 * amp + 1) // width - amp
                out[r, col] = min(max(v + offset, 1), limit)
    return out


class TestChannelModel:
    def test_defaults_are_null(self):
        model = ChannelModel()
        assert model.loss_p == 0.0
        assert model.noise_p == 0.0
        assert model.noise_amp == 0
        assert model.is_null

    @pytest.mark.parametrize("loss_p", [-0.1, 1.5, float("nan")])
    def test_loss_p_out_of_range(self, loss_p):
        with pytest.raises(ValueError, match="loss_p"):
            ChannelModel(loss_p=loss_p)

    @pytest.mark.parametrize("noise_p", [-0.01, 2.0])
    def test_noise_p_out_of_range(self, noise_p):
        with pytest.raises(ValueError, match="noise_p"):
            ChannelModel(noise_p=noise_p)

    @pytest.mark.parametrize("noise_amp", [-1, 0.5])
    def test_noise_amp_must_be_nonnegative_integer(self, noise_amp):
        with pytest.raises(ValueError, match="noise_amp"):
            ChannelModel(noise_amp=noise_amp)

    def test_noise_amp_capped_for_the_offset_draw(self):
        # Multiply-shift maps 32 hash bits onto 2 * amp + 1 offsets, which
        # must fit in 2**32; a larger amp could only saturate the clamp.
        assert ChannelModel(noise_p=0.5, noise_amp=MAX_NOISE_AMP).noise_amp == 2**31 - 1
        with pytest.raises(ValueError, match="at most"):
            ChannelModel(noise_p=0.5, noise_amp=MAX_NOISE_AMP + 1)

    def test_is_null_requires_both_noise_knobs(self):
        # Either knob at zero disables the noise term entirely.
        assert ChannelModel(noise_p=0.5, noise_amp=0).is_null
        assert ChannelModel(noise_p=0.0, noise_amp=3).is_null
        assert not ChannelModel(noise_p=0.5, noise_amp=3).is_null
        assert not ChannelModel(loss_p=0.1).is_null

    def test_frozen_and_hashable(self):
        model = ChannelModel(loss_p=0.2)
        with pytest.raises(AttributeError):
            model.loss_p = 0.3
        assert ChannelModel(loss_p=0.2) == model
        assert hash(ChannelModel(loss_p=0.2)) == hash(model)


class TestNormalizeChannel:
    def test_none_passes_through(self):
        assert _normalize_channel(None) is None

    def test_null_channel_normalizes_to_none(self):
        assert _normalize_channel(ChannelModel()) is None
        assert _normalize_channel(ChannelModel(noise_p=0.9, noise_amp=0)) is None

    def test_effective_channel_passes_through(self):
        model = ChannelModel(loss_p=0.25, noise_p=0.1, noise_amp=2)
        assert _normalize_channel(model) is model

    @pytest.mark.parametrize("bad", [0.5, "lossy", {"loss_p": 0.5}])
    def test_non_channel_rejected(self, bad):
        with pytest.raises(TypeError, match="ChannelModel"):
            _normalize_channel(bad)


class TestChannelStateCorrupt:
    def test_full_loss_silences_every_sender(self):
        state = state_for(ChannelModel(loss_p=1.0), cols=3, rows=8)
        values = np.arange(1, 25, dtype=np.int32).reshape(8, 3)
        out = state.corrupt(values)
        assert np.all(out == 0)

    def test_input_buffer_is_never_written(self):
        # Metering charges attempted sends off the caller's buffer, so
        # corrupt() must leave it untouched.
        state = state_for(ChannelModel(loss_p=1.0), cols=2, rows=6)
        values = np.ones((6, 2), dtype=np.int32)
        snapshot = values.copy()
        out = state.corrupt(values)
        assert out is not values
        assert np.array_equal(values, snapshot)

    def test_full_loss_beats_full_noise(self):
        model = ChannelModel(loss_p=1.0, noise_p=1.0, noise_amp=3)
        state = state_for(model, cols=4, rows=64)
        values = np.full((64, 4), 9, dtype=np.int32)
        for _ in range(3):
            assert not state.corrupt(values).any()

    def test_rows_outside_slot_pass_through_unchanged(self):
        # A padded column's dead suffix is outside the slot's [lo, hi).
        model = ChannelModel(loss_p=1.0)
        state = ChannelState(model, [(0, 0, 4, np.random.default_rng(0))])
        values = np.arange(1, 9, dtype=np.int64).reshape(8, 1)
        out = state.corrupt(values)
        assert np.all(out[:4] == 0)
        assert np.array_equal(out[4:], values[4:])

    def test_columns_without_slots_pass_through_unchanged(self):
        model = ChannelModel(loss_p=1.0)
        state = ChannelState(model, [(1, 0, 5, np.random.default_rng(0))])
        values = np.full((5, 3), 7, dtype=np.int32)
        out = state.corrupt(values)
        assert np.all(out[:, 1] == 0)
        assert np.array_equal(out[:, 0], values[:, 0])
        assert np.array_equal(out[:, 2], values[:, 2])

    @pytest.mark.parametrize(
        "model",
        [
            ChannelModel(loss_p=1.0),
            ChannelModel(noise_p=1.0, noise_amp=3),
            ChannelModel(loss_p=0.5, noise_p=1.0, noise_amp=3),
        ],
        ids=["loss", "noise", "both"],
    )
    def test_cells_outside_live_slots_never_written(self, model):
        # Two blocks of a union stack with one absent cell per column:
        # (block 0, col 1) and (block 1, col 0) carry no slot, and col 2
        # carries none at all.
        slots = [
            (0, 0, 6, np.random.default_rng(1)),
            (1, 6, 16, np.random.default_rng(2)),
        ]
        state = ChannelState(model, slots)
        values = np.arange(1, 49, dtype=np.int32).reshape(16, 3)
        live = np.zeros(values.shape, dtype=bool)
        live[0:6, 0] = live[6:16, 1] = True
        changed = np.zeros(values.shape, dtype=bool)
        for _ in range(4):
            out = state.corrupt(values)
            assert np.array_equal(out[~live], values[~live])
            changed |= out != values
        assert changed[live].all() if model.noise_p == 0 else changed[live].any()

    def test_noise_only_perturbs_nonzero_within_amp(self):
        amp = 3
        state = state_for(
            ChannelModel(noise_p=1.0, noise_amp=amp), cols=1, rows=64
        )
        values = np.zeros((64, 1), dtype=np.int32)
        values[::2, 0] = 50
        out = state.corrupt(values)
        assert np.all(out[1::2] == 0)  # silence is never resurrected
        assert np.all(np.abs(out[::2] - 50) <= amp)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("amp", [5, MAX_NOISE_AMP])
    def test_noise_clamps_at_one_and_dtype_max(self, dtype, amp):
        # int64 is the lazily widened state: v + offset would overflow
        # int64 itself at its max, so the clamp must not form that sum.
        state = state_for(
            ChannelModel(noise_p=1.0, noise_amp=amp), cols=2, rows=128
        )
        limit = np.iinfo(dtype).max
        values = np.empty((128, 2), dtype=dtype)
        values[::2] = 2  # can only dip below 1 via negative offsets
        values[1::2] = limit - 1  # can only wrap via positive offsets
        out = state.corrupt(values)
        assert out.dtype == dtype
        assert np.all(out >= 1)
        assert np.all(out <= limit)
        # Both clamps actually engage.
        assert np.any(out[::2] == 1)
        assert np.any(out[1::2] == limit)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    def test_matches_percell_reference(self, dtype):
        # Slots at different columns and row offsets, and two segments of
        # unequal length in one column (the union layout, whose segments
        # advance their counters by different per-round steps), several
        # rounds, one cell at the dtype max: bit for bit the Python-int
        # contract.
        model = ChannelModel(loss_p=0.3, noise_p=0.4, noise_amp=3)
        spec = [(0, 0, 10, 21), (1, 0, 10, 22), (0, 10, 24, 23), (2, 10, 24, 24)]
        keys = [
            int(np.random.default_rng(seed).integers(2**64, dtype=np.uint64))
            for *_, seed in spec
        ]
        state = ChannelState(
            model,
            [(col, lo, hi, np.random.default_rng(seed)) for col, lo, hi, seed in spec],
        )
        cells = [(col, lo, hi, key) for (col, lo, hi, _), key in zip(spec, keys)]
        rng = np.random.default_rng(3)
        limit = np.iinfo(dtype).max
        for t in range(5):
            values = rng.integers(0, 6, size=(24, 3)).astype(dtype)
            values[0, 0] = values[12, 2] = limit
            got = state.corrupt(values)
            assert np.array_equal(got, reference_round(model, cells, values, t))

    @pytest.mark.parametrize("rows", [1, 3, 1024, 3072, 2**31 + 1])
    def test_counters_distinct_up_to_the_bound(self, rows):
        # Within rounds * rows <= 2**32, (round, row) -> counter is
        # one-to-one and never wraps, and counter -> hashed word is
        # one-to-one (G32 is odd, so it has an inverse mod 2**32).  One
        # round more makes the last row's counter wrap onto round 0's.
        bound = 2**32 // rows
        g_inv = pow(G32, -1, 2**32)
        key = 0x1234_5678_9ABC_DEF0
        picks = np.random.default_rng(rows).integers(0, [bound, rows], size=(64, 2))
        corners = [(0, 0), (0, rows - 1), (bound - 1, 0), (bound - 1, rows - 1)]
        for t, r in corners + [tuple(map(int, p)) for p in picks]:
            counter = r + t * rows
            assert counter < 2**32
            assert divmod(counter, rows) == (t, r)
            word = ((key & M32) + counter * G32) & M32
            assert ((word - (key & M32)) * g_inv) & M32 == counter
        wrapped = (rows - 1) + bound * rows
        assert wrapped >= 2**32
        assert wrapped % 2**32 < rows  # a round-0 counter again

    def test_state_hashes_no_counter_twice(self):
        # A 5-row cell over 40 rounds hashes 200 distinct words, and the
        # cell's drop pattern reproduces the reference's counter order.
        rng = np.random.default_rng(4)
        key = int(np.random.default_rng(4).integers(2**64, dtype=np.uint64))
        state = ChannelState(ChannelModel(loss_p=0.5), [(0, 0, 5, rng)])
        words = [
            ((key & M32) + (r + t * 5) * G32) & M32 for t in range(40) for r in range(5)
        ]
        assert len(set(words)) == 200
        values = np.ones((5, 1), dtype=np.int32)
        for t in range(40):
            want = [lowbias32(words[t * 5 + r]) >= 2**31 for r in range(5)]
            assert state.corrupt(values)[:, 0].tolist() == [int(w) for w in want]

    @pytest.mark.parametrize("rows", [1, 2**12, 3 * 2**10, 2**32])
    def test_counter_bound_is_enforced_before_any_draw(self, rows):
        # rounds * rows <= 2**32 is the last phase whose counters stay
        # distinct; one more round raises before the key is drawn.
        bound = 2**32 // rows
        rng = np.random.default_rng(6)
        twin = np.random.default_rng(6)
        model = ChannelModel(loss_p=0.2)
        ChannelState(model, [(0, 0, rows, np.random.default_rng(6))], rounds=bound)
        with pytest.raises(ChannelCounterError, match="2\\*\\*32"):
            ChannelState(model, [(0, 0, rows, rng)], rounds=bound + 1)
        assert rng.random() == twin.random()  # the generator was not read
        assert issubclass(ChannelCounterError, ValueError)

    def test_corrupt_past_the_bound_raises_and_draws_nothing(self):
        # Without ``rounds=``, the state itself refuses the call that would
        # repeat a counter, before touching its buffers.
        state = ChannelState(
            ChannelModel(loss_p=0.5), [(0, 0, 2**31, np.random.default_rng(1))]
        )
        values = np.ones((4, 1), dtype=np.int32)  # never reaches the layout
        state._round = 2
        with pytest.raises(ChannelCounterError, match="round 2"):
            state.corrupt(values)
        assert state._bufs is None

    @pytest.mark.parametrize("order", [1, -1])
    def test_overlapping_segments_match_reference_in_any_slot_order(self, order):
        # A short segment inside rows that longer segments of other
        # columns cover: each cell keeps its own segment's counters.
        model = ChannelModel(loss_p=0.3, noise_p=0.4, noise_amp=2)
        spec = [(1, 5, 29, 41), (0, 0, 40, 42), (2, 0, 40, 43), (1, 29, 33, 44)]
        spec = spec[::order]
        keys = [
            int(np.random.default_rng(seed).integers(2**64, dtype=np.uint64))
            for *_, seed in spec
        ]
        state = ChannelState(
            model,
            [(col, lo, hi, np.random.default_rng(seed)) for col, lo, hi, seed in spec],
        )
        cells = [(col, lo, hi, key) for (col, lo, hi, _), key in zip(spec, keys)]
        rng = np.random.default_rng(9)
        for t in range(4):
            values = rng.integers(0, 6, size=(40, 3)).astype(np.int32)
            got = state.corrupt(values)
            assert np.array_equal(got, reference_round(model, cells, values, t))

    def test_shape_change_mid_phase_keeps_every_stream(self):
        # Widening the block by a slot-less column re-lays the buffers out
        # after two rounds; the counters carry on from round 2.
        model = ChannelModel(loss_p=0.3, noise_p=0.4, noise_amp=2)
        spec = [(0, 0, 9, 31), (1, 0, 9, 32), (0, 9, 14, 33)]
        keys = [
            int(np.random.default_rng(seed).integers(2**64, dtype=np.uint64))
            for *_, seed in spec
        ]
        state = ChannelState(
            model,
            [(col, lo, hi, np.random.default_rng(seed)) for col, lo, hi, seed in spec],
        )
        cells = [(col, lo, hi, key) for (col, lo, hi, _), key in zip(spec, keys)]
        rng = np.random.default_rng(8)
        for t in range(5):
            width = 2 if t < 2 else 3
            values = rng.integers(0, 6, size=(14, width)).astype(np.int16)
            got = state.corrupt(values)
            assert np.array_equal(got, reference_round(model, cells, values, t))

    def test_reuse_hands_over_buffers_and_changes_no_draw(self):
        model = ChannelModel(loss_p=0.25, noise_p=0.5, noise_amp=3)
        values = np.random.default_rng(2).integers(0, 9, size=(40, 3)).astype(np.int8)

        def slots(seed, rows):
            return [(c, 0, rows, np.random.default_rng([seed, c])) for c in range(3)]

        first = ChannelState(model, slots(1, 40))
        twin = ChannelState(model, slots(1, 40))
        first.corrupt(values)
        twin.corrupt(values)
        # The next phase takes over the buffers: its draws equal a fresh
        # state's, on a smaller block (a shrunken live set) too.
        small = values[:24]
        heir = ChannelState(model, slots(2, 24), reuse=first)
        fresh = ChannelState(model, slots(2, 24))
        for _ in range(3):
            assert np.array_equal(heir.corrupt(small), fresh.corrupt(small))
        # The old state lays out anew if it is ever called again.
        assert np.array_equal(first.corrupt(values), twin.corrupt(values))

    def test_one_key_per_slot_is_the_only_generator_read(self):
        # The slot generator is read once, when the state is built; the
        # rounds themselves never touch it.
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        state = ChannelState(
            ChannelModel(loss_p=0.5, noise_p=0.5, noise_amp=2), [(0, 0, 16, rng)]
        )
        twin.integers(2**64, dtype=np.uint64)
        for _ in range(3):
            state.corrupt(np.ones((16, 1), dtype=np.int32))
        assert rng.random() == twin.random()

    def test_slot_keys_equal_full_range_integer_draws(self):
        # A slot key is one raw 64-bit word of its generator: the value a
        # full-range uint64 ``integers`` draw returns, leaving the stream
        # at the same position.
        model = ChannelModel(loss_p=0.5, noise_p=0.5, noise_amp=2)
        for seed in range(200):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            state = ChannelState(model, [(c, 0, 16, rng) for c in range(5)])
            want = [int(twin.integers(2**64, dtype=np.uint64)) for _ in range(5)]
            assert state._keys == want
            assert rng.random() == twin.random()

    @pytest.mark.parametrize(
        "col, lo, rows, width",
        [(0, 0, 40, 1), (3, 0, 40, 4), (1, 17, 80, 2), (5, 40, 64, 8)],
    )
    def test_position_invariance(self, col, lo, rows, width):
        # The same slot generator seed yields the same corrupted segment
        # whatever column, row offset, and batch width it sits at.
        model = ChannelModel(loss_p=0.25, noise_p=0.5, noise_amp=2)
        seg = np.random.default_rng(8).integers(0, 9, size=(3, 24)).astype(np.int32)
        alone = ChannelState(model, [(0, 0, 24, np.random.default_rng(99))])
        want = [alone.corrupt(seg[t][:, None])[:, 0].copy() for t in range(3)]
        others = [
            (c, 0, rows, np.random.default_rng(1000 + c))
            for c in range(width)
            if c != col
        ]
        placed = ChannelState(
            model, others + [(col, lo, lo + 24, np.random.default_rng(99))]
        )
        values = np.full((rows, width), 7, dtype=np.int32)
        for t in range(3):
            values[lo : lo + 24, col] = seg[t]
            got = placed.corrupt(values)
            assert np.array_equal(got[lo : lo + 24, col], want[t])

    def test_rounds_and_rows_do_not_repeat_masks(self):
        state = state_for(ChannelModel(loss_p=0.5), cols=3, rows=256)
        values = np.ones((256, 3), dtype=np.int32)
        masks = [state.corrupt(values) == 0 for _ in range(4)]
        for a, b in zip(masks, masks[1:]):
            assert not np.array_equal(a, b)  # consecutive rounds
        for mask in masks:
            assert not np.array_equal(mask[:-1], mask[1:])  # adjacent rows
            assert not np.array_equal(mask[:, 0], mask[:, 1])  # sibling slots

    def test_draws_are_deterministic_per_slot_stream(self):
        model = ChannelModel(loss_p=0.3, noise_p=0.4, noise_amp=2)
        values = (
            np.random.default_rng(9)
            .integers(0, 100, size=(32, 2))
            .astype(np.int64)
        )
        a = state_for(model, cols=2, rows=32, seed=5).corrupt(values).copy()
        b = state_for(model, cols=2, rows=32, seed=5).corrupt(values).copy()
        assert np.array_equal(a, b)
        c = state_for(model, cols=2, rows=32, seed=6).corrupt(values).copy()
        assert not np.array_equal(a, c)

    def test_scratch_reused_until_shape_or_dtype_changes(self):
        state = state_for(ChannelModel(loss_p=0.5), cols=2, rows=16)
        v32 = np.ones((16, 2), dtype=np.int32)
        first = state.corrupt(v32)
        assert state.corrupt(v32) is first  # same shape+dtype: reused
        v64 = np.ones((16, 2), dtype=np.int64)
        widened = state.corrupt(v64)  # lazy int64 widening mid-run
        assert widened is not first
        assert widened.dtype == np.int64

    def test_model_property(self):
        model = ChannelModel(loss_p=0.1)
        assert state_for(model, cols=1, rows=4).model is model
