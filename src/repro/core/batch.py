"""Trial-batched execution engine for the counting protocol.

Experiment sweeps repeat :func:`repro.core.runner.run_counting` over many
independent trials (seeds x configs x placements) of the *same* network.
Each trial's per-round work is a handful of numpy calls on arrays of length
``n`` — small enough that interpreter and dispatch overhead dominate the
arithmetic.  Since trials are fully independent, the whole phase/subphase/
round schedule vectorizes across them: :func:`run_counting_batch` keeps the
protocol state as ``(n, B)`` trials-as-columns matrices and executes every
flooding round for all ``B`` trials with one batched kernel call
(:meth:`repro.sim.flood.FloodKernel.neighbor_max_stacked` over the
d-regular H).

Equivalence contract
--------------------
``run_counting_batch(network, seeds, config=cfg)`` is **bit-for-bit** equal
to ``[run_counting(network, cfg, seed=s) for s in seeds]``: per-trial
``decided_phase``, ``crashed``, phase traces, and meter totals all match.
This holds because

* each trial consumes its own named random stream, derived exactly as the
  sequential engine derives it (``make_rng`` -> ``spawn``), with color
  draws issued per-trial in the same order and sizes;
* integer max-flooding is exact, so batching changes no arithmetic;
* a trial leaves the batch precisely when the sequential run would break
  out of the phase loop, so round/message accounting stops at the same
  point.

The equivalence is enforced by the property tests in
``tests/core/test_runner_batch.py`` and ``tests/core/test_sweep.py``.

Adversarial (Algorithm 2) trials batch too: the engine drives the batched
adversary protocol (:meth:`~repro.adversary.base.Adversary.batch_subphase_plan`,
see :mod:`repro.adversary.base`), simulates the pre-phase crash rule per
trial (deduplicating identical claim sets), gates injections per Lemma 16
per trial, and meters witness traffic from ``(n, B)`` new-record counts.
Plans arrive in dense form — ``(byz, B)`` initial colors, a
``(T, byz, B)`` injection array (0 = none) and its ``(T, B)`` injection
counts — and :func:`_validate_batch_plan` checks their shapes and signs
and reads the value range that picks the state's dtype rung.  Each
subphase the engine computes every placement group's Byzantine block
once, as flat offsets into the ``(N, B)`` state, and applies round ``t``
with one masked ``np.maximum`` of layer ``t - 1`` over that block;
columns that do not relay send 0 there, or re-send the round's
injections.  Built-in
strategies build the dense form natively; scalar third-party adversaries
run through the generic per-column wrapper
(:class:`~repro.adversary.base.PerTrialAdversaryBatch` when passed as a
factory), which keeps the flooding rounds batched while calling the scalar
hook once per trial, and :func:`~repro.adversary.base.stack_subphase_plans`
converts their plans.  Heterogeneous configs are grouped: trials sharing a
config batch together.

Per-trial placements
--------------------
``byz_mask`` may be one shared ``(n,)`` mask or a per-trial ``(B, n)``
stack (equivalently a length-``B`` list of ``(n,)`` masks), so sweeps that
vary the adversary's *location* — the governing variable of the
placement-sensitivity experiments — batch too.  Trials are sub-grouped by
distinct placement: each sub-group gets its own adversary (built by the
factory and bound to that placement, exactly as sequential runs bind one
adversary per trial) which plans only its own columns, while the flooding
rounds stay fused across the whole batch — crash masks, the Lemma 16 gate,
relay suppression, and witness metering are applied per column.  The crash
rule is memoized on (placement, claim content), so repeated seeds of one
placement simulate their crashes once.  A mask stack whose length disagrees
with ``seeds`` is rejected eagerly; a shared adversary *instance* cannot
drive multiple placements (its binding is per placement) and is likewise
rejected — pass a factory.

Dtype policy
------------
Each phase keeps its color state in the narrowest of int8, int16 and
int32 that holds a provable bound on every value the phase can hold
(:func:`_ladder_dtype`).  Flooding only takes maxima and the channel adds
at most ``noise_amp`` per round, so after the phase's single color draw
the bound is known: the largest color drawn, plus ``noise_amp x phase``
under an active channel.  Colors are geometric(1/2), ``O(log n)`` whp, so
honest phases run in int8 — a one-byte row is what lets the numpy
backend gather every neighbor slot with one ``np.take``.

Under an adversary every subphase's plan raises the bound (initial
colors, injections and the suppressed re-sends that replay them, plus the
same noise term; a negative initial color lowers its floor), and the
phase loop widens to the narrowest rung that holds it before the plan is
applied.  Above the ladder is the historical rule: state stays at most
int32, and the first plan value outside int32 itself widens the run to
int64 for good.  Adversaries always see int64 honest colors.

Before a plan raises the bound, :func:`_shift_plans` moves its
out-of-band values down.  The protocol only compares colors (neighbor
maxima, the ``> threshold`` test, new-record tests), so a planted
``2**20`` says no more than "above every honest color and the
threshold".  With ``noise = noise_amp x phase`` (0 with no channel), the
most a value can drift within one subphase, ``cut = max(largest draw,
floor(threshold)) + 2 x noise`` and ``a`` the subphase's smallest plan
value above ``cut`` (over every group's initial colors, injections and
re-sends), every plan value above ``cut`` moves down by
``a - (cut + 1 + 2 x noise)``.  The move is made only when
``a > cut + 2 x noise``, the plan stays at or below ``INT32_MAX - noise``
and the moved maximum picks a narrower rung.  Built-in strategies plant
values from ``HUGE_COLOR = 2**20`` up but inside int32, so their cells
run int32 or narrower, and early-stop, inflation and combo flood in int8.

No rung and no move changes a result.  Integer max-flooding is exact in
any dtype that holds its values.  Every subphase starts from fresh
colors, so within one an unmoved value stays at or below ``cut + noise``
and a moved one, before or after the move, at or above
``cut + 1 + noise``: every comparison across the two sides, with 0 and
with the threshold comes out as before, and moved values keep their
order and spacing among themselves.  The channel's clamps never touch a
moved value: its floor of 1 lies below ``cut``, and its ceiling at the
state dtype's maximum is out of reach below int32 because the bound keeps
every noisy value inside the rung, and in the unmoved int32 run because
of the ``INT32_MAX - noise`` condition.  Every result is bit for bit the
int32/int64 run's.

One engine, three entry points
------------------------------
The engine proper is the block-diagonal **union stack**: networks are
concatenated on the *row* axis (total rows ``N = sum(n_g)``) and trials
sit on the *column* axis, so every flooding round is a single
:class:`~repro.sim.flood.UnionFloodKernel` row-gather over the
concatenated CSR — zero padding rows, no per-segment scratch copies, no
masked zeroing.  Per-network row segments (the kernel's ``offsets``)
drive decided counting, message accounting, crash masks, the
per-block Lemma 16 gate (each block's own ``k_g``), and witness metering
via segment-wise reductions.  Senders are counted one way: per-node
counters of the rounds in which a node sent a nonzero value, summed per
block once per subphase (the same counters are the traffic an adaptive
adversary observes), and injections are charged once per subphase from
their per-round counts split at the gate.  Per-trial liveness is a
``(G, C)`` matrix, so a finished (network, column) cell stops drawing
colors and accruing meter charges exactly when a run of its own would
have stopped.  The
phase/subphase/round *schedule* depends only on ``(phase, eps, d)``,
which is why one batch requires a homogeneous degree ``d`` (validated
eagerly).  Byzantine cells sub-group by (network block, placement): each
group's adversary binds to its own graph and plans its own columns.

The three public functions are thin wrappers that lay their trials out
on that grid:

* :func:`run_counting_batch` — one network, so a union of one block (a
  plain :class:`~repro.sim.flood.FloodKernel` is a one-block union, which
  is how a pre-built ``kernel=`` is reused with no CSR copy);
* :func:`run_counting_unionstack` — a rectangular (network x seed) grid,
  every seed replicated across every block;
* :func:`run_counting_multinet` — one network per trial, ragged: trials
  are grouped into blocks by network identity, each block's trials fill
  its columns in trial order, and results map back to trial order.

Per-cell seeds
--------------
Internally the engine takes a ``(G, C)`` seed grid plus a boolean
*presence* matrix, which is what lets ragged per-network trial counts
share one stack.  An absent cell starts dead in the ``alive`` matrix: it
spawns no RNG and draws no colors, gets no channel slot, joins no
placement group (so no adversary is built for it), emits no result, and
never keeps a ``stop_when_all_decided`` run looping.  A column carries
exactly one config, so trials with different configs never share a
column.  A ``numpy`` ``Generator`` seed is accepted when it feeds exactly
one cell; the same ``Generator`` object in several cells of a
multi-network batch (e.g. a shared seed axis over two networks) would
interleave one stream across those trials and is rejected with a
:class:`TypeError` before any state is allocated.  Every cell is
bit-for-bit equal to the scalar run it replaces, enforced by the
cross-engine grid in ``tests/integration/test_engine_equivalence.py``,
the per-cell seed oracle in ``tests/core/test_percell_seeds.py``, and the
hypothesis properties in ``tests/property/test_unionstack_properties.py``
and ``tests/property/test_padding_properties.py``.

Channel models
--------------
Every entry point takes an optional ``channel``
(:class:`~repro.sim.channel.ChannelModel`): per-round Bernoulli message
loss and additive corruption noise applied inside the kernel call (see
:mod:`repro.sim.channel` for the determinism contract).  Each trial's
channel stream is the third spawned child of its root generator — spawned
only when a channel is active, which leaves the color and adversary
streams untouched (``Generator.spawn`` advances a child counter, not the
bit stream), so lossless runs stay bit-for-bit equal to the historical
output and a null channel is normalized away entirely.  Each phase builds
one :class:`~repro.sim.channel.ChannelState` from the live cells, which
draws one key per cell from that stream; every round then corrupts the
whole ``(N, B)`` block with one counter-based hash of (key, round, row
within the cell's own network), so no per-cell work runs inside a round
and a cell's draws do not depend on which cells share its batch.  The
phase loop reads a subphase's ``prev_kt`` (the largest pre-final-round
receive) straight off round ``phase-1``'s receive only while receives are
provably monotone; an active channel breaks that (a dropped message can
shrink a neighbor-max), so under one the loop keeps an explicit running
maximum.  Sender-side metering still charges *attempted* transmissions
(corruption happens on a kernel-side scratch copy), while verification's
new-record metering naturally counts only what the channel delivered.

Adaptive adversaries
--------------------
The phase loop invokes :meth:`~repro.adversary.base.Adversary.batch_adapt`
on every placement sub-group at the end of every subphase (so the first
subphase always runs the bound placement).  Adversaries that override the
hook observe per-node attempted-send traffic accumulated since the last
adaptation and may return a replacement placement mask for the group; the
engine then re-points the group's Byzantine set — affecting subsequent
planning, suppression, and the Lemma 16 membership check immediately,
and the undecided/color bookkeeping from the next phase boundary (the
per-phase draw schedule is fixed at phase start, so a cell's results
never depend on which other cells share its batch).
Pre-phase crash simulation is not re-run: crashes are a property of the
verification phase, which precedes any adaptation.  All built-in static
strategies inherit the default no-op hook and are byte-for-byte
unaffected.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .._types import AnyArray, BoolArray, Int64Array, IntArray, SeedLike
from ..adversary.base import (
    Adversary,
    BatchAdaptationState,
    BatchSubphasePlan,
    BatchSubphaseState,
    PerTrialAdversaryBatch,
    has_native_batch,
)
from ..analysis.bounds import ball_size_bound
from ..sim.channel import ChannelModel, ChannelState, _normalize_channel
from ..sim.flood import FloodKernel, UnionFloodKernel
from ..sim.metrics import MeterBatch, PhaseRecord, PhaseTrace
from ..sim.rng import spawn_seed
from .colors import sample_colors
from .config import CountingConfig
from .neighborhood import crash_phase
from .phases import color_threshold, subphase_count
from .results import UNDECIDED, BatchCountingResult, CountingResult

if TYPE_CHECKING:  # pragma: no cover
    from ..graphs.smallworld import SmallWorldNetwork

#: An ``adversary_factory`` argument: a zero-argument factory or a plain
#: (stateless, single-placement) instance.
AdversarySpec = "Adversary | Callable[[], Adversary]"

__all__ = ["run_counting_batch", "run_counting_multinet", "run_counting_unionstack"]

#: Boundaries of the int32 top rung: plans whose values fit
#: [INT32_MIN, INT32_MAX] run the subphase in at most int32; the first plan
#: outside widens the run to int64 for good.  (Injection values are
#: validated non-negative, but initial colors are taken as-is — a negative
#: value must stay negative and inert under max-flooding, exactly as the
#: sequential int64 engine keeps it.)
_INT32_MAX = int(np.iinfo(np.int32).max)
_INT32_MIN = int(np.iinfo(np.int32).min)
_INT64_MAX = int(np.iinfo(np.int64).max)

#: The dtype ladder below int64, narrowest first, with each rung's range.
_LADDER: tuple[tuple[type[np.signedinteger[Any]], int, int], ...] = tuple(
    (dt, int(np.iinfo(dt).min), int(np.iinfo(dt).max))
    for dt in (np.int8, np.int16, np.int32)
)


def _ladder_dtype(lo: int, hi: int) -> type[np.signedinteger[Any]]:
    """Narrowest of int8/int16/int32 whose range holds ``[lo, hi]``.

    ``[lo, hi]`` is a provable bound on every value a phase can hold (see
    the module docstring's dtype policy).  A bound past int32 still gets
    int32: that rung is the historical state dtype, whose channel clamp
    at ``INT32_MAX`` is part of the stream, and only a plan value outside
    int32 itself widens to int64 (the phase loop's guard).
    """
    for dtype, low, high in _LADDER:
        if low <= lo and hi <= high:
            return dtype
    return np.int32


def run_counting_batch(
    network: SmallWorldNetwork,
    seeds: Sequence[SeedLike],
    config: CountingConfig | Sequence[CountingConfig] | None = None,
    adversary_factory: Callable[[], Adversary] | Adversary | None = None,
    byz_mask: AnyArray | Sequence[AnyArray | None] | None = None,
    backend: str | None = None,
    kernel: FloodKernel | None = None,
    channel: ChannelModel | None = None,
) -> BatchCountingResult:
    """Run ``len(seeds)`` independent counting trials, batched.

    Parameters
    ----------
    network:
        The shared :class:`~repro.graphs.smallworld.SmallWorldNetwork`.
    seeds:
        One entry per trial; each is anything :func:`repro.sim.rng.make_rng`
        accepts (int, ``Generator``, or ``None``).
    config:
        A single :class:`CountingConfig` applied to every trial, or a
        sequence of per-trial configs (trials with equal configs are
        batched together).
    adversary_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.adversary.base.Adversary`, or a plain instance.
        Byzantine trials run on the batched engine: natively-batched
        adversaries (all built-ins) drive a whole placement sub-group as
        one instance; scalar-only classes passed as a factory are wrapped
        in :class:`~repro.adversary.base.PerTrialAdversaryBatch` (one
        instance per trial, exactly like the former sequential fallback).
        A plain scalar instance is driven through the generic per-column
        fallback, which assumes its hooks are stateless — pass a factory
        for stateful adversaries, and always for multi-placement batches.
    byz_mask:
        Byzantine placement(s); requires ``adversary_factory``.  Either a
        single ``(n,)`` mask shared by every trial, or a per-trial
        ``(B, n)`` stack / length-``B`` list of masks (trials sharing a
        placement are sub-grouped; see the module docstring).
    backend:
        Flood-kernel compute backend (``"numpy"``, ``"numba"``,
        ``"auto"``) or ``None`` for the default resolution (the
        ``REPRO_KERNEL_BACKEND`` env override, then auto).  Backends are
        bit-for-bit interchangeable — this is a speed knob, never a
        semantics knob (see :mod:`repro.sim.backends`).
    kernel:
        A pre-built :class:`~repro.sim.flood.FloodKernel` over this
        network's ``H`` adjacency to reuse across calls (the resident
        churn engine keeps kernels — and their cached gather plans — warm
        between epochs).  Mutually exclusive with ``backend`` (the kernel
        already carries one); its CSR must match the network, validated
        eagerly.  Kernel reuse is a speed knob with the same bit-for-bit
        guarantee as ``backend``.
    channel:
        Optional :class:`~repro.sim.channel.ChannelModel` applying
        per-round message loss / corruption noise inside every flooding
        round (see the module docstring's channel section).  ``None`` or
        a null model runs the exact lossless code path.

    Returns
    -------
    BatchCountingResult
        Per-trial :class:`~repro.core.results.CountingResult` objects, in
        ``seeds`` order, bit-for-bit equal to sequential ``run_counting``
        (when no channel is active; channel draws are deterministic per
        trial seed).
    """
    seeds = list(seeds)
    batch = len(seeds)
    configs = _normalize_configs(config, batch)
    byz_masks = _normalize_byz_masks(byz_mask, batch, network.n)
    out = _run_union(
        [network],
        [seeds],
        np.ones((1, batch), dtype=bool),
        configs,
        adversary_factory,
        None if byz_masks is None else [byz_masks],
        kernel=kernel,
        backend=backend,
        channel=channel,
    )
    return BatchCountingResult(out[0])  # type: ignore[arg-type]


def _normalize_byz_masks(byz_mask: Any, batch: int, n: int) -> list[BoolArray] | None:
    """Normalize ``byz_mask`` to one ``(n,)`` mask per trial (or None).

    A single ``(n,)`` mask is shared by every trial; a ``(batch, n)``
    stack or a length-``batch`` sequence of masks (``None`` = empty) is
    taken per trial.  A stack whose length disagrees with ``seeds`` is
    rejected here with a count-mismatch error rather than silently
    sharing one mask.
    """
    if byz_mask is None:
        return None
    if isinstance(byz_mask, (list, tuple)) or np.ndim(byz_mask) == 2:
        masks = list(byz_mask)
        if len(masks) != batch:
            raise ValueError(
                f"got {len(masks)} placement masks for {batch} seeds; provide "
                "one (n,) mask per trial or a single shared (n,) mask"
            )
        return [_as_mask(m, n, "each placement mask") for m in masks]
    return [_as_mask(byz_mask, n, "byz_mask")] * batch


def _check_kernel(
    kernel: FloodKernel, nets: list[SmallWorldNetwork], backend: str | None
) -> None:
    """Validate a reused kernel against the batch's distinct networks.

    The kernel's row blocks must be the networks' sizes in order (a plain
    :class:`~repro.sim.flood.FloodKernel` is one block).  A one-block
    kernel is also checked against the network's ``H`` CSR: the resident
    churn engine rebinds kernels via
    :meth:`~repro.sim.flood.FloodKernel.update_csr` after every delta, and
    this guards the handoff so a missed rebind fails loudly instead of
    flooding a stale adjacency.
    """
    if backend is not None:
        raise ValueError(
            "pass either backend or a pre-built kernel, not both (the "
            "kernel already carries its backend)"
        )
    sizes = tuple(int(net.n) for net in nets)
    if kernel.sizes != sizes:
        raise ValueError(
            f"kernel block sizes {kernel.sizes} do not match the networks' "
            f"sizes {sizes}"
        )
    if len(nets) == 1 and not (
        np.array_equal(kernel.indptr, nets[0].h.indptr)
        and np.array_equal(kernel.indices, nets[0].h.indices)
    ):
        raise ValueError(
            "kernel adjacency does not match the network's H CSR; rebind "
            "with kernel.update_csr(...) after mutating the overlay"
        )


def _batch_adversary(factory: AdversarySpec, batch: int) -> Adversary:
    """Resolve the adversary that will drive one placement sub-group."""
    if isinstance(factory, Adversary):
        # A shared instance: driven through its (native or generic
        # per-column) batch hooks, matching sequential re-binding for any
        # stateless adversary.
        return factory
    probe = factory()
    if has_native_batch(probe):
        return probe
    # Scalar-only third-party class: preserve one-instance-per-trial
    # semantics via the generic per-column wrapper.
    return PerTrialAdversaryBatch(factory, batch)


def _is_adaptive(adversary: Adversary) -> bool:
    """Whether this adversary overrides the between-subphase adapt hook.

    Static strategies inherit :meth:`Adversary.batch_adapt` unchanged, so
    identity on the unbound method gates all adaptation bookkeeping
    (traffic accumulation, hook dispatch) out of non-adaptive runs.
    """
    return type(adversary).batch_adapt is not Adversary.batch_adapt


def _adapted_mask(mask: AnyArray, n: int) -> BoolArray:
    """Validate one group's replacement placement from ``batch_adapt``."""
    arr = np.ascontiguousarray(np.asarray(mask, dtype=bool))
    if arr.shape != (n,):
        raise ValueError(
            f"batch_adapt must return an ({n},) placement mask or None, "
            f"got shape {arr.shape}"
        )
    return arr


def _normalize_configs(
    config: CountingConfig | Sequence[CountingConfig] | None, batch: int
) -> list[CountingConfig]:
    if config is None:
        config = CountingConfig()
    if isinstance(config, CountingConfig):
        return [config] * batch
    configs = list(config)
    if len(configs) != batch:
        raise ValueError(
            f"got {len(configs)} configs for {batch} seeds; provide one "
            "config per trial or a single shared config"
        )
    return configs


def _group_by_config(
    configs: list[CountingConfig],
) -> dict[CountingConfig, list[int]]:
    groups: dict[CountingConfig, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(cfg, []).append(i)
    return groups


def _claims_signature(claims: Any) -> frozenset[Any]:
    """Hashable content key for one trial's pre-phase claim mapping.

    A set of ``(node, claim)`` pairs: equal mappings give equal keys in
    any insertion order, with no sort.
    """
    return frozenset(
        (int(v), None if c is None else tuple(c)) for v, c in claims.items()
    )


def _validate_batch_plan(
    plan: BatchSubphasePlan, byz_count: int, batch: int
) -> tuple[Any, ...]:
    """Check a dense :class:`BatchSubphasePlan` against its group's shape.

    Returns ``(initial, injections, counts, off, resend, lo, hi)``: the
    plan's arrays as int64 (``None`` where absent), ``off`` the columns
    that do not relay (``None`` when every column relays), and
    ``[lo, hi]`` the range of every value the plan can write
    (``lo <= 0 <= hi``), which sets the subphase's dtype rung.  A
    non-integer array raises :class:`TypeError`; a mis-shaped array, a
    negative injected value or a negative count raises
    :class:`ValueError`; both before anything is applied.
    """
    lo = hi = 0
    initial = _plan_ints("initial_colors", plan.initial_colors)
    if initial is not None:
        if initial.shape != (byz_count, batch):
            raise ValueError(
                f"initial_colors must have shape ({byz_count}, {batch}), "
                f"got {initial.shape}"
            )
        if initial.size:
            lo, hi = min(0, int(initial.min())), max(0, int(initial.max()))
    injections = _plan_ints("injections", plan.injections)
    counts = _plan_ints("counts", plan.counts)
    resend = _plan_ints("resend", plan.resend)
    if injections is not None:
        if injections.ndim != 3 or injections.shape[1:] != (byz_count, batch):
            raise ValueError(
                f"injections must have shape (T, {byz_count}, {batch}), "
                f"got {injections.shape}"
            )
        rounds = injections.shape[0]
        if counts is None or counts.shape != (rounds, batch):
            raise ValueError(
                f"counts must have shape ({rounds}, {batch}), got "
                f"{None if counts is None else counts.shape}"
            )
        if counts.size and int(counts.min()) < 0:
            raise ValueError("injection counts must be non-negative")
    if resend is not None:
        if injections is None or resend.shape != injections.shape:
            raise ValueError(
                "resend must have the injections' shape, got "
                f"{resend.shape} for {None if injections is None else injections.shape}"
            )
    for name, values in (("injections", injections), ("resend", resend)):
        if values is not None and values.size:
            # One scan: read as uint64, a negative value lies above INT64_MAX.
            top = int(values.view(np.uint64).max())
            if top > _INT64_MAX:
                raise ValueError(f"{name} values must be >= 0 (0 = no injection)")
            hi = max(hi, top)
    relay = np.asarray(plan.relay, dtype=bool)
    if relay.ndim == 0:
        off = None if relay else np.arange(batch)
    elif relay.shape != (batch,):
        raise ValueError(f"relay must have shape ({batch},), got {relay.shape}")
    else:
        off = None if relay.all() else np.flatnonzero(~relay)
    return initial, injections, counts, off, resend, lo, hi


def _plan_ints(name: str, values: Any) -> Int64Array | None:
    """One plan array as int64, ``None`` if absent.

    Raises :class:`TypeError` for values of a non-integer dtype (floats,
    NaN, bools, objects): a cast would truncate them silently.  Python
    int lists pass; an empty array has no value to truncate.
    """
    if values is None:
        return None
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _shift_plans(
    group_plans: list[tuple[Any, ...]],
    cut: int,
    noise: int,
    lo: int,
    hi: int,
    plan_max: int,
) -> tuple[list[tuple[Any, ...]], int]:
    """Move the plans' values above ``cut`` down when that narrows the rung.

    ``cut`` lies ``2 x noise`` above every honest color and the threshold,
    ``noise`` is the most a value can drift over one subphase's rounds and
    ``[lo, hi]`` the phase's value bound so far.  With ``a`` the smallest
    plan value above ``cut``, every such value moves down by
    ``a - (cut + 1 + 2 x noise)`` into new arrays (an adversary may own
    its plan's); values at or below ``cut`` keep theirs.  Nothing moves
    unless ``a > cut + 2 x noise`` and the moved maximum picks a narrower
    rung than ``plan_max`` does.  Returns the plans and their maximum.
    """
    need = np.dtype(_ladder_dtype(lo, max(hi, plan_max + noise))).itemsize
    least = cut + 1 + 2 * noise  # where ``a`` lands
    if np.dtype(_ladder_dtype(lo, max(hi, least + noise))).itemsize >= need:
        return group_plans, plan_max
    floor = plan_max
    mixed: set[int] = set()  # arrays holding a value at or below ``cut``
    for _, initial, injections, _, _, resend in group_plans:
        for values in (initial, injections, resend):
            if values is not None and values.size:
                low = int(values.min())
                if low <= cut:
                    mixed.add(id(values))
                    above = values[values > cut]
                    low = int(above.min()) if above.size else plan_max
                floor = min(floor, low)
    shift = floor - least
    top = plan_max - shift
    if shift <= 0 or np.dtype(_ladder_dtype(lo, max(hi, top + noise))).itemsize >= need:
        return group_plans, plan_max

    def down(values: Int64Array | None) -> Int64Array | None:
        if values is None or id(values) not in mixed:
            return None if values is None else values - shift
        return np.where(values > cut, values - shift, values)

    return [
        (grp, down(initial), down(injections), counts, off, down(resend))
        for grp, initial, injections, counts, off, resend in group_plans
    ], top


def run_counting_multinet(
    networks: Sequence[SmallWorldNetwork],
    seeds: Sequence[SeedLike],
    config: CountingConfig | Sequence[CountingConfig] | None = None,
    adversary_factory: Callable[[], Adversary] | Adversary | None = None,
    byz_mask: Sequence[AnyArray | None] | None = None,
    backend: str | None = None,
    kernel: FloodKernel | None = None,
    channel: ChannelModel | None = None,
) -> BatchCountingResult:
    """Run independent counting trials on *per-trial networks*, batched.

    The network-axis extension of :func:`run_counting_batch`: trial ``i``
    runs on ``networks[i]``, and trials on different graphs — including
    graphs of different sizes and different trial counts per graph — fuse
    into one union-stack batch.  Trials are grouped into row blocks by
    network identity; within each config, a block's trials fill its
    columns in trial order and the unused tail cells of shorter blocks are
    absent (see the module docstring's per-cell seeds section).  Every
    trial is bit-for-bit equal to the sequential ``run_counting`` call it
    replaces.

    Parameters
    ----------
    networks:
        One network per trial (``len(networks) == len(seeds)``); repeats
        of the same object share one row block.  All networks must have
        the same degree ``d`` — the phase schedule is ``d``-dependent, so
        heterogeneous degrees cannot share a fused round loop.
    seeds, config, adversary_factory:
        As in :func:`run_counting_batch`; with two or more distinct
        networks, a ``Generator`` seed object may appear only once.
    byz_mask:
        ``None`` (no Byzantine nodes) or a length-``B`` sequence with one
        entry per trial: an ``(n_i,)`` mask over *that trial's* network,
        or ``None`` for an empty placement.  A shared ``(n,)`` mask is
        meaningless across sizes and therefore not accepted here.
    backend:
        As in :func:`run_counting_batch`.
    kernel:
        A pre-built kernel whose row blocks are the *distinct* networks of
        this batch in first-appearance order: a
        :class:`~repro.sim.flood.UnionFloodKernel`, or a plain
        :class:`~repro.sim.flood.FloodKernel` when every trial runs on one
        network.  Reused across calls by the resident churn engine;
        mutually exclusive with ``backend``; validated eagerly.
    channel:
        As in :func:`run_counting_batch`.
    """
    container = networks
    networks = list(networks)
    seeds = list(seeds)
    batch = len(seeds)
    if len(networks) != batch:
        raise ValueError(
            f"got {len(networks)} networks for {batch} seeds; provide one "
            "network per trial"
        )
    if batch == 0:
        return BatchCountingResult([])
    nets: list[SmallWorldNetwork] = []
    net_pos: dict[int, int] = {}
    net_of: list[int] = []
    for net in networks:
        net_of.append(net_pos.setdefault(id(net), len(nets)))
        if net_of[-1] == len(nets):
            nets.append(net)
    masks: list[BoolArray] | None = None
    if byz_mask is not None:
        if isinstance(byz_mask, np.ndarray) and byz_mask.ndim == 1:
            raise ValueError(
                "a single shared mask cannot span a multi-network batch; "
                "provide one (n_i,) mask (or None) per trial"
            )
        entries = list(byz_mask)
        if len(entries) != batch:
            raise ValueError(
                f"got {len(entries)} placement masks for {batch} seeds; "
                "provide one (n_i,) mask (or None) per trial"
            )
        masks = [
            _as_mask(m, int(networks[i].n), f"trial {i}'s placement mask")
            for i, m in enumerate(entries)
        ]

    # Lay the trials out on the (network, column) grid: each config owns a
    # run of columns as wide as its busiest network; shorter blocks leave
    # their tail cells absent.
    cell_of: list[list[int]] = [[] for _ in nets]
    col_configs: list[CountingConfig] = []
    for cfg, ids in _group_by_config(_normalize_configs(config, batch)).items():
        per_net: list[list[int]] = [[] for _ in nets]
        for i in ids:
            per_net[net_of[i]].append(i)
        width = max(len(trials) for trials in per_net)
        for row, trials in zip(cell_of, per_net):
            row.extend(trials + [-1] * (width - len(trials)))
        col_configs.extend([cfg] * width)
    def on_grid(values: list[Any]) -> list[list[Any]]:
        return [[values[i] if i >= 0 else None for i in row] for row in cell_of]

    grid = _run_union(
        nets,
        on_grid(seeds),
        np.asarray(cell_of, dtype=np.int64).reshape(len(nets), -1) >= 0,
        col_configs,
        adversary_factory,
        None if masks is None else on_grid(masks),
        kernel=kernel,
        backend=backend,
        channel=channel,
        container=container,
    )
    results: list[CountingResult | None] = [None] * batch
    for row, out_row in zip(cell_of, grid):
        for i, res in zip(row, out_row):
            if i >= 0:
                results[i] = res
    return BatchCountingResult(results)  # type: ignore[arg-type]


def _as_mask(mask: Any, n: int, what: str) -> BoolArray:
    """One cell's placement as an ``(n,)`` bool mask (``None`` = empty)."""
    if mask is None:
        return np.zeros(n, dtype=bool)
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    return arr


def run_counting_unionstack(
    networks: Sequence[SmallWorldNetwork],
    seeds: Sequence[int | None],
    config: CountingConfig | Sequence[CountingConfig] | None = None,
    adversary_factory: Callable[[], Adversary] | Adversary | None = None,
    byz_mask: Any = None,
    backend: str | None = None,
    kernel: FloodKernel | None = None,
    channel: ChannelModel | None = None,
) -> BatchCountingResult:
    """Run a rectangular (network x seed) grid as one union-stack batch.

    Every network is a row *block* of one block-diagonal state matrix and
    every seed is a *column* shared by all blocks, so the grid's
    ``G x C`` trials execute with zero padding (see the module
    docstring).  Each trial is bit-for-bit equal to the sequential
    ``run_counting`` call it replaces.

    Parameters
    ----------
    networks:
        The row blocks, one per network (``G`` entries; re-samples of one
        shape are distinct blocks).  All must share the degree ``d`` —
        the phase schedule is ``d``-dependent — validated eagerly.
    seeds:
        The column axis (``C`` entries).  Each seed is replicated across
        every network's block (trial ``(g, j)`` derives its streams from
        ``make_rng(seeds[j])``), so with two or more networks entries must
        be ints or ``None`` — a ``numpy`` ``Generator`` object cannot be
        replicated and is rejected eagerly with a :class:`TypeError`.
    config:
        A single :class:`CountingConfig` for the whole grid or one per
        *column* (columns sharing a config batch together).
    adversary_factory:
        As in :func:`run_counting_batch`.
    byz_mask:
        ``None`` or a length-``G`` sequence, one entry per network:
        ``None`` (empty placements), a single ``(n_g,)`` mask shared by
        every column, a ``(C, n_g)`` stack, or a length-``C`` sequence of
        per-column masks / Nones.
    backend:
        As in :func:`run_counting_batch`.
    kernel:
        A pre-built :class:`~repro.sim.flood.UnionFloodKernel` whose
        block ``g`` is ``networks[g]``'s ``H`` adjacency (a plain
        :class:`~repro.sim.flood.FloodKernel` for one network), reused
        across calls.  Mutually exclusive with ``backend``; block sizes
        are validated eagerly.
    channel:
        As in :func:`run_counting_batch`.  Channel draws are per
        (network, seed) trial, so lossy union runs stay bit-for-bit equal
        to per-network runs.

    Returns
    -------
    BatchCountingResult
        ``G * C`` per-trial results in network-major order: trial
        ``(g, j)`` is element ``g * C + j`` — the order of the equivalent
        ``run_counting_multinet([net_g for g .. for j ..], ...)`` call.
    """
    nets = list(networks)
    if not nets:
        raise ValueError("run_counting_unionstack needs at least one network")
    seeds = list(seeds)
    cols = len(seeds)
    masks = _normalize_union_masks(byz_mask, nets, cols)
    grid = _run_union(
        nets,
        [seeds] * len(nets),
        np.ones((len(nets), cols), dtype=bool),
        _normalize_configs(config, cols),
        adversary_factory,
        masks,
        kernel=kernel,
        backend=backend,
        channel=channel,
        container=networks,
    )
    return BatchCountingResult([res for row in grid for res in row])  # type: ignore[arg-type]


def _run_union(
    nets: list[SmallWorldNetwork],
    seeds: Sequence[Sequence[SeedLike]],
    present: BoolArray,
    configs: list[CountingConfig],
    adversary_factory: AdversarySpec | None,
    masks: Sequence[Sequence[BoolArray | None]] | None,
    *,
    kernel: FloodKernel | None,
    backend: str | None,
    channel: ChannelModel | None,
    container: Any = None,
) -> list[list[CountingResult | None]]:
    """The batched engine's single entry: a ``(G, C)`` grid of cells.

    ``seeds`` and ``masks`` are ``G x C`` nested lists (block-local
    ``(n_g,)`` masks or None), ``present`` the ``(G, C)`` presence matrix
    and ``configs`` one config per column.  Validates the grid before
    allocating any state, resolves the kernel (``container`` may ship a
    pre-stacked union CSR and a backend), then runs each config's columns
    through the one phase loop, :func:`_run_config_group`.  Returns
    results as a ``G x C`` nested list, ``None`` at absent cells.
    """
    degrees = {int(net.d) for net in nets}
    if len(degrees) > 1:
        raise ValueError(
            "all networks in one batch must share the degree d (the phase "
            f"schedule is d-dependent); got d in {sorted(degrees)}"
        )
    if len(nets) > 1:
        fed: set[int] = set()
        for g, j in np.argwhere(present).tolist():
            seed = seeds[g][j]
            if isinstance(seed, np.random.Generator):
                if id(seed) in fed:
                    raise TypeError(
                        "a numpy Generator seed can feed only one cell of a "
                        "multi-network batch (one object on a shared seed "
                        "axis would interleave its stream across networks); "
                        "pass int seeds or one distinct Generator per cell"
                    )
                fed.add(id(seed))
    if masks is not None and adversary_factory is None:
        if any(m is not None and m.any() for row in masks for m in row):
            raise ValueError("byz_mask given without an adversary_factory")
        masks = None
    if kernel is None:
        kernel = _resolve_union_kernel(container, nets, backend)
    else:
        _check_kernel(kernel, nets, backend)
    channel = _normalize_channel(channel)

    out: list[list[CountingResult | None]] = [[None] * len(configs) for _ in nets]
    for cfg, col_ids in _group_by_config(configs).items():
        sub_present = present[:, col_ids]
        sub_seeds = [[row[j] for j in col_ids] for row in seeds]
        sub_masks = None if masks is None else [[row[j] for j in col_ids] for row in masks]
        group = _run_config_group(
            nets, kernel, sub_seeds, sub_present, cfg, adversary_factory, sub_masks, channel
        )
        for row, group_row in zip(out, group):
            for local, j in enumerate(col_ids):
                row[j] = group_row[local]
    return out


def _normalize_union_masks(
    byz_mask: Any, nets: list[SmallWorldNetwork], cols: int
) -> list[list[BoolArray]] | None:
    """Normalize union masks to per-(network, column) ``(n_g,)`` arrays.

    Entry ``g`` of ``byz_mask`` covers network ``g``'s whole block: None
    or a single ``(n_g,)`` ndarray is shared by every column; a
    ``(C, n_g)`` ndarray or any non-ndarray sequence is taken per column.
    """
    if byz_mask is None:
        return None
    if isinstance(byz_mask, np.ndarray) and byz_mask.ndim == 1:
        raise ValueError(
            "a single shared mask cannot span a union-stack batch; provide "
            "one entry per network (an (n_g,) mask, a (C, n_g) stack, a "
            "per-column mask list, or None)"
        )
    entries = list(byz_mask)
    if len(entries) != len(nets):
        raise ValueError(
            f"got {len(entries)} placement entries for {len(nets)} networks; "
            "provide one entry per network"
        )
    out: list[list[BoolArray]] = []
    for g, (net, entry) in enumerate(zip(nets, entries)):
        what = f"network {g}'s placement mask"
        if entry is None or (isinstance(entry, np.ndarray) and entry.ndim == 1):
            out.append([_as_mask(entry, int(net.n), what)] * cols)
            continue
        per_col = list(entry)
        if len(per_col) != cols:
            raise ValueError(
                f"network {g}: got {len(per_col)} per-column masks for "
                f"{cols} seed columns"
            )
        out.append([_as_mask(m, int(net.n), what) for m in per_col])
    return out


def _resolve_union_kernel(
    networks_input: Any, nets: list[SmallWorldNetwork], backend: str | None = None
) -> FloodKernel:
    """Build (or adopt) the block-diagonal union kernel for this batch.

    One network needs no stacking: its own ``H`` CSR is the one-block
    union, wrapped without a copy.  Otherwise a pre-concatenated CSR
    attached to the input container (the ``union_csr`` attribute of
    :class:`repro.graphs.shared.NetworkTuple`, shipped through shared
    memory by ``SharedNetworkPack``) is adopted when its block sizes
    match, so sharded workers skip re-stacking.
    """
    if len(nets) == 1:
        return FloodKernel(nets[0].h.indptr, nets[0].h.indices, backend=backend)
    shipped = getattr(networks_input, "union_csr", None)
    if shipped is not None:
        sizes, indptr, indices = shipped
        if tuple(int(s) for s in sizes) == tuple(int(net.n) for net in nets):
            return UnionFloodKernel(sizes, indptr, indices, backend=backend)
    return UnionFloodKernel.from_networks(nets, backend=backend)


def _cell_streams(
    seeds: Sequence[Sequence[SeedLike]], present: BoolArray, channel: ChannelModel | None
) -> tuple[list[list[Any]], list[list[Any]], list[list[Any]]]:
    """Per-cell ``(color, adversary, channel)`` streams, ``None`` if absent.

    Each present cell gets the children of ``make_rng(seed)`` that
    :func:`repro.core.runner.run_counting` splits off, spawned straight
    from the seed (:func:`~repro.sim.rng.spawn_seed`); the channel stream
    is child 2, spawned only when a channel is active, which leaves the
    color/adversary streams bit-for-bit unchanged (spawning advances a
    child counter, not the stream).  Cells are visited block-major in
    column order.
    """
    blocks, cols = present.shape
    colors: list[list[Any]] = [[None] * cols for _ in range(blocks)]
    advs: list[list[Any]] = [[None] * cols for _ in range(blocks)]
    chans: list[list[Any]] = [[None] * cols for _ in range(blocks)]
    n_streams = 2 if channel is None else 3
    for g, j in np.argwhere(present).tolist():
        colors[g][j], advs[g][j], *rest = spawn_seed(seeds[g][j], n_streams)
        if rest:
            chans[g][j] = rest[0]
    return colors, advs, chans


def _fresh_state(
    present: BoolArray, offsets: Int64Array
) -> tuple[Int64Array, BoolArray]:
    """The ``(C, N)`` decided matrix and the ``(G, C)`` liveness matrix.

    Absent cells start dead and fully "decided" (phase 0): they count no
    undecided node, so they draw nothing, meter nothing, and can never
    keep a ``stop_when_all_decided`` run looping.
    """
    decided = np.full((present.shape[1], int(offsets[-1])), UNDECIDED, dtype=np.int64)
    for g, j in np.argwhere(~present).tolist():
        decided[j, offsets[g] : offsets[g + 1]] = 0
    return decided, present.copy()


def _draw_phase_colors(
    color_rngs: list[list[Any]],
    live: Int64Array,
    und: BoolArray,
    counts: Int64Array,
    n_sub: int,
) -> tuple[AnyArray, IntArray | None, int]:
    """Every live cell's colors for the whole phase, laid out for one put.

    One stream read per live cell per phase: ``sample_colors`` reads one
    ``rng.random`` double per color, so a call for ``n_sub * count``
    colors consumes the stream exactly as ``n_sub`` successive calls for
    ``count`` do, and per-cell streams still match the sequential engine
    draw for draw.  Cells draw block-major in column order (a cell with
    nothing undecided draws nothing).

    Returns ``(draws, index, draw_max)``.  Column ``i`` of the
    ``(n_sub, K)`` matrix ``draws`` belongs to the ``i``-th undecided
    position of ``und`` (the ``(B_live, N)`` transpose of the state), so
    each cell's draws fill one run of columns, with no permutation;
    ``index[i]`` is that position's flat offset in the C-ordered
    ``(N, B_live)`` state, and ``state.reshape(-1)[index] = draws[s]``
    scatters all of subphase ``s`` at once.  ``index`` is None when every
    position is undecided: the scatter is then the transposed copy of
    ``draws[s].reshape(B_live, N)``.  ``draws`` is held in the narrowest
    ladder rung of its values; ``draw_max`` (0 if nothing was drawn) is
    what picks the phase's state dtype.
    """
    blocks, b_live = counts.shape
    rows_n = und.shape[1]
    # Column of each cell's first draw: cells follow one another column
    # by column, blocks in order within a column, like und's positions.
    starts = (np.cumsum(counts.T) - counts.T.ravel()).reshape(b_live, blocks)
    drawn: list[tuple[int, int, Int64Array]] = []
    draw_max = 0
    for g in range(blocks):
        for row, col in enumerate(live):
            count = int(counts[g, row])
            if count:
                cell = sample_colors(color_rngs[g][int(col)], n_sub * count)
                drawn.append((int(starts[row, g]), count, cell))
                draw_max = max(draw_max, int(cell.max()))
    total = int(counts.sum())
    draws = np.empty((n_sub, total), dtype=_ladder_dtype(0, draw_max))
    for start, count, cell in drawn:
        draws[:, start : start + count] = cell.reshape(n_sub, count)
    if total == rows_n * b_live:
        return draws, None, draw_max
    # Flat state offset ``row * B_live + col`` of every (col, row) of und.
    flat = np.arange(0, rows_n * b_live, b_live)[None, :] + np.arange(b_live)[:, None]
    return draws, flat.ravel().compress(und.ravel()), draw_max


def _cell_results(
    nets: list[SmallWorldNetwork],
    present: BoolArray,
    offsets: Int64Array,
    decided: Int64Array,
    crashed: BoolArray,
    byz: BoolArray,
    meters: MeterBatch,
    traces: list[PhaseTrace],
    inj_acc: Int64Array,
    inj_rej: Int64Array,
) -> list[list[CountingResult | None]]:
    """Assemble per-cell results (``None`` at absent cells).

    ``decided``/``crashed``/``byz`` are ``(C, N)``; the injection
    counters are ``(G, C)``.
    """
    cols = present.shape[1]
    out: list[list[CountingResult | None]] = []
    for g, net in enumerate(nets):
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        row: list[CountingResult | None] = []
        for j in range(cols):
            if not present[g, j]:
                row.append(None)
                continue
            row.append(
                CountingResult(
                    n=hi - lo,
                    d=net.d,
                    k=net.k,
                    decided_phase=decided[j, lo:hi].copy(),
                    crashed=crashed[j, lo:hi].copy(),
                    byz=byz[j, lo:hi].copy(),
                    meter=meters.meter(g * cols + j),
                    trace=traces[g * cols + j],
                    injections_accepted=int(inj_acc[g, j]),
                    injections_rejected=int(inj_rej[g, j]),
                )
            )
        out.append(row)
    return out


class _UnionPlacementGroup:
    """One (network block, placement) sub-group of a union-stack batch.

    The flooding state stays fused across groups; only adversary
    planning, crash simulation, and the per-column mask applications run
    per group.  ``cols`` are the group's column ids; ``lo``/``hi`` its row
    segment in the union stack.  ``byz_nodes`` are block-local node ids
    (what the adversary protocol speaks); ``byz_rows`` the same nodes as
    union-global rows (what the fused state indexes).  ``alive_local``
    (the group-local indices of the group's trials still running — what
    the adversary protocol calls ``trials``), ``sel`` (their columns in
    the live state), ``block`` (the Byzantine cells as flat offsets into
    the C-ordered ``(N, B_live)`` state, row-major over ``(byz_rows,
    sel)`` like a plan's ``(byz, B)`` layers) and the column views are
    refreshed each phase (``block`` also when :meth:`place` re-points the
    placement).
    """

    __slots__ = (
        "g",
        "network",
        "lo",
        "hi",
        "n",
        "k",
        "cols",
        "byz",
        "byz_nodes",
        "byz_rows",
        "adversary",
        "alive_local",
        "sel",
        "block",
        "dec_cols",
        "crash_cols",
        "rng_cols",
    )

    def __init__(
        self,
        g: int,
        network: SmallWorldNetwork,
        lo: int,
        hi: int,
        cols: Int64Array,
        byz: BoolArray,
        adversary: Adversary,
    ) -> None:
        self.g = g
        self.network = network
        self.lo = lo
        self.hi = hi
        self.n = hi - lo
        self.k = int(network.k)
        self.cols = cols
        self.adversary = adversary
        # Phase-refreshed slots (assigned before every use each phase).
        self.alive_local: Any = None
        self.sel: Any = None
        self.block: Any = None
        self.dec_cols: Any = None
        self.crash_cols: Any = None
        self.rng_cols: tuple[np.random.Generator, ...] = ()
        self.place(byz)

    def place(self, byz: BoolArray) -> None:
        """Bind the group to the block-local placement mask ``byz``."""
        self.byz = byz
        self.byz_nodes = np.flatnonzero(byz)
        self.byz_rows = self.byz_nodes + self.lo


def _union_placement_groups(
    adversary_factory: AdversarySpec,
    nets: list[SmallWorldNetwork],
    offsets: Int64Array,
    masks: Sequence[Sequence[BoolArray | None]] | None,
    present: BoolArray,
) -> list[_UnionPlacementGroup]:
    """Sub-group present (block, column) cells by (network, placement).

    ``masks`` is ``G x C`` like the seed grid (``None`` = no Byzantine
    node anywhere); absent cells join no group and their masks are unread.
    """
    group_map: dict[tuple[int, bytes], tuple[BoolArray, list[int]]] = {}
    for g, j in np.argwhere(present).tolist():
        mask = _as_mask(None if masks is None else masks[g][j], int(nets[g].n), "mask")
        group_map.setdefault((g, mask.tobytes()), (mask, []))[1].append(j)
    if len(group_map) > 1 and isinstance(adversary_factory, Adversary):
        raise ValueError(
            "a shared adversary instance cannot drive trials with different "
            "networks or Byzantine placements (binding is per placement); "
            "pass a zero-argument adversary factory instead"
        )
    groups: list[_UnionPlacementGroup] = []
    for (g, _), (mask, idxs) in group_map.items():
        col_ids = np.asarray(idxs, dtype=np.int64)
        byz = np.ascontiguousarray(mask)
        groups.append(
            _UnionPlacementGroup(
                g,
                nets[g],
                int(offsets[g]),
                int(offsets[g + 1]),
                col_ids,
                byz,
                _batch_adversary(adversary_factory, len(idxs)),
            )
        )
    return groups


def _honest_int64(
    rows: AnyArray, sel: IntArray, n_rows: int, byz: BoolArray
) -> Int64Array:
    """A placement group's honest colors, ``rows[~byz][:, sel]`` in int64."""
    return _col_block(rows, sel, n_rows)[~byz].astype(np.int64)


def _traffic_int64(rows: AnyArray, sel: IntArray, n_rows: int) -> Int64Array:
    """A placement group's per-node send counts, ``rows[:, sel]`` in int64."""
    return _col_block(rows, sel, n_rows).astype(np.int64)


def _col_block(mat: AnyArray, sel: IntArray, n_rows: int) -> AnyArray:
    """``mat[:n_rows, sel]`` — a view when ``sel`` is one contiguous run."""
    if sel.shape[0] and int(sel[-1]) - int(sel[0]) + 1 == sel.shape[0]:
        return mat[:n_rows, int(sel[0]) : int(sel[-1]) + 1]
    return mat[:n_rows][:, sel]


def _run_config_group(
    nets: list[SmallWorldNetwork],
    ukernel: FloodKernel,
    seeds: Sequence[Sequence[SeedLike]],
    present: BoolArray,
    config: CountingConfig,
    adversary_factory: AdversarySpec | None,
    masks: Sequence[Sequence[BoolArray | None]] | None,
    channel: ChannelModel | None,
) -> list[list[CountingResult | None]]:
    """Algorithms 1 and 2 on the union stack: one config, G blocks x C columns.

    Mirrors :func:`repro.core.runner.run_counting` statement for statement
    on the block-diagonal ``(N, C)`` state, the flooding rounds running as
    single row-gathers over the union CSR.  With no ``adversary_factory``
    (Algorithm 1) the run builds no placement group, binds nothing, skips
    the pre-phase, charges one round per flooding round and meters no
    witness traffic, exactly as the scalar runner's ``adversary is not
    None`` gates do.  With one (Algorithm 2) cells sub-group by (network
    block, placement) (:class:`_UnionPlacementGroup`): each group's
    adversary binds to its own graph, simulates its own pre-phase crashes
    (memoized on placement + claim content) and plans only its own
    columns.  The Lemma 16 gate and the witness cap are per *block* (each
    block's own ``(n_g, k_g)``), applied to the block's row segment only;
    crash masks apply as one ``(N, B)`` mask, relay suppression per
    column, and witness metering reduces segment-wise.  Each phase's
    color state starts on the narrowest ladder rung its draws allow and
    widens when a plan leaves it, once out-of-band plan values have moved
    down (see the module docstring's dtype policy).  Returns results as
    a ``G x C`` nested list, ``None`` at absent cells.
    """
    d = nets[0].d
    blocks, cols = present.shape
    rows_n = ukernel.n
    offsets = ukernel.offsets
    witness_cap = np.asarray(
        [min(ball_size_bound(d, int(net.k), 1), int(net.n), 64) for net in nets],
        dtype=np.int64,
    )
    color_rngs, adv_rngs, chan_rngs = _cell_streams(seeds, present, channel)
    meters = MeterBatch(blocks * cols)
    traces = [PhaseTrace() for _ in range(blocks * cols)]
    byz_cn = np.zeros((cols, rows_n), dtype=bool)
    crashed_cn = np.zeros((cols, rows_n), dtype=bool)

    groups: list[_UnionPlacementGroup] = []
    if adversary_factory is not None:
        groups = _union_placement_groups(adversary_factory, nets, offsets, masks, present)
    adaptive_groups = [grp for grp in groups if _is_adaptive(grp.adversary)]
    for grp in groups:
        byz_cn[grp.cols, grp.lo : grp.hi] = grp.byz
        grp.adversary.bind_batch(
            grp.network, grp.byz, [adv_rngs[grp.g][int(j)] for j in grp.cols], config
        )
    # Verification exists only against an adversary: the pre-phase, the
    # extra per-round cost and witness metering all sit behind it.
    verify = config.verification and adversary_factory is not None
    if verify:
        for grp in groups:
            claims_list = grp.adversary.batch_topology_claims()
            if len(claims_list) != grp.cols.shape[0]:
                raise ValueError(
                    f"batch_topology_claims returned {len(claims_list)} claim "
                    f"sets for {grp.cols.shape[0]} trials"
                )
            by_id: dict[int, BoolArray] = {}
            cache: dict[frozenset[Any], BoolArray] = {}
            for local, j in enumerate(grp.cols):
                claims = claims_list[local]
                crashed = by_id.get(id(claims))
                if crashed is None:
                    key = _claims_signature(claims)
                    crashed = cache.get(key)
                    if crashed is None:
                        crashed = crash_phase(grp.network, grp.byz, claims)
                        cache[key] = crashed
                    by_id[id(claims)] = crashed
                crashed_cn[int(j), grp.lo : grp.hi] = crashed
        cell_ids = np.flatnonzero(present)  # network-major flat ids
        meters.add_rounds(cell_ids, 2)
        if config.count_messages:
            # Pre-phase claim broadcasts cost each trial its own network's
            # port total (d-entry claims on every G edge).
            ports = np.asarray([int(net.g_indptr[-1]) for net in nets], dtype=np.int64)
            meters.add_messages(cell_ids, ports[cell_ids // cols], ids_each=d)

    decided, alive = _fresh_state(present, offsets)
    inj_acc = np.zeros((blocks, cols), dtype=np.int64)
    inj_rej = np.zeros((blocks, cols), dtype=np.int64)
    round_cost = 1 + (config.verification_round_cost if verify else 0)
    count_sent = config.count_messages or bool(adaptive_groups)
    count_records = config.count_messages and verify
    # The most one channel round can raise a transmitted value.
    noise_step = 0 if channel is None else int(channel.noise_amp)
    state_dtype: type[np.signedinteger[Any]] = np.int32
    wide = False  # a plan left int32: int64 state for the rest of the run
    chan: ChannelState | None = None

    for phase in range(1, config.max_phase + 1):
        # Relocations re-point byz_cn mid-phase; honest nodes join the
        # undecided set from the next phase boundary.
        undecided_all = ~byz_cn & ~crashed_cn & (decided == UNDECIDED)
        active = np.add.reduceat(undecided_all, offsets[:-1], axis=1, dtype=np.int64).T
        if config.stop_when_all_decided:
            alive &= active > 0
        if not alive.any():
            break
        live = np.flatnonzero(alive.any(axis=0))
        b_live = live.shape[0]
        n_sub = subphase_count(
            phase, config.eps, d, config.alpha_variant, config.subphase_multiplier
        )
        # Colors are integers, so ``> threshold`` is ``> floor(threshold)``,
        # and an int threshold compares in the state's own dtype.
        thr_floor = int(np.floor(color_threshold(phase, d)))
        und = undecided_all[live]
        counts = active[:, live]
        alive_live = alive[:, live]
        live_ids = np.flatnonzero(alive)  # flat ids, network-major

        draws, draw_index, draw_max = _draw_phase_colors(
            color_rngs, live, und, counts, n_sub
        )
        # The phase's value bound [bound_lo, bound_hi] starts at its draws
        # plus the channel's noise; plans below may only widen it.
        noise = noise_step * phase
        bound_lo, bound_hi = 0, draw_max + noise
        # Plan values above ``cut`` only ever compare as "above every
        # honest color and the threshold", noise included, so they may
        # move down (see _shift_plans).
        cut = max(draw_max, thr_floor) + 2 * noise
        if not wide:
            state_dtype = _ladder_dtype(bound_lo, bound_hi)
        # Draws are held in the state's dtype, so every subphase's color
        # store is a same-dtype scatter (re-cast below if a plan widens).
        draws = draws.astype(state_dtype, copy=False)

        crashed_nc = np.ascontiguousarray(crashed_cn[live].T)
        any_crash = bool(crashed_nc.any())
        # Trials-as-columns state: a node's live-trial values share a cache
        # line (one byte each in an honest phase), which is what makes the
        # stacked kernel fast.
        cur = np.empty((rows_n, b_live), dtype=state_dtype)
        sent_buf = np.empty_like(cur)
        prev_kt = np.empty_like(cur)
        k_last = np.empty_like(cur)
        flag_continue = np.zeros((rows_n, b_live), dtype=bool)
        above_thr = np.empty((rows_n, b_live), dtype=bool)
        phase_inj_acc = np.zeros((blocks, b_live), dtype=np.int64)
        phase_inj_rej = np.zeros((blocks, b_live), dtype=np.int64)
        # Per-node round counters over the whole phase, reduced into the
        # per-block totals once at its end.  A phase has ``n_sub * phase``
        # rounds, so ``min_scalar_type(n_sub * phase)`` holds every count
        # without overflow.
        round_mask = np.empty((rows_n, b_live), dtype=bool)
        round_bytes = round_mask.view(np.uint8)
        counter_dtype = np.min_scalar_type(n_sub * phase)
        sent_rounds = np.zeros((rows_n, b_live), dtype=counter_dtype)
        record_rounds = np.zeros((rows_n, b_live), dtype=counter_dtype)
        # The send counts at the last adaptation point, which this
        # subphase's traffic is measured from.
        sent_mark = np.zeros_like(sent_rounds) if adaptive_groups else None
        if channel is not None:
            # One slot per live (network, column) cell over its own block
            # segment: a dead cell stops consuming draws exactly when its
            # own run would have stopped.  The phase runs n_sub * phase
            # rounds, which must fit the hash counters (checked before any
            # key is drawn); it refills the previous phase's buffers.
            chan = ChannelState(
                channel,
                [
                    (
                        row,
                        int(offsets[g]),
                        int(offsets[g + 1]),
                        chan_rngs[g][int(col)],
                    )
                    for g in range(blocks)
                    for row, col in enumerate(live)
                    if alive_live[g, row]
                ],
                rounds=n_sub * phase,
                reuse=chan,
            )
        if groups:
            live_pos = np.full(cols, -1, dtype=np.int64)
            live_pos[live] = np.arange(b_live)
            decided_nc = np.ascontiguousarray(decided[live].T)
            for grp in groups:
                keep = alive[grp.g, grp.cols]
                grp.alive_local = np.flatnonzero(keep)
                kept = grp.cols[keep]
                grp.sel = live_pos[kept]
                grp.block = grp.byz_rows[:, None] * b_live + grp.sel
                grp.rng_cols = tuple(adv_rngs[grp.g][int(j)] for j in kept)
                grp.dec_cols = _col_block(decided_nc[grp.lo : grp.hi], grp.sel, grp.n)
                grp.crash_cols = _col_block(crashed_nc[grp.lo : grp.hi], grp.sel, grp.n)

        for sub in range(1, n_sub + 1):
            # --- this subphase's colors (undecided honest nodes only) ----
            if draw_index is None:
                np.copyto(cur, draws[sub - 1].reshape(b_live, rows_n).T)
            else:
                cur.fill(0)
                cur.reshape(-1)[draw_index] = draws[sub - 1]

            # --- per-(block, placement) adversary plans ------------------
            group_plans: list[tuple[Any, ...]] = []
            plan_max = 0
            plan_min = 0
            # Adversaries see int64 colors whatever the state's rung, as in
            # the scalar runner: plan arithmetic such as ``max + 1`` must
            # not wrap in a narrow dtype.  Most never look, so every state
            # shares one narrow copy of this subphase's colors (plans are
            # applied only after all groups have planned) and widens its
            # own honest rows on first read.
            shown = cur.copy() if groups else cur
            for grp in groups:
                if grp.byz_nodes.size == 0 or grp.sel.shape[0] == 0:
                    continue
                state = BatchSubphaseState(
                    phase=phase,
                    subphase=sub,
                    rounds=phase,
                    k=grp.k,
                    network=grp.network,
                    byz_nodes=grp.byz_nodes,
                    trials=grp.alive_local,
                    honest_colors=functools.partial(
                        _honest_int64, shown[grp.lo : grp.hi], grp.sel, grp.n, grp.byz
                    ),
                    decided_phase=grp.dec_cols,
                    crashed=grp.crash_cols,
                    rngs=grp.rng_cols,
                )
                *plan, lo, hi = _validate_batch_plan(
                    grp.adversary.batch_subphase_plan(state),
                    grp.byz_nodes.shape[0],
                    grp.sel.shape[0],
                )
                plan_max, plan_min = max(plan_max, hi), min(plan_min, lo)
                group_plans.append((grp, *plan))

            # Widen before the plan is applied: to int64 for good once a
            # value leaves int32, else up the ladder to the narrowest rung
            # holding the plan plus its noise (re-sends carry injection
            # values, so the injection maximum covers them), after moving
            # out-of-band values down where that needs a narrower rung.
            # The int32 run would clamp a value past INT32_MAX - noise,
            # so such a plan stays as it is.
            bound_lo = min(bound_lo, plan_min)
            if plan_max > _INT32_MAX or plan_min < _INT32_MIN:
                wide = True
            elif not wide and plan_max > cut and plan_max + noise <= _INT32_MAX:
                group_plans, plan_max = _shift_plans(
                    group_plans, cut, noise, bound_lo, bound_hi, plan_max
                )
            bound_hi = max(bound_hi, plan_max + noise)
            need = np.int64 if wide else _ladder_dtype(bound_lo, bound_hi)
            if np.dtype(need).itemsize > np.dtype(state_dtype).itemsize:
                state_dtype = need
                cur = cur.astype(state_dtype)
                draws = draws.astype(state_dtype)
                sent_buf = np.empty_like(cur)
                prev_kt = np.empty_like(cur)
                k_last = np.empty_like(cur)

            # Apply the plans: initial colors now; injections are charged
            # here for every round the subphase runs (accepted up to the
            # group's Lemma 16 gate, rejected past it) and applied in the
            # round loop; non-relaying columns send 0 there, or re-send
            # what they inject in an accepted round.
            cur_flat = cur.reshape(-1)
            injecting: list[tuple[Any, ...]] = []
            silenced: list[tuple[Any, ...]] = []
            for grp, initial, injections, inj_counts, off, resend in group_plans:
                if initial is not None:
                    cur_flat[grp.block] = initial
                gate = grp.k - 1 if config.verification else phase
                if injections is not None:
                    ran = min(injections.shape[0], phase)
                    accepted = min(ran, gate)
                    if accepted > 0:
                        phase_inj_acc[grp.g, grp.sel] += inj_counts[:accepted].sum(axis=0)
                        injecting.append((grp.block, injections, accepted))
                    if ran > accepted:
                        phase_inj_rej[grp.g, grp.sel] += inj_counts[accepted:ran].sum(axis=0)
                if off is not None:
                    resent = injections if resend is None else resend
                    if resent is None:
                        silenced.append((grp.block[:, off], None, 0))
                    else:
                        last = min(gate, resent.shape[0])
                        silenced.append((grp.block[:, off], resent[:, :, off], last))

            # Only a crash or a suppressed relay makes a node send anything
            # but its running max; otherwise ``sent`` *is* ``cur``.
            sent = sent_buf if any_crash or silenced else cur
            sent_flat = sent.reshape(-1)
            # ``prev_kt`` shortcut.  Without a channel or a suppressed
            # relay, every transmitted value is nondecreasing over the
            # subphase's rounds: ``cur`` only grows (running maxima and
            # injections are maxima), and a crashed node sends 0 in every
            # round.  A neighbor-max of nondecreasing values is itself
            # nondecreasing, so max_{t < phase} recv_t is round phase-1's
            # receive, which lands straight in ``prev_kt``.  (A negative
            # initial color only makes that receive negative where the
            # running max would read 0, and both lose to any ``k_last``
            # above the non-negative threshold.)  phase == 1 has no
            # earlier round, so ``prev_kt`` stays 0.  A channel breaks
            # monotonicity (a dropped message can shrink a neighbor-max),
            # and so does a suppressed relay's re-send schedule; then
            # ``prev_kt`` is an explicit running max.
            monotone = chan is None and not silenced
            if phase == 1 or not monotone:
                prev_kt.fill(0)
            for t in range(1, phase + 1):
                # --- accepted injections: a running max over the cells a
                # layer marks nonzero -------------------------------------
                for block, injections, accepted in injecting:
                    if t <= accepted:
                        layer = injections[t - 1]
                        held = cur_flat[block]
                        np.maximum(held, layer, out=held, where=layer > 0)
                        cur_flat[block] = held

                # --- transmit --------------------------------------------
                if sent is not cur:
                    np.copyto(sent, cur)
                    if any_crash:
                        sent[crashed_nc] = 0
                    for rows_off, resent, last in silenced:
                        sent_flat[rows_off] = resent[t - 1] if t <= last else 0

                # --- receive: into k_last, whose last write is round
                # phase's k_t, except for a shortcut prev_kt ---------------
                got = prev_kt if monotone and t == phase - 1 else k_last
                ukernel.neighbor_max_stacked(sent, out=got, channel=chan)
                if any_crash:
                    got[crashed_nc] = 0

                # --- accounting (before the running-max update eats the
                # new-record evidence): per-node rounds with a send / a
                # new record, reduced per block once per phase ------------
                if count_sent:
                    np.not_equal(sent, 0, out=round_mask)
                    np.add(sent_rounds, round_bytes, out=sent_rounds)
                if count_records:
                    np.greater(got, cur, out=round_mask)
                    np.add(record_rounds, round_bytes, out=record_rounds)

                # After the last round only k_t is still needed.
                if t < phase:
                    if not monotone:
                        np.maximum(prev_kt, got, out=prev_kt)
                    np.maximum(cur, got, out=cur)
                    if any_crash:
                        cur[crashed_nc] = 0

            np.greater(k_last, prev_kt, out=round_mask)
            np.greater(k_last, thr_floor, out=above_thr)
            np.logical_and(round_mask, above_thr, out=round_mask)
            np.logical_or(flag_continue, round_mask, out=flag_continue)

            # --- between-subphase adaptation (mobility, re-planning) -----
            if sent_mark is not None:
                # Traffic since the last adaptation point is this
                # subphase's per-node count of rounds with a send, kept
                # narrow and widened to int64 only if a hook reads it.
                traffic = sent_rounds - sent_mark
                np.copyto(sent_mark, sent_rounds)
                for grp in adaptive_groups:
                    if grp.sel.shape[0] == 0:
                        continue
                    mask = grp.adversary.batch_adapt(
                        BatchAdaptationState(
                            phase=phase,
                            subphase=sub,
                            network=grp.network,
                            byz_nodes=grp.byz_nodes,
                            trials=grp.alive_local,
                            traffic=functools.partial(
                                _traffic_int64, traffic[grp.lo : grp.hi], grp.sel, grp.n
                            ),
                            rngs=grp.rng_cols,
                        )
                    )
                    if mask is not None:
                        grp.place(_adapted_mask(mask, grp.n))
                        grp.block = grp.byz_rows[:, None] * b_live + grp.sel
                        byz_cn[grp.cols, grp.lo : grp.hi] = grp.byz

        if config.count_messages:
            msg_senders = ukernel.segment_sum(sent_rounds, dtype=np.int64)
            meters.add_messages(live_ids, (msg_senders * d)[alive_live])
            if verify:
                msg_records = ukernel.segment_sum(record_rounds, dtype=np.int64)
                meters.add_messages(
                    live_ids,
                    (2 * msg_records * witness_cap[:, None])[alive_live],
                    ids_each=1,
                )
        meters.add_rounds(live_ids, n_sub * phase * round_cost)
        inj_acc[:, live] += phase_inj_acc
        inj_rej[:, live] += phase_inj_rej

        newly = und & ~flag_continue.T
        dec_rows = decided[live]
        dec_rows[newly] = phase
        decided[live] = dec_rows
        if config.record_phase_trace:
            newly_counts = np.add.reduceat(newly, offsets[:-1], axis=1, dtype=np.int64)
            for g in range(blocks):
                for row, col in enumerate(live):
                    if not alive_live[g, row]:
                        continue
                    traces[g * cols + int(col)].append(
                        PhaseRecord(
                            phase=phase,
                            subphases=n_sub,
                            flooding_rounds=n_sub * phase,
                            newly_decided=int(newly_counts[row, g]),
                            active_before=int(counts[g, row]),
                            injections_accepted=int(phase_inj_acc[g, row]),
                            injections_rejected=int(phase_inj_rej[g, row]),
                        )
                    )

    return _cell_results(
        nets, present, offsets, decided, crashed_cn, byz_cn, meters, traces, inj_acc, inj_rej
    )
