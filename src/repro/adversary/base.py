"""Full-information adversary interface (Section 2.1's adversarial model).

The paper's adversary is *omniscient*: at every round it knows the entire
state of every node, including all random choices already made (and, in the
paper's model, even future ones).  We grant exactly that: the engine hands
the adversary a :class:`SubphaseState` exposing the honest nodes' freshly
drawn colors, the full running-max state, decision status, and the network
itself.  The adversary responds with a :class:`SubphasePlan` describing what
its nodes transmit.

What the adversary **cannot** do (also per the model):

* communicate except along ``G`` edges (the engine only lets Byzantine
  values propagate through the adjacency),
* lie about its ID,
* push a fresh color past the first ``k - 1`` rounds of a subphase when
  verification is on (Lemma 16 — the engine rejects such injections, which
  is exactly what the witness-query machinery achieves), or
* avoid the crash rule: topology lies take effect only through
  :func:`repro.core.neighborhood.crash_phase`.

Batched adversary protocol
--------------------------
The trial-batched engine (:func:`repro.core.batch.run_counting_batch`) runs
``B`` independent trials on ``(n, B)`` trials-as-columns state matrices.  To
keep Byzantine sweeps on that fast path, adversaries speak a *batched*
variant of the same protocol:

* :meth:`Adversary.bind_batch` is called once per batched run with one
  private random stream per trial (the same per-trial ``adv_rng`` streams a
  sequence of scalar :func:`~repro.core.runner.run_counting` calls would
  receive, derived ``make_rng(seed) -> spawn``);
* :meth:`Adversary.batch_topology_claims` returns one
  :data:`~repro.core.neighborhood.AdjacencyClaims` mapping per trial for
  the pre-phase (the engine deduplicates identical claim sets before
  simulating crashes);
* each subphase, :meth:`Adversary.batch_subphase_plan` receives a
  :class:`BatchSubphaseState` — the ``B``-column analogue of
  :class:`SubphaseState`, carrying a ``(n_honest, B)`` honest-color matrix,
  ``(n, B)`` decision/crash state, and the per-trial rng tuple — and
  returns a :class:`BatchSubphasePlan` in dense array form: a ``(byz, B)``
  initial-color matrix, a ``(T, byz, B)`` injection array whose layer
  ``t - 1`` holds round ``t``'s injected value per (Byzantine row, trial)
  with 0 meaning "no injection", a ``(T, B)`` count of the injections each
  trial schedules per round (meters and the Lemma 16 counters charge
  injections, not nodes), and a ``(B,)`` relay vector.  Rows follow
  ``state.byz_nodes``; a plan names no node ids, so it cannot target an
  honest node.

The equivalence contract is *bit-for-bit*: column ``j`` of a batch plan
must be exactly the plan the same adversary would produce for trial ``j``'s
scalar state (the built-in strategies build the dense form natively; see
``tests/core/test_runner_batch.py``).  Scalar third-party adversaries keep
working unchanged: the base-class :meth:`Adversary.batch_subphase_plan`
is a generic per-column fallback that hands scalar :class:`SubphaseState`
views (:meth:`BatchSubphaseState.column`, whose honest colors are widened
only if the hook reads them) to ``subphase_plan`` once per trial, and
:func:`stack_subphase_plans` — the one converter from scalar plans —
maps their node ids to Byzantine rows, checking membership once per plan.
Injection is a running maximum, so same-round injections at one node
combine by ``max``; a trial that does not relay re-sends them
last-writer-wins in list order instead, which the stacked plan carries in
its ``resend`` array.  The fallback is still several times faster
end-to-end than sequential runs, because the flooding rounds stay
batched.  Adversaries that keep *mutable per-run state* should be passed
to the batch engine as a zero-argument factory; the engine then wraps
them in :class:`PerTrialAdversaryBatch`, which maintains one scalar
instance per trial exactly as the old sequential fallback did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generic, Sequence, TypeVar, overload

import numpy as np

from .._types import BoolArray, Int64Array, IntArray

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import CountingConfig
    from ..core.neighborhood import ByzantineClaims
    from ..graphs.smallworld import SmallWorldNetwork

__all__ = [
    "Injection",
    "SubphasePlan",
    "SubphaseState",
    "BatchSubphasePlan",
    "BatchSubphaseState",
    "BatchAdaptationState",
    "Adversary",
    "HonestAdversary",
    "PerTrialAdversaryBatch",
    "stack_subphase_plans",
    "has_native_batch",
]


#: Node arrays already validated by :class:`Injection`, keyed by object
#: identity (the values keep the arrays alive, so ids cannot be recycled).
#: Strategies reuse one ``byz_nodes`` array across thousands of Injection
#: objects per run; the memo turns repeat validation into a dict hit.
#: Arrays used in an Injection are treated as immutable from then on.
_VALIDATED_NODE_ARRAYS: dict[int, Int64Array] = {}


@dataclass(frozen=True)
class Injection:
    """Inject ``value`` at Byzantine nodes ``nodes`` at flooding round ``t``.

    ``t`` counts from 1 (the round in which the injected value is first
    transmitted to neighbors).  ``t = 1`` is indistinguishable from honest
    color generation — coin flips are private — and is always accepted;
    with verification on, rounds ``t > k - 1`` are rejected.

    ``nodes`` is validated eagerly (non-empty 1-D integer array, no
    duplicates) so a malformed schedule fails here, with a clear message,
    rather than deep inside the flood kernel's fancy indexing.  Membership
    in the Byzantine set needs run context and is checked by the engines
    via :meth:`require_byzantine`.
    """

    t: int
    nodes: Int64Array
    value: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("injection round must be >= 1")
        if self.value < 1:
            raise ValueError("injected colors must be positive")
        nodes = self.nodes
        if _VALIDATED_NODE_ARRAYS.get(id(nodes)) is not nodes:
            nodes = self._validate_nodes(nodes)
        object.__setattr__(self, "nodes", nodes)

    @staticmethod
    def _validate_nodes(nodes_in: Any) -> Int64Array:
        nodes = np.asarray(nodes_in)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError(
                f"injection nodes must be a non-empty 1-D array, got shape {nodes.shape}"
            )
        if not np.issubdtype(nodes.dtype, np.integer):
            raise ValueError(
                f"injection nodes must be integers, got dtype {nodes.dtype}"
            )
        if nodes.size > 1:
            # Strategies pass sorted node arrays (np.flatnonzero output);
            # for those a monotonicity scan replaces the np.unique sort.
            diffs = np.diff(nodes)
            if not ((diffs > 0).all() or (diffs < 0).all()):
                if np.unique(nodes).size != nodes.size:
                    raise ValueError("injection nodes contain duplicates")
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        if len(_VALIDATED_NODE_ARRAYS) >= 256:
            _VALIDATED_NODE_ARRAYS.clear()
        _VALIDATED_NODE_ARRAYS[id(nodes)] = nodes
        return nodes

    def require_byzantine(self, byz_mask: BoolArray) -> None:
        """Raise unless every injection target is Byzantine.

        ``byz_mask`` is the boolean placement mask over all nodes (a mask
        lookup, not a set intersection — this runs once per scheduled
        injection on the engines' hot path).
        """
        nodes = self.nodes
        out = (nodes < 0) | (nodes >= byz_mask.shape[0])
        if out.any():
            raise ValueError(
                f"injection at round {self.t} targets out-of-range nodes "
                f"{nodes[out].tolist()}"
            )
        ok = byz_mask[nodes]
        if not ok.all():
            raise ValueError(
                f"injection at round {self.t} targets non-Byzantine nodes "
                f"{nodes[~ok].tolist()}"
            )


@dataclass
class SubphasePlan:
    """What the Byzantine nodes do during one subphase."""

    #: Colors the Byzantine nodes "generate" at subphase start (length =
    #: number of Byzantine nodes, aligned with ``state.byz_nodes``).  None
    #: means generate nothing (send 0 until an injection or relayed max).
    initial_colors: IntArray | None = None
    #: Mid-subphase injections (each checked against Lemma 16).
    injections: list[Injection] = field(default_factory=list)
    #: Whether Byzantine nodes relay the running maximum like honest nodes.
    #: ``False`` models suppression (they stay silent apart from injections).
    relay: bool = True


_Arr = TypeVar("_Arr", bound="np.ndarray[Any, Any]")


class _LazyArray(Generic[_Arr]):
    """An array attribute given as an array or as a zero-argument callable
    returning one: the callable runs on the first read, and its result is
    kept."""

    def __set_name__(self, owner: type[Any], name: str) -> None:
        self.slot = "_" + name

    @overload
    def __get__(self, obj: None, owner: type[Any] | None = None) -> _LazyArray[_Arr]: ...

    @overload
    def __get__(self, obj: object, owner: type[Any] | None = None) -> _Arr: ...

    def __get__(
        self, obj: object, owner: type[Any] | None = None
    ) -> _LazyArray[_Arr] | _Arr:
        if obj is None:
            return self
        value: _Arr | Callable[[], _Arr] = getattr(obj, self.slot)
        if callable(value):
            value = value()
            setattr(obj, self.slot, value)
        return value

    def __set__(self, obj: object, value: _Arr | Callable[[], _Arr]) -> None:
        setattr(obj, self.slot, value)


@dataclass(init=False)
class SubphaseState:
    """Full-information snapshot handed to the adversary each subphase.

    ``honest_colors`` may be given as an array or as a zero-argument
    callable returning one, built on the first read.
    """

    honest_colors = _LazyArray[IntArray]()
    phase: int
    subphase: int
    rounds: int
    k: int
    network: "SmallWorldNetwork"
    byz_nodes: IntArray
    decided_phase: IntArray
    crashed: BoolArray
    rng: np.random.Generator

    def __init__(
        self,
        phase: int,
        subphase: int,
        rounds: int,
        k: int,
        network: "SmallWorldNetwork",
        byz_nodes: IntArray,
        honest_colors: IntArray | Callable[[], IntArray],
        decided_phase: IntArray,
        crashed: BoolArray,
        rng: np.random.Generator,
    ) -> None:
        self.phase = phase
        self.subphase = subphase
        self.rounds = rounds
        self.k = k
        self.network = network
        self.byz_nodes = byz_nodes
        self.honest_colors = honest_colors
        self.decided_phase = decided_phase
        self.crashed = crashed
        self.rng = rng

    @property
    def n(self) -> int:
        return self.network.n

    def global_max_color(self) -> int:
        """The largest honest color drawn this subphase (omniscient view)."""
        return int(self.honest_colors.max()) if self.honest_colors.size else 0


@dataclass
class BatchSubphasePlan:
    """Per-trial Byzantine behavior for one subphase of a batched run.

    Column ``j`` of every field must equal the :class:`SubphasePlan` the
    adversary would emit for trial ``j`` run sequentially.  Byzantine rows
    follow ``state.byz_nodes``; values are int64 (the engine validates
    shapes and signs before applying anything).
    """

    #: ``(byz, B)`` initial-color matrix, or None when no trial generates.
    #: A scalar plan's ``initial_colors=None`` is represented as an
    #: all-zero column (identical engine behavior: Byzantine state starts
    #: at the 0 sentinel either way).
    initial_colors: IntArray | None = None
    #: ``(T, byz, B)`` injected values: layer ``t - 1`` is round ``t``, 0
    #: means no injection, and rounds past ``T`` (or past the subphase)
    #: inject nothing.  None means no trial injects.
    injections: Int64Array | None = None
    #: ``(T, B)`` number of injections trial ``j`` schedules in round ``t``
    #: (what the accepted/rejected counters and meters charge); required
    #: with ``injections``.
    counts: Int64Array | None = None
    #: Per-trial relay flags (``(B,)`` bool array) or one shared bool.
    relay: BoolArray | bool = True
    #: ``(T, byz, B)`` values a non-relaying trial re-sends each round,
    #: when they differ from ``injections`` (several same-round injections
    #: at one node re-send the last one, not their maximum).  None means
    #: those trials re-send ``injections``.
    resend: Int64Array | None = None


@dataclass(init=False)
class BatchSubphaseState:
    """The ``B``-trial analogue of :class:`SubphaseState`.

    All per-node state is trials-as-columns: ``honest_colors`` is
    ``(n_honest, B)``, ``decided_phase`` and ``crashed`` are ``(n, B)``.
    ``trials`` holds the indices — into the trial list this adversary was
    bound with (one placement sub-group of the batch; see
    :mod:`repro.core.batch`) — of the trials still running (trials leave
    the batch as they finish), and ``rngs`` their private adversary
    streams in the same order.

    ``honest_colors`` is always int64, as in the scalar runner, whatever
    narrow dtype the engine's own state runs in this phase: plan
    arithmetic such as ``global_max_colors() + 1`` never wraps.  It may be
    given as an array or as a zero-argument callable returning one; the
    engine passes a callable over its own copy of the subphase's colors,
    so the int64 matrix is built on the first read (most strategies never
    read it) and, once built, kept.
    """

    honest_colors = _LazyArray[IntArray]()
    phase: int
    subphase: int
    rounds: int
    k: int
    network: "SmallWorldNetwork"
    byz_nodes: IntArray
    trials: IntArray
    decided_phase: IntArray
    crashed: BoolArray
    rngs: tuple[np.random.Generator, ...]

    def __init__(
        self,
        phase: int,
        subphase: int,
        rounds: int,
        k: int,
        network: "SmallWorldNetwork",
        byz_nodes: IntArray,
        trials: IntArray,
        honest_colors: IntArray | Callable[[], IntArray],
        decided_phase: IntArray,
        crashed: BoolArray,
        rngs: tuple[np.random.Generator, ...],
    ) -> None:
        self.phase = phase
        self.subphase = subphase
        self.rounds = rounds
        self.k = k
        self.network = network
        self.byz_nodes = byz_nodes
        self.trials = trials
        self.honest_colors = honest_colors
        self.decided_phase = decided_phase
        self.crashed = crashed
        self.rngs = rngs

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def batch(self) -> int:
        return len(self.rngs)

    def global_max_colors(self) -> IntArray:
        """Per-trial largest honest color drawn this subphase (``(B,)``)."""
        if self.honest_colors.shape[0] == 0:
            return np.zeros(self.batch, dtype=np.int64)
        return self.honest_colors.max(axis=0)

    def column(self, j: int) -> SubphaseState:
        """Trial ``j``'s scalar view (used by the per-column fallback).

        Its honest colors stay lazy: the batch matrix is widened only if
        the scalar hook reads them.
        """
        return SubphaseState(
            phase=self.phase,
            subphase=self.subphase,
            rounds=self.rounds,
            k=self.k,
            network=self.network,
            byz_nodes=self.byz_nodes,
            honest_colors=lambda: self.honest_colors[:, j],
            decided_phase=self.decided_phase[:, j],
            crashed=self.crashed[:, j],
            rng=self.rngs[j],
        )


@dataclass(init=False)
class BatchAdaptationState:
    """Observed-traffic snapshot handed to :meth:`Adversary.batch_adapt`.

    The batched Byzantine engines call the adaptation hook at the **end of
    every subphase** (so the run's first subphase always executes under
    the placement the adversary was bound with).  ``traffic`` is an
    ``(n, B_live)`` int64 matrix counting, per node and live trial, the
    rounds in which that node *attempted* a transmission (sent a nonzero
    value, before any channel loss) since the previous adaptation point.
    Like :attr:`BatchSubphaseState.honest_colors` it may be given as an
    array or as a zero-argument callable returning one; the engine passes
    a callable over its own narrow copy of the subphase's counters, so the
    int64 matrix is built on the first read (the mobile adversary never
    reads it) and, once built, kept.  ``trials`` indexes the adversary's
    bound trial list exactly like :attr:`BatchSubphaseState.trials`, and
    ``rngs`` carries the same per-trial private streams in the same order.
    """

    traffic = _LazyArray[Int64Array]()
    phase: int
    subphase: int
    network: "SmallWorldNetwork"
    byz_nodes: IntArray
    trials: IntArray
    rngs: tuple[np.random.Generator, ...]

    def __init__(
        self,
        phase: int,
        subphase: int,
        network: "SmallWorldNetwork",
        byz_nodes: IntArray,
        trials: IntArray,
        traffic: Int64Array | Callable[[], Int64Array],
        rngs: tuple[np.random.Generator, ...],
    ) -> None:
        self.phase = phase
        self.subphase = subphase
        self.network = network
        self.byz_nodes = byz_nodes
        self.trials = trials
        self.traffic = traffic
        self.rngs = rngs

    @property
    def n(self) -> int:
        return self.network.n


def stack_subphase_plans(
    plans: Sequence[SubphasePlan], byz_nodes: IntArray, n: int
) -> BatchSubphasePlan:
    """Merge per-trial scalar plans (column ``j`` = ``plans[j]``) into one
    dense :class:`BatchSubphasePlan` over ``byz_nodes``, the run's sorted
    Byzantine ids among ``n`` nodes.

    ``initial_colors=None`` columns become all-zero columns, which the
    engine treats identically (Byzantine nodes start each subphase at the
    0 sentinel); a misaligned initial-color vector fails with the message
    the sequential engine raises.  Every injection target is mapped to its
    Byzantine row by one gather over all the plans' injections: a target
    outside ``[0, n)`` or outside the Byzantine set raises the
    :meth:`Injection.require_byzantine` error of the first injection that
    names one, as the sequential engine does.  Same-round injections at
    one node combine by ``max`` (injection is a running maximum).  A
    non-relaying trial re-sends its injections in list order, the last
    writer winning, so when such a trial injects the plan also carries
    that ``resend`` array.
    """
    batch, m = len(plans), byz_nodes.shape[0]
    initial: Int64Array | None = None
    for j, plan in enumerate(plans):
        if plan.initial_colors is None:
            continue
        vals = np.asarray(plan.initial_colors, dtype=np.int64)
        if vals.shape != (m,):
            raise ValueError("initial_colors must align with byz nodes")
        if initial is None:
            initial = np.zeros((m, batch), dtype=np.int64)
        initial[:, j] = vals
    relay = np.array([bool(plan.relay) for plan in plans], dtype=bool)
    listed = [(j, inj) for j, plan in enumerate(plans) for inj in plan.injections]
    if not listed:
        return BatchSubphasePlan(initial_colors=initial, relay=relay)

    targets = np.concatenate([inj.nodes for _, inj in listed])
    sizes = np.array([inj.nodes.shape[0] for _, inj in listed], dtype=np.int64)
    ends = np.cumsum(sizes)
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[byz_nodes] = np.arange(m)
    in_range = (targets >= 0) & (targets < n)
    rows = row_of[np.where(in_range, targets, 0)]  # no wrap-around reads
    bad = ~in_range | (rows < 0)
    if bad.any():
        first = int(np.searchsorted(ends, int(np.argmax(bad)), side="right"))
        listed[first][1].require_byzantine(row_of >= 0)
    ts = np.array([inj.t for _, inj in listed], dtype=np.int64) - 1
    cols = np.array([j for j, _ in listed], dtype=np.int64)
    values = np.array([inj.value for _, inj in listed], dtype=np.int64)
    injections = np.zeros((int(ts.max()) + 1, m, batch), dtype=np.int64)
    np.maximum.at(
        injections,
        (np.repeat(ts, sizes), rows, np.repeat(cols, sizes)),
        np.repeat(values, sizes),
    )
    counts = np.zeros((injections.shape[0], batch), dtype=np.int64)
    np.add.at(counts, (ts, cols), 1)
    resend: Int64Array | None = None
    if not relay[cols].all():
        resend = np.zeros_like(injections)
        for (j, inj), stop, size in zip(listed, ends.tolist(), sizes.tolist()):
            if not relay[j]:
                resend[inj.t - 1, rows[stop - size : stop], j] = inj.value
    return BatchSubphasePlan(
        initial_colors=initial,
        injections=injections,
        counts=counts,
        relay=relay,
        resend=resend,
    )


class Adversary:
    """Base adversary: behaves exactly like honest nodes (no attack)."""

    name = "honest-behavior"

    def __init__(self) -> None:
        self.network: "SmallWorldNetwork | None" = None
        self.byz_mask: BoolArray | None = None
        self.rng: np.random.Generator | None = None
        self.batch_rngs: tuple[np.random.Generator, ...] = ()

    # ------------------------------------------------------------------
    def bind(
        self,
        network: "SmallWorldNetwork",
        byz_mask: BoolArray,
        rng: np.random.Generator | None,
        config: "CountingConfig",
    ) -> None:
        """Called once before the run; override for precomputation."""
        self.network = network
        self.byz_mask = np.asarray(byz_mask, dtype=bool)
        self.rng = rng
        self.config = config

    def topology_claims(self) -> "ByzantineClaims":
        """Claimed H-adjacency per Byzantine node for the pre-phase.

        Defaults to truthful claims (topology lies only trigger crashes,
        Lemma 15, so most strategies avoid them).
        """
        assert self.network is not None and self.byz_mask is not None
        from ..core.neighborhood import truthful_claims

        claims: "ByzantineClaims" = {}
        claims.update(truthful_claims(self.network, np.flatnonzero(self.byz_mask)))
        return claims

    def subphase_plan(self, state: SubphaseState) -> SubphasePlan:
        """Default: draw honest-looking colors and relay faithfully."""
        from ..core.colors import sample_colors

        return SubphasePlan(
            initial_colors=sample_colors(state.rng, state.byz_nodes.shape[0]),
            injections=[],
            relay=True,
        )

    # ------------------------------------------------------------------
    # Batched protocol (see module docstring)
    # ------------------------------------------------------------------
    def bind_batch(
        self,
        network: "SmallWorldNetwork",
        byz_mask: BoolArray,
        rngs: Sequence[np.random.Generator],
        config: "CountingConfig",
    ) -> None:
        """Called once before a batched run, with one rng per trial."""
        self.batch_rngs = tuple(rngs)
        self.bind(
            network,
            byz_mask,
            self.batch_rngs[0] if self.batch_rngs else None,
            config,
        )

    def batch_topology_claims(self) -> "list[ByzantineClaims]":
        """Per-trial pre-phase claims (one mapping per bound trial).

        The default replays :meth:`topology_claims` under each trial's rng;
        deterministic strategies override this to compute the claims once.
        """
        batch = len(self.batch_rngs)
        if type(self).topology_claims is Adversary.topology_claims:
            # The base implementation (truthful claims) is deterministic
            # and rng-free: compute once and share across trials.
            return [self.topology_claims()] * batch
        claims: "list[ByzantineClaims]" = []
        for rng in self.batch_rngs:
            self.rng = rng
            claims.append(self.topology_claims())
        return claims

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        """Generic per-column fallback: one ``subphase_plan`` call per trial.

        Exact for any adversary whose scalar hook is a pure function of its
        state (all built-ins): each column sees its own trial's rng both
        via ``state.rng`` and via ``self.rng``, which is re-bound per
        column exactly as sequential runs re-bind it per trial.  Strategies
        override this with natively vectorized plans; adversaries with
        *other* mutable per-run state should go through
        :class:`PerTrialAdversaryBatch` instead.  The base class's own
        honest behavior needs no scalar view: it draws each trial's colors
        straight into that trial's column.
        """
        if type(self).subphase_plan is Adversary.subphase_plan:
            from ..core.colors import sample_color_columns

            return BatchSubphasePlan(
                initial_colors=sample_color_columns(state.rngs, state.byz_nodes.shape[0])
            )
        plans: list[SubphasePlan] = []
        for j in range(state.batch):
            self.rng = state.rngs[j]
            plans.append(self.subphase_plan(state.column(j)))
        return stack_subphase_plans(plans, state.byz_nodes, state.n)

    def batch_adapt(self, state: BatchAdaptationState) -> BoolArray | None:
        """Optional between-subphase adaptation hook (default: static).

        The batched Byzantine engines call this at the end of every
        subphase with a :class:`BatchAdaptationState` carrying the traffic
        observed since the last adaptation point.  Return a replacement
        ``(n,)`` boolean placement mask to relocate the Byzantine set for
        the *remaining* subphases, or ``None`` to keep the current
        placement.  The engines detect overrides by method identity
        (``type(adv).batch_adapt is not Adversary.batch_adapt``), so the
        base no-op costs nothing on static runs and all built-in
        strategies are unchanged.  A returned mask must preserve the
        placement *size* guarantees the run was configured with — engines
        validate only shape and dtype.  Per-phase crash simulation is not
        re-run: crashes from topology lies precede any adaptation.
        """
        return None


class HonestAdversary(Adversary):
    """Alias emphasizing a no-attack control run."""

    name = "honest"


class PerTrialAdversaryBatch(Adversary):
    """Generic per-column wrapper: one scalar adversary instance per trial.

    This is the batch-engine equivalent of the old sequential fallback —
    each trial gets its own instance from ``factory``, bound with that
    trial's private rng, and every batch hook fans out to the per-trial
    instances.  It is exact for *any* scalar adversary, including stateful
    ones, at the cost of one Python-level hook call per trial per subphase
    (the flooding rounds themselves stay batched).
    """

    name = "per-trial-batch"

    def __init__(self, factory: Callable[[], Adversary], batch: int) -> None:
        super().__init__()
        self.instances = [factory() for _ in range(batch)]

    def bind_batch(
        self,
        network: "SmallWorldNetwork",
        byz_mask: BoolArray,
        rngs: Sequence[np.random.Generator],
        config: "CountingConfig",
    ) -> None:
        if len(rngs) != len(self.instances):
            raise ValueError(
                f"bound {len(rngs)} trials for {len(self.instances)} instances"
            )
        self.batch_rngs = tuple(rngs)
        self.network = network
        self.byz_mask = np.asarray(byz_mask, dtype=bool)
        self.config = config
        for inst, rng in zip(self.instances, rngs):
            inst.bind(network, byz_mask, rng, config)

    def batch_topology_claims(self) -> "list[ByzantineClaims]":
        return [inst.topology_claims() for inst in self.instances]

    def batch_subphase_plan(self, state: BatchSubphaseState) -> BatchSubphasePlan:
        plans = [
            self.instances[int(trial)].subphase_plan(state.column(j))
            for j, trial in enumerate(state.trials)
        ]
        return stack_subphase_plans(plans, state.byz_nodes, state.n)


def has_native_batch(adversary: Adversary) -> bool:
    """Whether ``adversary`` can drive a whole batch as a single instance.

    True when the class ports :meth:`Adversary.batch_subphase_plan`
    natively, or when it overrides *neither* scalar hook (the stateless
    base behavior, for which the generic per-column fallback is exact).
    Scalar-only subclasses return False and get wrapped in
    :class:`PerTrialAdversaryBatch` by the batch engine, preserving the
    one-instance-per-trial semantics of sequential runs.
    """
    cls = type(adversary)
    if cls.batch_subphase_plan is not Adversary.batch_subphase_plan:
        return True
    return (
        cls.subphase_plan is Adversary.subphase_plan
        and cls.topology_claims is Adversary.topology_claims
    )
