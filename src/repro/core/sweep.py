"""Fused sweep engine over (network, seed, config, placement, strategy) grids.

The paper's headline experiments sweep over *placements and strategies*,
not just seeds: Theorem 1 accuracy (E07) contrasts adversary strategies at
several Byzantine budgets, the Core-resilience study (E11) varies liar
placements, and the ablation grids (E14) vary budget, placement shape, and
the error parameter.  Each cell of such a grid is one independent
:func:`repro.core.runner.run_counting` trial, so the whole grid flattens
into trials-as-columns batches for the batched engine
(:func:`repro.core.batch.run_counting_batch`) — which batches across
seeds, configs (grouped), and per-trial Byzantine placements.  The only
axis that cannot share a batch is the *strategy* (one adversary factory
drives one batch), so :func:`run_sweep` fuses each strategy's
``placements x configs x seeds`` block into a single engine call.

Network axis
------------
The paper's claims are *scaling* statements, so the sweeps that matter
most iterate over network sizes.  :func:`run_multi_sweep` extends the
fusion across the network axis; a single-network :func:`run_sweep` is
the one-network case of the same planner,
``run_multi_sweep([network], ...).sweep(0)``, and :func:`run_sweep`
takes one network only.  Every sweep plans one grid of cells: each
network has its own seed axis (a shared axis is every network's axis,
per-network axes may differ in length), and each cell is one (network,
placement, config, seed) trial.  Shards run through
:func:`repro.core.batch.run_counting_multinet` on the block-diagonal
**union stack**: networks stack on the *row* axis and the cells of each
network fill its block's columns, so each flooding round is a single
row-gather over the concatenated CSR with no padding rows (see
:mod:`repro.core.batch`); a shorter block leaves its tail cells absent.
All networks in one multi-sweep must share the degree ``d`` — the phase
schedule is ``d``-dependent.  A ``numpy`` ``Generator`` seed feeds
exactly one cell, so a shared seed axis of Generators over two or more
networks is rejected with a :class:`TypeError` (give each network its
own axis instead).

Equivalence contract
--------------------
Every cell is **bit-for-bit** equal to the scalar run it replaces::

    run_byzantine_counting(network, make_adversary(strategy), placement,
                           config=config, seed=seed)

(or plain Algorithm 1 ``run_counting(network, config, seed=seed)`` for
``strategies=None`` honest grids) — enforced per cell by
``tests/core/test_sweep.py`` and ``tests/core/test_percell_seeds.py``,
cross-engine (message-level agents vs vectorized runner vs the union
engine's three entry points) by
``tests/integration/test_engine_equivalence.py``, and on random ragged
size mixes by the hypothesis properties in
``tests/property/test_padding_properties.py``.  Results come back in grid
order (network-major, then strategy, placement, config, seed) wrapped in a
:class:`SweepResult` / :class:`MultiSweepResult` for shaped access.

Sharding
--------
``jobs=N`` fans the grid out over worker processes through
:func:`repro.experiments.common.parallel_map`, and every sweep ships its
whole network axis, one network or many, as one
:class:`~repro.graphs.shared.SharedNetworkPack` (workers attach its one
shared-memory segment zero-copy).  Over two or more networks the pack
also carries the pre-stacked union CSR, and a shard whose networks, in
first-appearance order, are the whole axis adopts it instead of
re-stacking; one network needs none.  The pack carries network data
only: the kernel backend and the channel model ride every shard task,
as given, and the worker passes them to the engine as arguments.  Being
part of the tasks, they are part of the checkpoint plan key too, so a
changed backend or channel starts a fresh journal.

Shard boundaries are **cost weighted**: each cell's expected cost is
modeled as ``n x round_complexity_bound(n, eps, d) x strategy factor``
(early-stop attacks end runs after a few phases, inflation floods every
phase — see :data:`STRATEGY_COST_FACTORS`), and boundaries are placed so
shards carry roughly equal *cost* rather than equal cell counts, which
balances the pool when sizes or strategies are skewed.  Shards cut on
cell boundaries of one strategy block, in network-major order.  Chunks
never drop below :data:`MIN_SHARD_CELLS` cells, never straddle a
strategy boundary, and can be forced back to fixed-size slicing with
``shard_cells``.  Only that cost-targeted plan (``jobs > 1``, no
``shard_cells``) evaluates the cost model.  For ``jobs > 1`` every
strategy spec must be picklable — a name from
:data:`~repro.core.estimator.ADVERSARIES`, a module-level factory, or a
plain adversary instance.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .._types import BoolArray, SeedLike
from ..adversary.base import Adversary
from ..graphs.shared import NetworkTuple
from ..sim.channel import ChannelModel, _normalize_channel
from .batch import run_counting_multinet
from .config import CountingConfig
from .results import BatchCountingResult, CountingResult

if TYPE_CHECKING:  # pragma: no cover
    import os

    from ..exec import ExecutionReport, RetryPolicy
    from ..graphs.smallworld import SmallWorldNetwork

#: A strategy-axis entry: ``None`` (honest Algorithm 1), a registered
#: adversary name, an :class:`Adversary` instance, or a factory.
StrategySpec = "str | Adversary | Callable[[], Adversary] | None"

__all__ = [
    "run_sweep",
    "run_multi_sweep",
    "SweepResult",
    "MultiSweepResult",
    "SweepCell",
    "MIN_SHARD_CELLS",
    "STRATEGY_COST_FACTORS",
]

#: Smallest shard the auto-splitter will produce: below this the batched
#: engine's per-call fixed costs dominate and sharding stops paying.
MIN_SHARD_CELLS = 4

#: Relative expected-cost factors per adversary strategy, used by the
#: cost-weighted shard splitter.  Normalized to inflation = 1.0 (it floods
#: every phase and batches best); early-stop ends runs after a few phases,
#: so its cells finish in roughly a third of the time.  Unknown strategies
#: default to 1.0 — the factors only steer load balancing, never results.
STRATEGY_COST_FACTORS: dict[str, float] = {
    "early-stop": 0.35,
    "silent": 0.45,
    "suppression": 0.55,
    "topology-liar": 0.7,
    "combo": 0.85,
    "adaptive-record": 0.9,
    "mobile": 0.85,
    "traffic-adaptive": 0.9,
    "inflation": 1.0,
    "honest": 0.8,
    "honest-behavior": 0.8,
}

#: Cost factor for ``strategies=None`` honest Algorithm 1 cells (no
#: verification rounds, no witness traffic).
_HONEST_COST_FACTOR = 0.5


def _strategy_factory(spec: StrategySpec) -> Adversary | Callable[[], Adversary] | None:
    """Resolve a strategy spec to what the batched engine expects.

    A spec is ``None`` (honest Algorithm 1), a registered adversary name,
    an :class:`Adversary` instance, or a zero-argument factory.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        from .estimator import make_adversary

        return lambda name=spec: make_adversary(name)
    return spec  # Adversary instance or zero-argument factory


def _strategy_cost_factor(spec: StrategySpec) -> float:
    """Relative expected cost of one cell under ``spec`` (load balancing)."""
    if spec is None:
        return _HONEST_COST_FACTOR
    name = spec if isinstance(spec, str) else getattr(spec, "name", None)
    if not isinstance(name, str):
        return 1.0
    return STRATEGY_COST_FACTORS.get(name, 1.0)


def _cell_cost(
    n: int, d: int, config: CountingConfig, cache: dict[tuple[int, CountingConfig], float]
) -> float:
    """Expected cost of one (network, config) cell: ``n x rounds bound``.

    The strategy factor multiplies on top (it is constant per strategy
    block).  Cached per (n, config): the paper-exact schedule bound loops
    over phases.
    """
    key = (n, config)
    cost = cache.get(key)
    if cost is None:
        from ..analysis.bounds import round_complexity_bound

        vc = config.verification_round_cost if config.verification else 0
        cost = float(n) * round_complexity_bound(
            n, config.eps, d, verification_cost=vc
        )
        cache[key] = cost
    return cost


def _shard_bounds(
    costs: list[float], target_cost: float | None, shard_cells: int | None
) -> list[tuple[int, int]]:
    """Shard boundaries over one strategy block's cells, in grid order.

    ``shard_cells`` forces fixed-size slicing; otherwise boundaries are
    placed greedily so each shard accumulates ~``target_cost`` of modeled
    cell cost (``None`` = serial: one maximal shard).  Shards never drop
    below :data:`MIN_SHARD_CELLS` cells, including the tail.
    """
    m = len(costs)
    if shard_cells is not None:
        if shard_cells < 1:
            raise ValueError(f"shard_cells must be >= 1, got {shard_cells}")
        return [(lo, min(lo + shard_cells, m)) for lo in range(0, m, shard_cells)]
    if target_cost is None or m <= MIN_SHARD_CELLS:
        return [(0, m)]
    bounds: list[tuple[int, int]] = []
    lo = 0
    acc = 0.0
    for i in range(m):
        acc += costs[i]
        if (
            acc >= target_cost
            and i + 1 - lo >= MIN_SHARD_CELLS
            and m - (i + 1) >= MIN_SHARD_CELLS
        ):
            bounds.append((lo, i + 1))
            lo = i + 1
            acc = 0.0
    bounds.append((lo, m))
    return bounds


def _plan_shards(
    strategy_axis: list[StrategySpec],
    n_items: int,
    item_costs: Callable[[], list[float]],
    jobs: int | None,
    shard_cells: int | None,
) -> list[tuple[int, StrategySpec, int, int]]:
    """``(strategy index, spec, lo, hi)`` shards over the sweep's items.

    ``item_costs()`` returns one strategy block's ``n_items`` modeled item
    costs, in grid order (every strategy block has the same items).  With
    ``jobs > 1`` and no ``shard_cells`` each shard aims at ``1/jobs`` of
    the whole grid's cost, the strategy's cost factor scaling its items;
    otherwise each block is one shard or is cut into ``shard_cells``
    slices, and the cost model is never evaluated.
    """
    target_cost: float | None = None
    costs = [0.0] * n_items
    if jobs and jobs > 1 and shard_cells is None:
        costs = item_costs()
        factors = sum(_strategy_cost_factor(spec) for spec in strategy_axis)
        target_cost = sum(costs) * factors / jobs
    plan: list[tuple[int, StrategySpec, int, int]] = []
    for s, spec in enumerate(strategy_axis):
        block_target = None if target_cost is None else target_cost / _strategy_cost_factor(spec)
        plan.extend((s, spec, lo, hi) for lo, hi in _shard_bounds(costs, block_target, shard_cells))
    return plan


def _validate_seeds(seeds: Any) -> list[SeedLike]:
    """Materialize and validate the sweep's seed axis, eagerly and typed.

    Catches the grid-assembly traps before any batch is built: a bare
    ``numpy.random.Generator`` where a *sequence* of per-trial seeds is
    required, a one-shot iterator/generator (the seed axis is replayed
    once per strategy block, so it must be re-iterable), an empty axis,
    nested sequences as entries, and duplicate entries (a duplicated seed silently duplicates every
    grid cell that uses it — and a duplicated ``Generator`` object would
    share one stream across trials, breaking per-trial reproducibility).
    """
    if isinstance(seeds, np.random.Generator):
        raise TypeError(
            "seeds must be a sequence of per-trial seeds, got a single "
            "numpy Generator; wrap it in a list ([rng]) for a one-trial sweep"
        )
    if isinstance(seeds, (str, bytes)):
        raise TypeError(f"seeds must be a sequence of seeds, got {type(seeds).__name__}")
    if iter(seeds) is seeds:
        raise TypeError(
            "seeds must be a materialized sequence (list/tuple/array); a "
            "one-shot generator or iterator cannot be replayed across the "
            "sweep's strategy blocks"
        )
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_sweep needs at least one seed")
    seen: set[tuple[str, object]] = set()
    for s in seeds:
        if s is None:
            # ``None`` means a fresh-entropy rng per trial (make_rng), so
            # repeated Nones are distinct trials, never duplicates.
            continue
        if isinstance(s, (list, tuple)) or np.ndim(s) > 0:
            # A nested axis is never one seed; on a single network it
            # would otherwise read as that network's own seed axis.
            raise TypeError(
                f"seed entries must be scalar seeds (int, Generator or None), "
                f"got {type(s).__name__}; pass per-network axes only with a "
                "list of networks"
            )
        try:
            key = ("v", s)
            hash(s)
        except TypeError:
            key = ("id", id(s))
        if key in seen:
            raise ValueError(
                f"duplicate seed {s!r} in the sweep's seed axis; every grid "
                "cell must be a distinct trial (repeat seeds by running the "
                "sweep again, not by duplicating the axis)"
            )
        seen.add(key)
    return seeds


def _split_seed_axes(
    seeds: Any, networks: Sequence[SmallWorldNetwork]
) -> tuple[list[list[SeedLike]], list[SeedLike] | None]:
    """Split ``seeds`` into one seed axis per network.

    A list/tuple whose every element is itself a sequence is read as
    per-network seed axes (one per network, lengths may differ — the
    ragged form); anything else is one shared axis, which becomes every
    network's own axis.  Returns ``(axes, shared)``: the per-network
    axes, each validated by :func:`_validate_seeds`, and the shared axis
    (``None`` for per-network axes).
    """
    if (
        isinstance(seeds, (list, tuple))
        and seeds
        and all(isinstance(ax, (list, tuple, np.ndarray)) for ax in seeds)
    ):
        axes = [_validate_seeds(ax) for ax in seeds]
        if len(axes) != len(networks):
            raise ValueError(
                f"per-network seed axes must give one axis per network "
                f"({len(networks)}), got {len(axes)}"
            )
        return axes, None
    shared = _validate_seeds(seeds)
    return [shared] * len(networks), shared


def _run_multi_shard(networks: NetworkTuple, task: tuple[Any, ...]) -> list[CountingResult]:
    """Module-level worker: one fused multi-network (strategy, chunk) batch.

    ``networks`` is the shared :class:`~repro.graphs.shared.NetworkTuple`
    of sweep networks (attached from one shared-memory segment inside
    workers; with two or more networks it carries the pre-stacked union
    CSR); ``task`` carries per-trial indices into it plus per-trial masks
    over each trial's own network — the grid's cells, which the engine
    regroups into union blocks.  A shard whose networks, in
    first-appearance order, are the whole payload hands the shipped CSR
    to the engine, which adopts it instead of re-stacking.
    """
    spec, seeds, configs, net_ids, masks, backend, channel = task
    factory = _strategy_factory(spec)
    trial_nets = NetworkTuple(networks[i] for i in net_ids)
    if list(dict.fromkeys(net_ids)) == list(range(len(networks))):
        trial_nets.union_csr = networks.union_csr
    if factory is None:
        return list(
            run_counting_multinet(
                trial_nets, seeds, config=configs, backend=backend, channel=channel
            )
        )
    return list(
        run_counting_multinet(
            trial_nets,
            seeds,
            config=configs,
            adversary_factory=factory,
            byz_mask=masks,
            backend=backend,
            channel=channel,
        )
    )


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: its axis coordinates, axis values, and result."""

    strategy_index: int
    placement_index: int
    config_index: int
    seed_index: int
    strategy: StrategySpec
    placement: BoolArray | None
    config: CountingConfig
    seed: SeedLike
    result: CountingResult


@dataclass
class SweepResult:
    """Grid-shaped view over one :func:`run_sweep` call's results.

    ``results`` is flat in strategy-major grid order (strategy, placement,
    config, seed); :meth:`cell` and :meth:`seed_batch` index it by axis
    coordinates, :meth:`cells` iterates it with coordinates attached.
    """

    seeds: list[SeedLike]
    configs: list[CountingConfig]
    placements: list[BoolArray | None]
    strategies: list[StrategySpec]
    results: list[CountingResult]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """``(strategies, placements, configs, seeds)`` axis lengths."""
        return (
            len(self.strategies),
            len(self.placements),
            len(self.configs),
            len(self.seeds),
        )

    def _flat(self, strategy: int, placement: int, config: int, seed: int) -> int:
        n_s, n_p, n_c, n_b = self.shape
        # range(...)[i] applies python index semantics (negatives, bounds).
        s = range(n_s)[strategy]
        p = range(n_p)[placement]
        c = range(n_c)[config]
        b = range(n_b)[seed]
        return ((s * n_p + p) * n_c + c) * n_b + b

    def cell(
        self, *, strategy: int = 0, placement: int = 0, config: int = 0, seed: int = 0
    ) -> CountingResult:
        """The single result at the given axis coordinates."""
        return self.results[self._flat(strategy, placement, config, seed)]

    def seed_batch(
        self, *, strategy: int = 0, placement: int = 0, config: int = 0
    ) -> BatchCountingResult:
        """All seeds of one (strategy, placement, config) cell as a batch.

        The returned :class:`BatchCountingResult` carries the seeds in
        axis order, so its cross-trial aggregates (``rounds()``,
        ``median_phases()``, ...) summarize the repeated-seed dimension.
        """
        base = self._flat(strategy, placement, config, 0)
        return BatchCountingResult(self.results[base : base + len(self.seeds)])

    def cells(self) -> Iterator[SweepCell]:
        """Iterate every cell in flat grid order, coordinates attached."""
        i = 0
        for s, strat in enumerate(self.strategies):
            for p, mask in enumerate(self.placements):
                for c, cfg in enumerate(self.configs):
                    for b, seed in enumerate(self.seeds):
                        yield SweepCell(
                            strategy_index=s,
                            placement_index=p,
                            config_index=c,
                            seed_index=b,
                            strategy=strat,
                            placement=mask,
                            config=cfg,
                            seed=seed,
                            result=self.results[i],
                        )
                        i += 1

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SweepCell]:
        return self.cells()


@dataclass
class MultiSweepResult:
    """Grid-shaped view over one :func:`run_multi_sweep` call's results.

    ``results`` is flat in network-major grid order (network, strategy,
    placement, config, seed); :meth:`sweep` slices one network's block as
    a plain :class:`SweepResult` (its cells are contiguous).  ``layout``
    names the engine layout that ran, which is always the union stack
    (``"union"``).  For ragged
    per-network seed axes ``seeds`` is ``None`` and ``seed_axes`` holds
    one axis per network (blocks then differ in size; :attr:`shape` is
    undefined, use ``sweep(g).shape``).
    """

    networks: list[SmallWorldNetwork]
    seeds: list[SeedLike] | None
    configs: list[CountingConfig]
    placements: list[list[BoolArray | None]]
    strategies: list[StrategySpec]
    results: list[CountingResult]
    layout: str = "union"
    seed_axes: list[list[SeedLike]] | None = None

    def seed_axis(self, network: int = 0) -> list[SeedLike]:
        """Network ``network``'s seed axis (the shared one, if one was given)."""
        if self.seed_axes is None:
            assert self.seeds is not None
            return self.seeds
        return self.seed_axes[range(len(self.networks))[network]]

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        """``(networks, strategies, placements, configs, seeds)`` lengths."""
        if self.seeds is None:
            raise ValueError(
                "this multi-sweep ran ragged per-network seed axes, so the "
                "grid has no single shape; use sweep(g).shape per network"
            )
        return (
            len(self.networks),
            len(self.strategies),
            len(self.placements[0]) if self.placements else 0,
            len(self.configs),
            len(self.seeds),
        )

    def _block(self, network: int) -> tuple[int, int]:
        g = range(len(self.networks))[network]
        n_s = len(self.strategies)
        n_p = len(self.placements[0]) if self.placements else 0
        n_c = len(self.configs)
        lo = 0
        for h in range(g):
            lo += n_s * n_p * n_c * len(self.seed_axis(h))
        return lo, lo + n_s * n_p * n_c * len(self.seed_axis(g))

    def sweep(self, network: int = 0) -> SweepResult:
        """One network's (strategy, placement, config, seed) block."""
        lo, hi = self._block(network)
        g = range(len(self.networks))[network]
        return SweepResult(
            seeds=self.seed_axis(g),
            configs=self.configs,
            placements=self.placements[g],
            strategies=self.strategies,
            results=self.results[lo:hi],
        )

    def cell(
        self,
        *,
        network: int = 0,
        strategy: int = 0,
        placement: int = 0,
        config: int = 0,
        seed: int = 0,
    ) -> CountingResult:
        """The single result at the given axis coordinates."""
        return self.sweep(network).cell(
            strategy=strategy, placement=placement, config=config, seed=seed
        )

    def seed_batch(
        self,
        *,
        network: int = 0,
        strategy: int = 0,
        placement: int = 0,
        config: int = 0,
    ) -> BatchCountingResult:
        """All seeds of one (network, strategy, placement, config) cell."""
        return self.sweep(network).seed_batch(
            strategy=strategy, placement=placement, config=config
        )

    def __len__(self) -> int:
        return len(self.results)


def _normalize_axis(
    value: Any, default: CountingConfig, single_types: type[CountingConfig]
) -> list[CountingConfig]:
    if value is None:
        return [default]
    if isinstance(value, single_types):
        return [value]
    return list(value)


def _normalize_strategy_axis(strategies: Any) -> list[StrategySpec]:
    if strategies is None:
        return [None]
    if isinstance(strategies, (str, Adversary)) or callable(strategies):
        return [strategies]
    return list(strategies)


def _normalize_placement_axis(placements: Any, n: int) -> list[BoolArray | None]:
    """One network's placement axis as a list of ``(n,)`` masks / Nones."""
    if placements is None:
        axis = [None]
    elif isinstance(placements, np.ndarray) and placements.ndim == 1:
        axis = [placements]
    else:
        axis = list(placements)
    norm: list[BoolArray | None] = []
    for mask in axis:
        if mask is None:
            norm.append(None)
            continue
        arr = np.asarray(mask, dtype=bool)
        if arr.shape != (n,):
            raise ValueError(
                f"placements must be ({n},) masks, got shape {arr.shape}"
            )
        norm.append(arr)
    return norm


def run_sweep(
    network: Any,
    *,
    seeds: Sequence[SeedLike],
    configs: CountingConfig | Sequence[CountingConfig] | None = None,
    placements: Any = None,
    strategies: Any = None,
    jobs: int | None = None,
    shard_cells: int | None = None,
    backend: str | None = None,
    channel: ChannelModel | None = None,
    policy: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
) -> SweepResult:
    """Run the full (strategy x placement x config x seed) grid, fused.

    Parameters
    ----------
    network:
        The one :class:`~repro.graphs.smallworld.SmallWorldNetwork`
        every cell runs on; the sweep runs as the one-network
        :func:`run_multi_sweep` and returns its only block.  A list or
        tuple of networks raises :class:`TypeError`: the network axis is
        :func:`run_multi_sweep`'s.
    seeds:
        Seed axis; a materialized sequence whose entries are anything
        :func:`repro.sim.rng.make_rng` accepts.  Empty axes, duplicate
        or nested entries, one-shot iterators, and a bare ``numpy``
        ``Generator`` are rejected eagerly with typed errors.
    configs:
        Config axis; a single :class:`CountingConfig` (the default config
        when None) or a sequence.
    placements:
        Placement axis; a single ``(n,)`` Byzantine mask, a sequence of
        masks, or None (no Byzantine nodes).  ``None`` entries inside a
        sequence mean an empty placement.
    strategies:
        Strategy axis; a single spec or a sequence of specs, each one
        ``None`` (honest Algorithm 1 — only valid with empty placements),
        a name from :data:`~repro.core.estimator.ADVERSARIES`, an
        :class:`~repro.adversary.base.Adversary` instance (single
        placement only), or a zero-argument factory.
    jobs:
        Worker processes; ``None``/``<= 1`` runs fused in-process, else
        the grid is sharded through
        :func:`repro.experiments.common.parallel_map` with the network in
        shared memory.
    shard_cells:
        Override the cost-weighted shard splitter with fixed-size chunks
        of this many grid cells.
    backend:
        Flood-kernel compute backend (``"numpy"``, ``"numba"``,
        ``"auto"``) or ``None`` for the default resolution — the
        ``REPRO_KERNEL_BACKEND`` env override, then auto.  Applied to
        every cell: it rides every shard task as given and each worker
        passes it to the engine, so a worker resolves ``None`` against
        its own environment.  Bit-for-bit neutral (see
        :mod:`repro.sim.backends`).
    channel:
        Optional :class:`~repro.sim.channel.ChannelModel` applied to every
        cell — the lossy/noisy message channel sweep axis.  Rides the
        shard tasks next to ``backend`` (plain frozen data, so it pickles
        to workers); a null channel is normalized to ``None`` and the
        sweep is then bit-for-bit identical to a channel-free run.
    policy:
        :class:`repro.exec.RetryPolicy` for the sharded dispatch —
        per-shard timeout, retry budget, backoff, degradation threshold.
        ``None`` uses the defaults (bounded retries, no timeout).
    report:
        :class:`repro.exec.ExecutionReport` to accumulate per-shard
        fault accounting (attempts, retries, timeouts, crashes,
        degradations) for this sweep's map.
    checkpoint:
        Path to an on-disk journal: every completed shard's results are
        spilled durably, and a re-run of the *identical* sweep (same
        grid, backend and channel, same ``jobs``/``shard_cells`` — the
        shard plan is keyed) resumes from the journal instead of
        recomputing finished shards.

    Returns
    -------
    SweepResult
        Grid-shaped results, each cell bit-for-bit equal to its scalar
        sequential run (see the module docstring).
    """
    if isinstance(network, (list, tuple)):
        raise TypeError(
            "run_sweep takes one network; sweep a list or tuple of networks "
            "with run_multi_sweep"
        )
    # Typed seed-axis errors surface here, before any grid is planned.
    seeds = _validate_seeds(seeds)
    return run_multi_sweep(
        [network],
        seeds=seeds,
        configs=configs,
        placements=[placements],
        strategies=strategies,
        jobs=jobs,
        shard_cells=shard_cells,
        backend=backend,
        channel=channel,
        policy=policy,
        report=report,
        checkpoint=checkpoint,
    ).sweep(0)


def run_multi_sweep(
    networks: Sequence[SmallWorldNetwork],
    *,
    seeds: Any,
    configs: CountingConfig | Sequence[CountingConfig] | None = None,
    placements: Any = None,
    strategies: Any = None,
    jobs: int | None = None,
    shard_cells: int | None = None,
    backend: str | None = None,
    channel: ChannelModel | None = None,
    policy: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
) -> MultiSweepResult:
    """Run a (network x strategy x placement x config x seed) grid, fused
    across the network axis.

    Cells on *different networks* — including different sizes — fuse into
    one union-stack batch through
    :func:`repro.core.batch.run_counting_multinet`; all networks must
    share the degree ``d``.  Every cell is bit-for-bit equal to the
    scalar run it replaces (same network, config, strategy, placement,
    seed; see the module docstring).  A single-network :func:`run_sweep`
    is this function on one network.

    Parameters
    ----------
    networks:
        The network axis (a non-empty sequence; repeats of one sampled
        graph are allowed and share kernels).
    seeds:
        Either one shared seed axis (every network runs every seed: it
        becomes each network's own axis), or per-network axes — a
        sequence of sequences, one per network, lengths free to differ.
        A ``numpy`` ``Generator`` on a shared axis over two or more
        networks is rejected with a :class:`TypeError`.
    configs, strategies, jobs, shard_cells:
        As in :func:`run_sweep` (configs/strategies are shared grid
        axes; ``shard_cells`` counts grid cells).
    placements:
        Per-network placement axes, because a ``(n,)`` mask only fits one
        network: ``None`` (no Byzantine nodes anywhere), a *callable*
        ``net -> placement axis`` evaluated per network (e.g. ``lambda
        net: placement_for_delta(net, 0.5, rng=7)``), or a sequence with
        one placement-axis spec per network.  The resulting axis length
        must agree across networks (it is a grid axis).
    backend, channel:
        As in :func:`run_sweep`: both ride the shard tasks and reach the
        engines as arguments, never through the network container.
    policy, report, checkpoint:
        Resilient-dispatch knobs, as in :func:`run_sweep` — retry/timeout
        policy, per-shard fault accounting, and the checkpoint/resume
        journal path.

    Returns
    -------
    MultiSweepResult
        Results in network-major grid order; ``.sweep(g)`` gives network
        ``g``'s block as a plain :class:`SweepResult`.
    """
    # Keep the caller's container: a ready NetworkTuple (the resident
    # engine's cached payload, pre-stacked union CSR attached) is handed
    # to parallel_map as-is so serial maps skip re-stacking.
    networks_payload = networks if isinstance(networks, tuple) else None
    networks = list(networks)
    if not networks:
        raise ValueError("run_multi_sweep needs at least one network")
    degrees = {int(net.d) for net in networks}
    if len(degrees) > 1:
        raise ValueError(
            "all networks in one multi-sweep must share the degree d (the "
            f"phase schedule is d-dependent); got d in {sorted(degrees)}"
        )
    d = networks[0].d
    channel = _normalize_channel(channel)
    axes, shared_seeds = _split_seed_axes(seeds, networks)
    if (
        shared_seeds is not None
        and len(networks) > 1
        and any(isinstance(s, np.random.Generator) for s in shared_seeds)
    ):
        raise TypeError(
            "a numpy Generator seed on the shared seed axis would feed one "
            "cell per network and interleave its stream across them; pass "
            "int seeds, or one seed axis per network"
        )
    config_axis = _normalize_axis(configs, CountingConfig(), CountingConfig)
    strategy_axis = _normalize_strategy_axis(strategies)

    if placements is None:
        per_net_placements: list[list[BoolArray | None]] = [[None] for _ in networks]
    elif callable(placements) and not isinstance(placements, np.ndarray):
        per_net_placements = [
            _normalize_placement_axis(placements(net), net.n) for net in networks
        ]
    else:
        specs = list(placements)
        if len(specs) != len(networks):
            raise ValueError(
                f"placements must give one placement axis per network "
                f"({len(networks)}), got {len(specs)} entries; use a callable "
                "net -> axis to derive them"
            )
        per_net_placements = [
            _normalize_placement_axis(spec, net.n)
            for spec, net in zip(specs, networks)
        ]
    lengths = {len(axis) for axis in per_net_placements}
    if len(lengths) > 1:
        raise ValueError(
            "the placement axis must have the same length for every network "
            f"(it is a grid axis); got lengths {sorted(lengths)}"
        )
    n_p = lengths.pop()

    any_byz = any(
        m is not None and m.any() for axis in per_net_placements for m in axis
    )
    if any_byz and any(spec is None for spec in strategy_axis):
        raise ValueError(
            "a None strategy (honest Algorithm 1) cannot run non-empty "
            "placements; give those cells an adversary strategy"
        )

    n_s, n_c = len(strategy_axis), len(config_axis)
    net_off = [0]
    for ax in axes:
        net_off.append(net_off[-1] + n_s * n_p * n_c * len(ax))
    # One strategy block's cells across all networks, in network-major
    # (network, placement, config, seed) order — the trials the engine
    # regroups into union blocks.  The results come back in grid order
    # (network, strategy, placement, config, seed).
    cells = [
        (g, p, c, b)
        for g, ax in enumerate(axes)
        for p in range(n_p)
        for c in range(n_c)
        for b in range(len(ax))
    ]
    cost_cache: dict[tuple[int, CountingConfig], float] = {}

    def cell_costs() -> list[float]:
        return [
            _cell_cost(int(networks[g].n), d, config_axis[c], cost_cache)
            for g, _p, c, _b in cells
        ]

    tasks: list[tuple[Any, ...]] = []
    task_flats: list[list[int]] = []
    for s, spec, lo, hi in _plan_shards(
        strategy_axis, len(cells), cell_costs, jobs, shard_cells
    ):
        chunk = cells[lo:hi]
        masks: list[BoolArray | None] | None = None
        if spec is not None:
            masks = [per_net_placements[g][p] for g, p, _c, _b in chunk]
        tasks.append(
            (
                spec,
                [axes[g][b] for g, _p, _c, b in chunk],
                [config_axis[c] for _g, _p, c, _b in chunk],
                [g for g, _p, _c, _b in chunk],
                masks,
                backend,
                channel,
            )
        )
        task_flats.append(
            [
                net_off[g] + ((s * n_p + p) * n_c + c) * len(axes[g]) + b
                for g, p, c, b in chunk
            ]
        )

    from ..experiments.common import parallel_map

    shard_results = parallel_map(
        _run_multi_shard,
        tasks,
        jobs=jobs,
        network=networks_payload if networks_payload is not None else networks,
        policy=policy,
        report=report,
        checkpoint=checkpoint,
    )
    results: list[CountingResult | None] = [None] * sum(len(f) for f in task_flats)
    for flats, shard in zip(task_flats, shard_results, strict=True):
        for flat, res in zip(flats, shard, strict=True):
            results[flat] = res
    assert all(res is not None for res in results)
    return MultiSweepResult(
        networks=networks,
        seeds=shared_seeds,
        configs=config_axis,
        placements=per_net_placements,
        strategies=strategy_axis,
        results=results,  # type: ignore[arg-type]
        seed_axes=None if shared_seeds is not None else axes,
    )
