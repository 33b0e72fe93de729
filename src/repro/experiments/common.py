"""Shared helpers for experiment modules.

Three layers of shared machinery:

* **network cache** — experiments in one process share sampled graphs
  (:func:`network`);
* **batched trial runners** — repeated-seed sweeps route through the
  trial-batched engine (:func:`repro.core.batch.run_counting_batch`), which
  is bit-for-bit equivalent to per-seed sequential runs but several times
  faster (see ``benchmarks/bench_batch.py``);
* **process sharding** — :func:`parallel_map` optionally fans a multi-config
  sweep out over a ``ProcessPoolExecutor`` (each worker re-imports the
  library, so mapped functions must be module-level picklables).  Sweeps
  pass their network axis, one network or several, via ``network=``: the
  graphs are placed in one shared-memory segment
  (:class:`repro.graphs.shared.SharedNetworkPack`) and workers attach
  zero-copy instead of unpickling a full CSR copy per task.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    import os

    from ..exec import ExecutionReport, RetryPolicy

from ..adversary.base import Adversary
from ..core.batch import run_counting_batch
from ..core.config import CountingConfig
from ..core.results import BatchCountingResult
from ..graphs.smallworld import SmallWorldNetwork, build_small_world
from ..sim.rng import derive_seed

__all__ = [
    "network",
    "ns_for",
    "basic_counting_trials",
    "byzantine_counting_trials",
    "parallel_map",
    "DEFAULT_D",
]

DEFAULT_D = 8


@lru_cache(maxsize=32)
def network(n: int, d: int = DEFAULT_D, seed: int = 0, k: int | None = None) -> SmallWorldNetwork:
    """Cached network sample (experiments in one process share graphs).

    ``k`` is the lattice radius override; ``None`` selects the paper's
    default ``ceil(d/3)``.  Explicit ``k`` must be ``>= 1`` (validated here
    rather than deep in ``build_small_world`` so the graph-seed key below
    cannot alias: ``0`` in the key always means "default k", never an
    explicit radius).
    """
    if k is not None and k < 1:
        raise ValueError(f"lattice radius k must be >= 1, got {k}")
    key_k = 0 if k is None else int(k)
    return build_small_world(n, d, seed=derive_seed(seed, "net", n, d, key_k), k=k)


def ns_for(scale: str, *, small: tuple[int, ...], full: tuple[int, ...]) -> tuple[int, ...]:
    return small if scale == "small" else full


# ----------------------------------------------------------------------
# Batched trial sweeps
# ----------------------------------------------------------------------


def basic_counting_trials(
    net: SmallWorldNetwork,
    seeds: Sequence[int],
    config: CountingConfig | None = None,
) -> BatchCountingResult:
    """Algorithm 1 over many seeds at once (batched engine).

    Equivalent to ``[run_basic_counting(net, config, seed=s) for s in
    seeds]``, bit for bit, including meter totals.
    """
    config = (config or CountingConfig()).with_(verification=False)
    return run_counting_batch(net, seeds, config=config)


def byzantine_counting_trials(
    net: SmallWorldNetwork,
    adversary_factory: Callable[[], Adversary],
    byz_mask: np.ndarray | Sequence[np.ndarray],
    seeds: Sequence[int],
    config: CountingConfig | None = None,
) -> BatchCountingResult:
    """Algorithm 2 over many seeds at once (batched engine).

    Byzantine trials run on the trial-batched fast path: built-in
    strategies drive the whole batch through the vectorized adversary
    hooks (:meth:`repro.adversary.base.Adversary.batch_subphase_plan`);
    scalar third-party adversaries are wrapped per trial.  Equivalent to
    per-seed sequential ``run_byzantine_counting`` calls, bit for bit,
    including crash sets, meters, and injection counters.

    ``byz_mask`` is either one shared ``(n,)`` placement or a per-trial
    ``(B, n)`` stack / length-``B`` list of masks — trials sharing a
    placement are sub-grouped by the engine, so varying-placement sweeps
    stay batched.  A mask list whose length disagrees with ``seeds`` is
    rejected with a count-mismatch error (it is never silently shared).
    For full (seed, config, placement, strategy) grids use
    :func:`repro.core.sweep.run_sweep`.
    """
    return run_counting_batch(
        net,
        seeds,
        config=config or CountingConfig(),
        adversary_factory=adversary_factory,
        byz_mask=byz_mask,
    )


# ----------------------------------------------------------------------
# Process sharding
# ----------------------------------------------------------------------


class _SharedNetworkCall:
    """Picklable shim calling ``fn(shared-payload, item)`` inside a worker.

    The payload is the tuple of networks attached from a
    :class:`~repro.graphs.shared.SharedNetworkPack`, or its only network
    when the map was given a lone one (``multi=False``).  The handle
    re-attaches the shared segment at most once per worker process
    (module-level cache in :mod:`repro.graphs.shared`), so every task
    after the first reuses the already-reconstructed graphs.  Because
    attachment is lazy and per-process, a rebuilt worker pool (crash or
    timeout recovery in :class:`repro.exec.ShardExecutor`) re-attaches
    transparently — recovery stays zero-copy.
    """

    def __init__(self, fn: Callable, shared, multi: bool):
        self.fn = fn
        self.shared = shared
        self.multi = multi

    def __call__(self, item):
        nets = self.shared.nets
        return self.fn(nets if self.multi else nets[0], item)


class _PayloadCall:
    """In-process shim calling ``fn(payload, item)`` (serial resilient path)."""

    def __init__(self, fn: Callable, payload):
        self.fn = fn
        self.payload = payload

    def __call__(self, item):
        return self.fn(self.payload, item)


def _fn_label(fn: Callable) -> str:
    """Stable label for a mapped function (checkpoint plan identity)."""
    target = fn
    while hasattr(target, "fn"):  # unwrap chaos/shared/payload shims
        target = target.fn
    module = getattr(target, "__module__", "?")
    qualname = getattr(target, "__qualname__", type(target).__name__)
    return f"{module}.{qualname}"


def _resilient_map(
    call: Callable,
    items: list,
    jobs: int | None,
    policy,
    report,
    checkpoint,
) -> list:
    """Route one map through :class:`repro.exec.ShardExecutor`.

    Wraps ``call`` with the active chaos controller (if any), opens the
    checkpoint journal keyed by the deterministic shard plan, and runs
    the executor.  Used for every parallel map and for serial maps that
    request resilience features.
    """
    from ..exec import CheckpointJournal, ShardExecutor, chaos, plan_key

    controller = chaos.current()
    if controller is not None:
        call = chaos.wrap(call, controller, items)
    executor = ShardExecutor(policy=policy, report=report)
    if checkpoint is None:
        return executor.run(call, items, jobs=jobs)
    key = plan_key(_fn_label(call), items)
    with CheckpointJournal(checkpoint, key) as journal:
        return executor.run(call, items, jobs=jobs, journal=journal)


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int | None = None,
    *,
    network: SmallWorldNetwork | Sequence[SmallWorldNetwork] | None = None,
    policy: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
) -> list:
    """Map ``fn`` over ``items``, optionally across worker processes.

    ``jobs=None`` (or ``0``/``1``, or a single item) runs serially
    in-process; negative ``jobs`` raises :class:`ValueError`.  Otherwise
    the items are sharded over a worker pool with ``min(jobs,
    len(items))`` processes.  Results keep input order.  ``fn`` and the
    items must be picklable (module-level function, plain data).

    The parallel path dispatches shards through
    :class:`repro.exec.ShardExecutor`: per-shard futures with bounded
    retries, optional per-shard timeouts, ``BrokenProcessPool`` pool
    rebuilds, and graceful degradation to in-process serial execution
    (one-time :class:`RuntimeWarning`) when the pool fails repeatedly —
    see :mod:`repro.exec`.  ``policy`` (:class:`repro.exec.RetryPolicy`)
    tunes the fault handling, ``report``
    (:class:`repro.exec.ExecutionReport`) accumulates per-shard fault
    accounting, and ``checkpoint`` (a path) spills each completed
    shard's result to an on-disk journal keyed by the deterministic
    shard plan so a killed map resumes without recomputing finished
    shards.  Serial maps stay a plain loop unless one of those three is
    passed.

    When ``network`` is given, ``fn`` is called as ``fn(network, item)``
    and the graph is shared with workers through one POSIX shared-memory
    segment (:class:`repro.graphs.shared.SharedNetworkPack`, here of one
    network) instead of being re-pickled into every task — workers attach
    zero-copy, once per process.  A *list or tuple of networks* pins the
    whole set in one such segment and calls
    ``fn(networks_tuple, item)`` — this is how sweeps ship their entire
    network axis to workers in one handle.  The payload is then a
    :class:`repro.graphs.shared.NetworkTuple`; over two or more networks
    it carries the pre-stacked block-diagonal union CSR — stacked once
    here, shipped through the same segment — so union-stack engine calls
    in workers skip re-stacking.
    The segment lives for the duration of the map and is unlinked before
    returning.  The payload carries network data only: run settings such
    as the kernel backend or a channel model belong in the items, as
    arguments that ``fn`` passes on to the engines.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be None or >= 0, got {jobs}")
    items = list(items)
    serial = jobs is None or jobs <= 1 or len(items) <= 1
    resilient = policy is not None or report is not None or checkpoint is not None
    if network is not None:
        multi = isinstance(network, (list, tuple))
        if serial:
            if multi:
                from ..graphs.shared import NetworkTuple

                union = len(network) > 1
                if isinstance(network, NetworkTuple) and (
                    not union or network.union_csr is not None
                ):
                    # A ready-made payload (the resident engine hands its
                    # cached NetworkTuple straight through): reuse it and
                    # its pre-stacked union CSR instead of re-stacking.
                    payload = network
                else:
                    payload = NetworkTuple.build(network, union=union)
            else:
                payload = network
            if resilient:
                return _resilient_map(
                    _PayloadCall(fn, payload), items, None, policy, report, checkpoint
                )
            return [fn(payload, item) for item in items]
        from ..graphs.shared import SharedNetworkPack

        shared = SharedNetworkPack.create(list(network) if multi else [network])
        with shared:
            call = _SharedNetworkCall(fn, shared, multi)
            return _resilient_map(call, items, jobs, policy, report, checkpoint)
    if serial:
        if resilient:
            return _resilient_map(fn, items, None, policy, report, checkpoint)
        return [fn(item) for item in items]
    return _resilient_map(fn, items, jobs, policy, report, checkpoint)
