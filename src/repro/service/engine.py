"""The resident estimation engine: overlays, kernels, and stacks kept warm.

The batched engine (:mod:`repro.core.batch`) amortizes numpy dispatch across
trials *within* one call; this module amortizes the per-call setup across
**epochs** of a long-lived deployment.  A :class:`ResidentEngine` keeps,
per registered overlay:

* the mutable graph (:class:`repro.graphs.delta.ResidentGraph`) — a churn
  delta splices the overlay's Hamiltonian cycles and rebuilds the CSR
  from them, keeping the rest of the overlay instead of re-sampling it;
* one warm :class:`~repro.sim.flood.FloodKernel` — rebound in place via
  :meth:`~repro.sim.flood.FloodKernel.update_csr` after each delta, which
  invalidates exactly the stale gather plans (cache rule: a delta on
  overlay ``X`` invalidates ``X``'s kernel plans and every union stack
  containing ``X``, and nothing else); a plain kernel is a one-block
  union stack, so single-overlay queries flood through it directly;
* one versioned cache of union-stack payloads
  (:class:`repro.graphs.shared.NetworkTuple` with a pre-stacked union
  CSR), keyed by the member overlays' ``(name, version)`` pairs so churn
  invalidates precisely the stacks that contain the mutated overlay.
  Multi-overlay queries and sweeps both read it.

Caching is a *speed* layer only: every estimation path delegates to the
stock batch entry points with the cached objects passed through their
``kernel=`` / container hooks, so results are bit-for-bit equal to cold
per-epoch runs (pinned by ``tests/service/test_service_engine.py``).

Sharded execution (``jobs > 1``) threads the engine's
:class:`repro.exec.RetryPolicy` / :class:`repro.exec.ExecutionReport`
through :func:`repro.experiments.common.parallel_map`, so a resident
deployment inherits the fault-tolerant dispatch (retries, pool rebuilds,
checkpoint journals) of the sweep layer.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.batch import BatchCountingResult, run_counting_batch, run_counting_multinet
from ..core.config import CountingConfig
from ..graphs.delta import AppliedDelta, ResidentGraph
from ..graphs.shared import NetworkTuple
from ..graphs.smallworld import SmallWorldNetwork, build_small_world
from ..sim.flood import FloodKernel, UnionFloodKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..adversary.base import Adversary
    from ..core.results import CountingResult
    from ..core.sweep import MultiSweepResult
    from ..exec import ExecutionReport, RetryPolicy
    from .delta import ChurnDelta

__all__ = ["ResidentEngine", "SizeQuery"]

#: FIFO cap for the versioned union-stack cache; stacks are rebuilt
#: cheaply, so a shallow cache only needs to cover the handful of overlay
#: groupings a service round-robins between.
_TUPLE_CACHE_CAP = 4


@dataclass(frozen=True)
class SizeQuery:
    """One size-estimation request against a registered overlay.

    ``strategy`` is an adversary factory/instance (as accepted by the
    batch entry points' ``adversary_factory``) with ``byz_mask`` naming the
    controlled nodes; both ``None`` runs the honest protocol.  ``config``
    defaults to the engine's default config.
    """

    overlay: str
    seed: int | None
    config: CountingConfig | None = None
    strategy: "Callable[[], Adversary] | Adversary | None" = None
    byz_mask: Any = None


class _Overlay:
    """Per-overlay resident state: graph + warm kernel + version."""

    __slots__ = ("graph", "kernel")

    def __init__(self, graph: ResidentGraph, kernel: FloodKernel) -> None:
        self.graph = graph
        self.kernel = kernel


class ResidentEngine:
    """A long-lived estimation engine serving many churning overlays."""

    def __init__(
        self,
        *,
        backend: str | None = None,
        policy: "RetryPolicy | None" = None,
        report: "ExecutionReport | None" = None,
        config: CountingConfig | None = None,
    ) -> None:
        self._backend = backend
        self.policy = policy
        self.report = report
        self.default_config = config or CountingConfig()
        self._overlays: dict[str, _Overlay] = {}
        self._tuple_cache: dict[tuple[tuple[str, int], ...], NetworkTuple] = {}

    # ------------------------------------------------------------------
    # Overlay lifecycle
    # ------------------------------------------------------------------
    def add_overlay(
        self,
        name: str,
        network: SmallWorldNetwork | None = None,
        *,
        n: int | None = None,
        d: int | None = None,
        seed: int = 0,
        k: int | None = None,
    ) -> SmallWorldNetwork:
        """Register an overlay: adopt ``network`` or sample ``(n, d, seed)``.

        Returns the overlay's current network.  Adoption takes the
        instance as-is (zero copy of the CSR into the kernel); sampling
        is the one cold :func:`~repro.graphs.smallworld.build_small_world`
        call of the overlay's lifetime.
        """
        if name in self._overlays:
            raise ValueError(f"overlay {name!r} already registered")
        if network is None:
            if n is None or d is None:
                raise ValueError("provide a network, or n and d to sample one")
            network = build_small_world(n, d, seed=seed, k=k)
        graph = ResidentGraph.from_network(network)
        kernel = FloodKernel(
            network.h.indptr, network.h.indices, backend=self._backend
        )
        self._overlays[name] = _Overlay(graph, kernel)
        return network

    def remove_overlay(self, name: str) -> None:
        """Drop an overlay and every cached structure that contains it."""
        self._overlay(name)
        del self._overlays[name]
        self._evict(name)

    def overlay_names(self) -> tuple[str, ...]:
        return tuple(self._overlays)

    def network(self, name: str) -> SmallWorldNetwork:
        """The overlay's current network (snapshot, cached per version)."""
        return self._overlay(name).graph.snapshot()

    def version(self, name: str) -> int:
        """Number of churn deltas applied to the overlay so far."""
        return self._overlay(name).graph.version

    def _overlay(self, name: str) -> _Overlay:
        overlay = self._overlays.get(name)
        if overlay is None:
            raise KeyError(
                f"unknown overlay {name!r}; registered: {sorted(self._overlays)}"
            )
        return overlay

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def apply_churn(
        self, name: str, delta: "ChurnDelta", rng: np.random.Generator
    ) -> AppliedDelta:
        """Apply one join/leave delta and rebind the overlay's kernel.

        :meth:`repro.graphs.delta.ResidentGraph.apply_delta` splices the
        cycles and rebuilds the overlay's CSR from them;
        :meth:`~repro.sim.flood.FloodKernel.update_csr` then re-points the
        warm kernel and drops its stale gather plans.
        Union stacks are keyed by overlay versions, which only grow, so
        the stacks that contained this overlay can never be hit again:
        they are evicted here, releasing the old snapshots they hold.
        """
        overlay = self._overlay(name)
        applied = overlay.graph.apply_delta(delta.leaves, delta.joins, rng)
        net = overlay.graph.snapshot()
        overlay.kernel.update_csr(net.h.indptr, net.h.indices)
        self._evict(name)
        return applied

    def _evict(self, name: str) -> None:
        stale = [
            key
            for key in self._tuple_cache
            if any(member == name for member, _v in key)
        ]
        for key in stale:
            del self._tuple_cache[key]

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def run_epoch(
        self,
        name: str,
        seeds: Sequence[int | None],
        config: CountingConfig | None = None,
        adversary_factory: "Callable[[], Adversary] | Adversary | None" = None,
        byz_mask: Any = None,
    ) -> BatchCountingResult:
        """Run one overlay's estimation round through its warm kernel.

        Exactly :func:`repro.core.batch.run_counting_batch` on the current
        snapshot with the resident kernel passed through ``kernel=`` —
        bit-for-bit equal to a cold call, minus the kernel construction.
        """
        overlay = self._overlay(name)
        return run_counting_batch(
            overlay.graph.snapshot(),
            seeds,
            config=config or self.default_config,
            adversary_factory=adversary_factory,
            byz_mask=byz_mask,
            kernel=overlay.kernel,
        )

    def serve(self, queries: Sequence[SizeQuery]) -> "list[CountingResult]":
        """Serve a batch of size queries, one result per query, in order.

        Queries sharing a strategy fuse into one union-stack batch
        (:func:`repro.core.batch.run_counting_multinet`): each overlay is
        a row block and its queries fill that block's columns.  A single
        overlay floods through its warm kernel (a one-block union);
        several overlays flood through a kernel over the cached
        versioned union stack.  Distinct configs take separate columns
        inside the engine; everything stays bit-for-bit equal to
        per-query sequential runs.
        """
        results: list[CountingResult | None] = [None] * len(queries)
        # Group by strategy identity: one adversary spec drives one
        # batched call (None = honest).  Python preserves insertion
        # order, so groups form in first-appearance order.
        groups: dict[int, list[int]] = {}
        specs: dict[int, Any] = {}
        for i, q in enumerate(queries):
            self._overlay(q.overlay)  # eager unknown-overlay error
            key = id(q.strategy) if q.strategy is not None else 0
            groups.setdefault(key, []).append(i)
            specs[key] = q.strategy
        for key, ids in groups.items():
            # Overlay-major order makes the union's row blocks follow the
            # sorted overlay names, which keys the cached stack.
            ids = sorted(ids, key=lambda i: queries[i].overlay)
            nets = [self.network(queries[i].overlay) for i in ids]
            names = tuple(dict.fromkeys(queries[i].overlay for i in ids))
            if len(names) == 1:
                kernel: FloodKernel = self._overlay(names[0]).kernel
            else:
                stack = self._network_tuple(names).union_csr
                assert stack is not None
                kernel = UnionFloodKernel(*stack, backend=self._backend)
            masks = [queries[i].byz_mask for i in ids]
            batch = run_counting_multinet(
                nets,
                [queries[i].seed for i in ids],
                config=[
                    queries[i].config or self.default_config for i in ids
                ],
                adversary_factory=specs[key],
                byz_mask=masks if any(m is not None for m in masks) else None,
                kernel=kernel,
            )
            for i, res in zip(ids, batch, strict=True):
                results[i] = res
        assert all(res is not None for res in results)
        return results  # type: ignore[return-value]

    def sweep(
        self,
        names: Sequence[str] | None = None,
        *,
        seeds: Any,
        configs: Any = None,
        placements: Any = None,
        strategies: Any = None,
        jobs: int | None = None,
        shard_cells: int | None = None,
        checkpoint: str | os.PathLike[str] | None = None,
    ) -> "MultiSweepResult":
        """Run a multi-overlay sweep over the resident networks.

        Delegates to :func:`repro.core.sweep.run_multi_sweep` with the
        cached union-stack payload (a
        :class:`~repro.graphs.shared.NetworkTuple` carrying the
        pre-stacked block-diagonal CSR) and the engine's retry policy /
        execution report, so sharded rounds inherit the fault-tolerant
        dispatch.  The payload is keyed by overlay versions: sweeps
        between churn events reuse one stack.
        """
        from ..core.sweep import run_multi_sweep

        if names is None:
            names = self.overlay_names()
        payload = self._network_tuple(tuple(names))
        return run_multi_sweep(
            payload,
            seeds=seeds,
            configs=configs,
            placements=placements,
            strategies=strategies,
            jobs=jobs,
            shard_cells=shard_cells,
            backend=self._backend,
            policy=self.policy,
            report=self.report,
            checkpoint=checkpoint,
        )

    # ------------------------------------------------------------------
    # Versioned caches
    # ------------------------------------------------------------------
    def _cache_key(self, names: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
        return tuple((name, self._overlay(name).graph.version) for name in names)

    def _network_tuple(self, names: tuple[str, ...]) -> NetworkTuple:
        key = self._cache_key(names)
        payload = self._tuple_cache.get(key)
        if payload is None:
            payload = NetworkTuple.build(
                [self.network(name) for name in names], union=True
            )
            if len(self._tuple_cache) >= _TUPLE_CACHE_CAP:
                self._tuple_cache.pop(next(iter(self._tuple_cache)))
            self._tuple_cache[key] = payload
        return payload
