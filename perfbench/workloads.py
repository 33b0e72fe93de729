"""The three benchmark workloads: inputs from the seed, requests, checks.

Every input (graph seeds, placements, trial seeds, arrival times, churn
deltas) is derived from the workload seed with
:func:`repro.sim.rng.derive_seed` / :func:`repro.sim.rng.stream`; the
program only ever sees the generated values.

``cold-estimate`` and ``lossy-sweep`` are closed loops with one client: a
request starts when the previous one (and its output check) finished.
``service-churn`` is an open loop: queries and churn commands are sent on
a seeded schedule whether or not earlier ones were answered, and each is
timed from the moment it was due.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.adversary.placement import placement_for_delta
from repro.core.batch import run_counting_batch
from repro.core.config import CountingConfig
from repro.core.estimator import make_adversary, practical_band
from repro.core.results import CountingResult
from repro.core.runner import run_counting
from repro.core.sweep import run_multi_sweep, run_sweep
from repro.graphs.delta import ResidentGraph
from repro.graphs.shared import NetworkTuple
from repro.graphs.smallworld import build_small_world
from repro.service import ChurnDelta, EstimationService, ResidentEngine, SizeQuery
from repro.sim.channel import ChannelModel
from repro.sim.rng import derive_seed, make_rng, stream
from spans import Recorder
from speed import BURST, SpeedProbe

D = 8
BAND = practical_band(D)


@dataclass
class Pass:
    """What one measured window produced."""

    latencies_s: list[float] = field(default_factory=list)
    request_trials: list[int] = field(default_factory=list)  # closed loop only
    elapsed_s: float = 0.0
    window_s: float = 0.0
    trials: int = 0
    attempted: int = 0
    checks: int = 0
    check_failures: list[str] = field(default_factory=list)
    op_errors: list[str] = field(default_factory=list)  # failed or unanswered
    in_band: int = 0
    honest: int = 0
    rounds: int = 0
    messages: int = 0
    injections: list[int] = field(default_factory=lambda: [0, 0])
    # Open loop only.
    churn_latencies_s: list[float] = field(default_factory=list)
    gen_lag_s: list[float] = field(default_factory=list)
    backlog_max: int = 0
    query_windows: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.op_errors) + len(self.check_failures)

    def account(self, results: list[CountingResult]) -> None:
        for res in results:
            self.in_band += int(res.in_band(*BAND).sum())
            self.honest += int(res.honest.sum())
            self.rounds += int(res.meter.rounds)
            self.messages += int(res.meter.messages)
            self.injections[0] += int(res.injections_accepted)
            self.injections[1] += int(res.injections_rejected)
        self.trials += len(results)


def same_trial(got: CountingResult, want: CountingResult) -> bool:
    """Bit-for-bit equality of decisions, crashes and the message meter."""
    return (
        np.array_equal(got.decided_phase, want.decided_phase)
        and np.array_equal(got.crashed, want.crashed)
        and got.meter.as_dict() == want.meter.as_dict()
    )


@contextmanager
def paused(rec: Recorder | None) -> Iterator[None]:
    """Stop recording spans (output checks run outside the traced window)."""
    if rec is None:
        yield
        return
    rec.active = False
    try:
        yield
    finally:
        rec.active = True


class Workload:
    """Inputs derive from ``seed``; ``setup`` is what ``setup_s`` times."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def key(self, *parts: int | str) -> int:
        return derive_seed(self.seed, self.name, *parts)

    def setup(self) -> None:
        raise NotImplementedError

    def rewind(self) -> None:
        """Return to the state ``setup`` left (between two windows)."""

    def measure(self, seconds: float, probe: SpeedProbe, rec: Recorder | None = None) -> Pass:
        """Run the timed window; sample ``probe`` only outside it."""
        raise NotImplementedError


class ClosedLoop(Workload):
    """One client; the timed window is the sum of request latencies.  The
    speed probe runs once after each request, so its samples span the run."""

    def request(
        self, i: int | str
    ) -> tuple[list[CountingResult], Callable[[], str | None]]:
        """Run request ``i``; return its results and its output check."""
        raise NotImplementedError

    def measure(self, seconds: float, probe: SpeedProbe, rec: Recorder | None = None) -> Pass:
        p = Pass()
        i = 0
        while p.elapsed_s < seconds:
            span = rec.span("request", rid=f"r{i}") if rec else nullcontext()
            t0 = time.perf_counter()
            with span:
                results, check = self.request(i)
                p.account(results)
            dt = time.perf_counter() - t0
            p.elapsed_s += dt
            p.latencies_s.append(dt)
            p.request_trials.append(len(results))
            p.attempted += 1
            with paused(rec):
                problem = check()
                probe.sample()
            # Drop this request's network and results before the next one
            # starts, so peak memory is one request's, not two.
            del results, check
            p.checks += 1
            if problem is not None:
                p.check_failures.append(f"request {i}: {problem}")
            i += 1
        p.window_s = p.elapsed_s
        return p


class ColdEstimate(ClosedLoop):
    """Fresh overlay per request, then an E07-shaped Byzantine sweep."""

    name = "cold-estimate"
    N = 2048
    STRATEGIES = ("early-stop", "inflation", "mobile")
    #: Strategies the scalar oracle can replay (it has no adaptation hook).
    STATIC = (0, 1)
    PLACEMENTS = 2
    SEEDS = 4
    DELTA = 0.5

    def setup(self) -> None:
        self.request("warm-up")

    def request(
        self, i: int | str
    ) -> tuple[list[CountingResult], Callable[[], str | None]]:
        net = build_small_world(self.N, D, seed=self.key("graph", i))
        placements = [
            placement_for_delta(net, self.DELTA, rng=self.key("placement", i, j))
            for j in range(self.PLACEMENTS)
        ]
        seeds = [self.key("trial", i, b) for b in range(self.SEEDS)]
        sweep = run_sweep(
            net, seeds=seeds, placements=placements, strategies=list(self.STRATEGIES)
        )

        def check() -> str | None:
            pick = stream(self.seed, self.name, "check", i)
            s = self.STATIC[int(pick.integers(len(self.STATIC)))]
            p = int(pick.integers(self.PLACEMENTS))
            b = int(pick.integers(self.SEEDS))
            want = run_counting(
                net,
                CountingConfig(),
                seed=seeds[b],
                adversary=make_adversary(self.STRATEGIES[s]),
                byz_mask=placements[p],
            )
            if same_trial(sweep.cell(strategy=s, placement=p, seed=b), want):
                return None
            return f"{self.STRATEGIES[s]} placement {p} seed {b} differs from run_counting"

        return sweep.results, check


class LossySweep(ClosedLoop):
    """Union-stack sweep of two resident overlays under a lossy channel."""

    name = "lossy-sweep"
    SIZES = (1024, 2048)
    SEEDS = 16
    CONFIG = CountingConfig(verification=False)
    CHANNEL = ChannelModel(loss_p=0.15, noise_p=0.05, noise_amp=2)

    def setup(self) -> None:
        self.nets = [
            build_small_world(n, D, seed=self.key("overlay", n)) for n in self.SIZES
        ]
        self.payload = NetworkTuple.build(self.nets, union=True)
        self.request("warm-up")

    def request(
        self, i: int | str
    ) -> tuple[list[CountingResult], Callable[[], str | None]]:
        seeds = [self.key("trial", i, b) for b in range(self.SEEDS)]
        sweep = run_multi_sweep(
            self.payload, seeds=seeds, configs=self.CONFIG, channel=self.CHANNEL
        )

        def check() -> str | None:
            if sweep.layout != "union":
                return f"ran the {sweep.layout} layout, not the union stack"
            pick = stream(self.seed, self.name, "check", i)
            g = int(pick.integers(len(self.nets)))
            b = int(pick.integers(self.SEEDS))
            want = run_counting_batch(
                self.nets[g], [seeds[b]], config=self.CONFIG, channel=self.CHANNEL
            )[0]
            if same_trial(sweep.cell(network=g, seed=b), want):
                return None
            return f"network {g} seed {b} differs from run_counting_batch"

        return sweep.results, check


@dataclass(frozen=True)
class Op:
    """One scheduled operation of the open loop."""

    t: float
    kind: str  # "query" or "churn"
    overlay: str
    seed: int  # query seed, or the joiner-anchor seed of a churn
    leave: int = -1  # churn only: the node that leaves (one joins)


class ServiceChurn(Workload):
    """Open-loop queries and single-node churn against a resident engine."""

    name = "service-churn"
    OVERLAYS = {"a": 1024, "b": 2048}
    #: Poisson query rate (per second) and each overlay's share of it.  The
    #: uneven split keeps the median query inside one overlay's latency
    #: mode; an even split put it on the boundary between the two.
    QUERY_RATE = 8.0
    QUERY_SHARE = {"a": 0.25, "b": 0.75}
    #: Single-node leave+join commands per second, alternating overlays.
    #: Together with the queries this keeps the engine about a fifth busy:
    #: open-loop latency amplifies CPU-speed noise through queueing, and
    #: at half busy the median moved by a fifth between identical runs.
    CHURN_RATE = 0.2
    #: A query not answered this long after the window ends is failed.
    GRACE_S = 2.0
    #: Answered queries re-run through run_counting_batch per window.
    CHECKS = 8

    def setup(self) -> None:
        self.initial = {
            name: build_small_world(n, D, seed=self.key("overlay", name))
            for name, n in self.OVERLAYS.items()
        }
        self.rewind()

    def rewind(self) -> None:
        """A fresh engine over the initial overlays, warmed by one query each."""
        engine = ResidentEngine()
        for name, net in self.initial.items():
            engine.add_overlay(name, network=net)
        engine.serve([SizeQuery(name, self.key("warm-up", name)) for name in self.initial])
        self.engine = engine

    def schedule(self, seconds: float) -> list[Op]:
        rng = stream(self.seed, self.name, "schedule")
        names = list(self.OVERLAYS)
        # A Poisson process conditioned on its count: the offered load is
        # exactly QUERY_RATE per second, arrivals stay Poisson-bursty.
        n_q = round(self.QUERY_RATE * seconds)
        times = np.sort(rng.uniform(0.0, seconds, n_q))
        picks = rng.choice(len(names), size=n_q, p=[self.QUERY_SHARE[n] for n in names])
        ops = [
            Op(float(t), "query", names[int(g)], self.key("query", j))
            for j, (t, g) in enumerate(zip(times, picks))
        ]
        n_c = round(self.CHURN_RATE * seconds)
        jitter = rng.uniform(-0.25, 0.25, n_c)
        for k in range(n_c):
            name = names[k % len(names)]
            ops.append(
                Op(
                    float((k + 0.5 + jitter[k]) / self.CHURN_RATE),
                    "churn",
                    name,
                    self.key("churn", k),
                    int(rng.integers(self.OVERLAYS[name])),
                )
            )
        ops.sort(key=lambda op: op.t)
        return ops

    def measure(self, seconds: float, probe: SpeedProbe, rec: Recorder | None = None) -> Pass:
        ops = self.schedule(seconds)
        p = Pass(window_s=seconds, attempted=len(ops))
        # Inside the window the probe would compete with the engine thread
        # for the interpreter lock, so it samples right before and after.
        probe.sample(BURST)
        answered = asyncio.run(self._drive(ops, seconds, p))
        probe.sample(BURST)
        with paused(rec):
            self._check(ops, answered, p)
        return p

    async def _drive(
        self, ops: list[Op], seconds: float, p: Pass
    ) -> dict[int, CountingResult]:
        loop = asyncio.get_running_loop()
        service = EstimationService(self.engine, max_pending=len(ops) + 1)
        done: dict[int, tuple[Any, float]] = {}
        errors: dict[int, str] = {}
        inflight = 0

        async def send(k: int, op: Op, due: float) -> None:
            nonlocal inflight
            try:
                if op.kind == "query":
                    out: Any = await service.query(op.overlay, op.seed)
                else:
                    out = await service.churn(
                        op.overlay, ChurnDelta.replace([op.leave]), rng=op.seed
                    )
                done[k] = (out, time.perf_counter())
            except Exception as exc:  # recorded as a failed operation
                errors[k] = f"raised {type(exc).__name__}: {exc}"
            finally:
                inflight -= 1

        tasks = []
        t0 = time.perf_counter() + 0.01
        try:
            for k, op in enumerate(ops):
                due = t0 + op.t
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                p.gen_lag_s.append(max(0.0, time.perf_counter() - due))
                inflight += 1
                p.backlog_max = max(p.backlog_max, inflight)
                tasks.append(loop.create_task(send(k, op, due)))
            deadline = t0 + seconds + self.GRACE_S
            await asyncio.wait(tasks, timeout=max(0.0, deadline - time.perf_counter()))
            in_time = dict(done)
        finally:
            await service.aclose()
            await asyncio.gather(*tasks, return_exceptions=True)

        answered: dict[int, CountingResult] = {}
        last = t0
        for k, op in enumerate(ops):
            if k not in in_time:
                p.op_errors.append(
                    f"op {k} ({op.kind}) "
                    + errors.get(k, f"unanswered {self.GRACE_S} s after the window")
                )
                continue
            out, t_done = in_time[k]
            due = t0 + op.t
            last = max(last, t_done)
            if op.kind == "churn":
                p.churn_latencies_s.append(t_done - due)
                continue
            answered[k] = out
            p.latencies_s.append(t_done - due)
            p.query_windows.append((op.seed, due, t_done))
            p.account([out])
        p.elapsed_s = last - t0
        return answered

    def _check(self, ops: list[Op], answered: dict[int, CountingResult], p: Pass) -> None:
        """Replay the churn schedule and re-run sampled answered queries."""
        rng = stream(self.seed, self.name, "check", len(ops))
        pool = sorted(answered)
        picks = sorted(rng.choice(pool, size=min(self.CHECKS, len(pool)), replace=False))
        config = self.engine.default_config
        for name, net in self.initial.items():
            graph = ResidentGraph.from_network(net)
            churns = [op for op in ops if op.kind == "churn" and op.overlay == name]
            applied = 0
            for k in picks:
                op = ops[k]
                if op.overlay != name:
                    continue
                version = sum(
                    1 for j in range(k) if ops[j].kind == "churn" and ops[j].overlay == name
                )
                while applied < version:
                    c = churns[applied]
                    graph.apply_delta((c.leave,), 1, make_rng(c.seed))
                    applied += 1
                want = run_counting_batch(graph.snapshot(), [op.seed], config=config)[0]
                p.checks += 1
                if not same_trial(answered[k], want):
                    p.check_failures.append(
                        f"query {k} on {name}@v{version} differs from run_counting_batch"
                    )


WORKLOADS: dict[str, type[Workload]] = {
    ColdEstimate.name: ColdEstimate,
    LossySweep.name: LossySweep,
    ServiceChurn.name: ServiceChurn,
}
