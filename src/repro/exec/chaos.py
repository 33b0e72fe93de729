"""Deterministic fault injection for the resilience layer's own tests.

The chaos harness wraps a shard function so that chosen ``(shard,
attempt)`` pairs **crash** the worker process (``os._exit``), **hang**
past the configured timeout, or **raise** — on a schedule that is a pure
function of a seed, so a chaotic run is exactly reproducible.

Faults must be decided *per attempt* across *process boundaries*: the
first attempt of shard 3 crashes, the retry of shard 3 runs in a fresh
worker that has no memory of the crash.  The harness therefore keeps its
cross-process state in a ``state_dir`` on disk:

* **attempt claims** — each ``(shard, attempt)`` is claimed exactly once
  via an ``O_CREAT | O_EXCL`` marker file, so a worker deterministically
  learns which attempt it is executing even after crashes;
* **fault log** — every injected fault appends one line (a single
  ``O_APPEND`` write, atomic for short lines) so tests can reconcile the
  injected faults against the :class:`~repro.exec.resilience.ExecutionReport`.

Faults only fire in *worker* processes: the wrapper records the owning
pid and passes straight through when called in-process, so a map that
degrades to serial execution always completes.

This module deliberately uses ``numpy.random.default_rng`` directly
instead of :func:`repro.sim.rng.stream`: injection schedules are test
scaffolding that must never share (or perturb) the simulation's seed
universe.  reprolint rule R005 is path-exempted for exactly this file —
see ``PATH_RULE_EXEMPTIONS`` in ``tools/reprolint/rules.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "ChaosController",
    "ChaosError",
    "ChaosSchedule",
    "ChaosWrapped",
    "InjectedFault",
    "active",
    "current",
    "item_key",
    "wrap",
]

#: Salt word mixed into every schedule draw so chaos streams can never
#: collide with simulation streams even under an identical seed.
_CHAOS_SALT = 0xC4A0_5F00

#: Fault kinds, in the priority order the rate thresholds are checked.
_KINDS = ("crash", "hang", "raise")


class ChaosError(RuntimeError):
    """The exception an injected ``raise`` fault throws in the worker."""


@dataclass(frozen=True)
class InjectedFault:
    """One fault the harness actually injected (parsed from the log)."""

    index: int
    attempt: int
    kind: str
    pid: int


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic fault schedule: pure function of ``(seed, shard, attempt)``.

    ``crash_rate`` / ``hang_rate`` / ``raise_rate`` are per-attempt
    probabilities (summing to <= 1) resolved by one uniform draw from
    ``default_rng(SeedSequence([salt, seed, index, attempt]))`` — the
    same ``(seed, index, attempt)`` always yields the same decision, in
    any process.  ``faults`` pins explicit faults instead: a tuple of
    ``(shard index, (kind per attempt, ...))`` entries, e.g.
    ``ChaosSchedule.explicit({2: ("crash", "hang")})`` crashes shard 2's
    first attempt and hangs its second.  ``max_faults_per_shard`` caps
    rate-drawn faults so a retry budget of ``max_retries`` always
    suffices; explicit faults are taken literally.  ``crash_delay``
    holds a crash fault for that many seconds before ``os._exit`` so the
    dispatcher observes the shard running and attributes the crash to it
    (instant crashes are indistinguishable from queued-shard loss).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    raise_rate: float = 0.0
    hang_seconds: float = 30.0
    crash_delay: float = 0.0
    max_faults_per_shard: int = 1
    faults: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "raise_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.crash_rate + self.hang_rate + self.raise_rate > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to <= 1")
        if self.hang_seconds <= 0:
            raise ValueError(f"hang_seconds must be > 0, got {self.hang_seconds}")
        if self.crash_delay < 0:
            raise ValueError(f"crash_delay must be >= 0, got {self.crash_delay}")
        if self.max_faults_per_shard < 0:
            raise ValueError(
                f"max_faults_per_shard must be >= 0, got {self.max_faults_per_shard}"
            )
        for entry in self.faults:
            index, kinds = entry
            if index < 0:
                raise ValueError(f"explicit fault index must be >= 0, got {index}")
            for kind in kinds:
                if kind not in _KINDS:
                    raise ValueError(
                        f"unknown fault kind {kind!r}; expected one of {_KINDS}"
                    )

    @classmethod
    def explicit(
        cls,
        faults: Mapping[int, Sequence[str]],
        *,
        hang_seconds: float = 30.0,
        crash_delay: float = 0.0,
    ) -> ChaosSchedule:
        """Schedule with pinned faults only: ``{shard: [kind, ...]}``."""
        entries = tuple(
            sorted((int(i), tuple(kinds)) for i, kinds in faults.items())
        )
        return cls(faults=entries, hang_seconds=hang_seconds, crash_delay=crash_delay)

    def fault_for(self, index: int, attempt: int) -> str | None:
        """Fault kind for attempt ``attempt`` (1-based) of shard ``index``.

        Returns ``"crash"``, ``"hang"``, ``"raise"``, or ``None``.
        Deterministic across processes and runs.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        for fault_index, kinds in self.faults:
            if fault_index == index:
                if attempt <= len(kinds):
                    return kinds[attempt - 1]
                return None
        total = self.crash_rate + self.hang_rate + self.raise_rate
        if total <= 0.0 or attempt > self.max_faults_per_shard:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence([_CHAOS_SALT, self.seed, index, attempt])
        )
        u = float(rng.random())
        if u < self.crash_rate:
            return "crash"
        if u < self.crash_rate + self.hang_rate:
            return "hang"
        if u < total:
            return "raise"
        return None


@dataclass
class ChaosController:
    """Active chaos state: the schedule plus the on-disk coordination dir."""

    schedule: ChaosSchedule
    state_dir: str

    def claim_attempt(self, index: int) -> int:
        """Claim and return the next attempt number (1-based) for a shard.

        Uses ``O_CREAT | O_EXCL`` marker files so exactly one process
        owns each ``(shard, attempt)`` pair, even across crashes.
        """
        attempt = 1
        while True:
            marker = os.path.join(self.state_dir, f"attempt-{index}-{attempt}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt

    def log_fault(self, index: int, attempt: int, kind: str) -> None:
        """Append one fault record; a single O_APPEND write is atomic."""
        line = f"{index}\t{attempt}\t{kind}\t{os.getpid()}\n".encode()
        fd = os.open(
            os.path.join(self.state_dir, "faults.log"),
            os.O_CREAT | os.O_WRONLY | os.O_APPEND,
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def injected_faults(self) -> list[InjectedFault]:
        """Every fault actually injected so far, sorted by ``(index, attempt)``.

        Worker processes append to the log concurrently, so the file's
        line order is the nondeterministic cross-process arrival order;
        sorting by shard index, then attempt number, gives the same list
        for the same schedule on every run.
        """
        path = os.path.join(self.state_dir, "faults.log")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []
        out: list[InjectedFault] = []
        for line in raw.decode().splitlines():
            index, attempt, kind, pid = line.split("\t")
            out.append(InjectedFault(int(index), int(attempt), kind, int(pid)))
        return sorted(out, key=lambda f: (f.index, f.attempt))


# Module-global controller consulted by parallel_map; set via active().
_CURRENT: ChaosController | None = None


def current() -> ChaosController | None:
    """The controller installed by :func:`active`, or ``None``."""
    return _CURRENT


@contextlib.contextmanager
def active(schedule: ChaosSchedule, state_dir: str) -> Iterator[ChaosController]:
    """Install a chaos controller for the duration of a ``with`` block.

    While active, ``parallel_map`` wraps its shard function with
    :func:`wrap`, injecting the schedule's faults into worker processes.
    """
    global _CURRENT
    if _CURRENT is not None:
        raise RuntimeError("chaos is already active; nesting is not supported")
    os.makedirs(state_dir, exist_ok=True)
    controller = ChaosController(schedule=schedule, state_dir=state_dir)
    _CURRENT = controller
    try:
        yield controller
    finally:
        _CURRENT = None


def item_key(item: Any) -> str:
    """Stable cross-process identity for a shard item (pickle digest)."""
    payload = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


class ChaosWrapped:
    """Picklable shard-function wrapper that injects scheduled faults.

    Identifies the shard by the pickle digest of its item (future-based
    dispatch hands workers one item at a time with no index), claims the
    attempt number through the controller's marker files, and fires the
    scheduled fault *before* calling through — so a successful return is
    always a genuine, fault-free execution of the real shard function.

    Faults fire only in worker processes: when called by the owning
    process (serial fast path or post-degradation cleanup) the wrapper
    passes straight through.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        schedule: ChaosSchedule,
        state_dir: str,
        index_by_key: dict[str, int],
    ) -> None:
        self.fn = fn
        self.schedule = schedule
        self.state_dir = state_dir
        self.index_by_key = index_by_key
        self.owner_pid = os.getpid()

    def __call__(self, item: Any) -> Any:
        if os.getpid() == self.owner_pid:
            return self.fn(item)
        index = self.index_by_key.get(item_key(item))
        if index is None:  # pragma: no cover - defensive: unknown item
            return self.fn(item)
        controller = ChaosController(
            schedule=self.schedule, state_dir=self.state_dir
        )
        attempt = controller.claim_attempt(index)
        kind = self.schedule.fault_for(index, attempt)
        if kind is not None:
            if kind == "crash":
                # Delay so the dispatcher can observe the shard RUNNING
                # before the pool breaks — an instantaneous crash is
                # indistinguishable from queued-innocent loss, which
                # would make fault attribution nondeterministic.  Log
                # after the delay: a worker killed mid-delay (e.g. by a
                # timeout teardown) never actually crashed.
                if self.schedule.crash_delay > 0.0:
                    time.sleep(self.schedule.crash_delay)
                controller.log_fault(index, attempt, kind)
                os._exit(1)
            controller.log_fault(index, attempt, kind)
            if kind == "hang":
                time.sleep(self.schedule.hang_seconds)
                raise ChaosError(
                    f"hung shard {index} attempt {attempt} was never reaped"
                )
            raise ChaosError(f"injected raise: shard {index} attempt {attempt}")
        return self.fn(item)


def wrap(
    fn: Callable[[Any], Any],
    controller: ChaosController,
    items: Sequence[Any],
) -> ChaosWrapped:
    """Wrap ``fn`` so the controller's schedule fires on these items."""
    index_by_key = {item_key(item): i for i, item in enumerate(items)}
    return ChaosWrapped(fn, controller.schedule, controller.state_dir, index_by_key)
