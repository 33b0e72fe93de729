"""A fixed CPU-speed probe, so timings can be reported at a reference speed.

The shared hosts this benchmark runs on change speed for minutes at a time:
identical runs of the same code have differed by 30-70% in wall time with
CPU time equal to wall time and steal time under 1%, so the difference is
the processor's speed, not waiting.  A whole run usually lands in one speed, which puts that
difference straight into every timing's run-to-run spread.

:class:`SpeedProbe` times a fixed piece of work made only of the
benchmark's own code -- interpreter loops over dicts and ints, NumPy
gathers and max-reductions, and random draws, the operations the
estimator spends its time in -- at points spread over the run.  No change
to the program can move it, so the ratio of :data:`REFERENCE_PROBE_S` to
its median in a run measures how fast the host ran during that run, and
timings multiplied by that ratio are what the run would have read on the
reference host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe time on the reference host: a virtual machine with 2
#: vCPUs of an Intel Xeon, CPython 3.11, NumPy 2.4.
REFERENCE_PROBE_S = 0.016

#: Probe samples taken at the start of a run and on each side of an
#: open-loop window.
BURST = 25


class SpeedProbe:
    """Times one fixed unit of interpreter and NumPy work per ``sample``."""

    ROWS = 2048
    DEG = 8
    COLS = 16

    def __init__(self) -> None:
        rng = np.random.default_rng(20260101)
        self.table = rng.integers(0, 1 << 20, size=(self.ROWS, self.COLS))
        self.index = rng.integers(0, self.ROWS, size=self.ROWS * self.DEG)
        # Every array the work writes is allocated here, once: a temporary
        # this large comes from mmap or from the heap depending on what the
        # process freed before, which moved the probe's time by a fifth.
        self.state = np.empty_like(self.table)
        self.gathered = np.empty((self.ROWS * self.DEG, self.COLS), dtype=self.table.dtype)
        self.reduced = np.empty_like(self.table)
        self.uniform = np.empty(self.table.shape)
        self.drop = np.empty(self.table.shape, dtype=bool)
        self.samples: list[float] = []

    def _work(self) -> int:
        counts: dict[int, int] = {}
        acc = 0
        for i in range(30000):
            key = (i * 2654435761) & 1023
            counts[key] = counts.get(key, 0) + 1
            acc ^= key * i
        rng = np.random.default_rng(acc & 0xFFFF)
        state = self.state
        np.copyto(state, self.table)
        for _ in range(10):
            np.take(state, self.index, axis=0, out=self.gathered)
            np.max(
                self.gathered.reshape(self.ROWS, self.DEG, self.COLS), axis=1, out=self.reduced
            )
            np.maximum(state, self.reduced, out=state)
            rng.random(out=self.uniform)
            np.less(self.uniform, 0.1, out=self.drop)
            np.copyto(state, self.table, where=self.drop)
        return int(state[0, 0]) + len(counts)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - t0)

    @property
    def probe_s(self) -> float:
        return float(statistics.median(self.samples))

    @property
    def scale(self) -> float:
        """Multiply a wall time by this to get it at the reference speed."""
        return REFERENCE_PROBE_S / self.probe_s
