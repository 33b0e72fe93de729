"""Acceptance: chaotic sweeps finish bit-for-bit, account faults, leak nothing.

The PR's headline contract, pinned end-to-end through ``run_sweep``:

* a ``jobs=4`` sweep with injected worker **crashes**, **hangs**, and
  **raises** completes with results bit-for-bit equal to the fault-free
  run;
* the :class:`~repro.exec.ExecutionReport` accounts every injected
  fault (a hang taken down by a concurrent pool break is attributed as
  a crash — still one accounted fault for one injected fault);
* zero shared-memory segments remain afterwards;
* a sweep killed mid-run resumes from its checkpoint journal without
  recomputing completed shards.
"""

import glob
import warnings

import numpy as np
import pytest

from repro.core import CountingConfig, run_sweep
from repro.exec import (
    ChaosSchedule,
    ExecutionReport,
    RetryPolicy,
    ShardFailedError,
)
from repro.exec.chaos import active

SEEDS = list(range(6))
CFG = CountingConfig(max_phase=12)
STRATEGY = "early-stop"
SHARD_CELLS = 2  # 2 placements x 6 seeds = 12 cells -> 6 shards


def _run(net, byz_mask_small, **kwargs):
    # (1 strategy x 2 placements x 1 config x 6 seeds) = 12 cells, cut
    # into 6 two-cell shards so the explicit fault indices 0..5 exist.
    return run_sweep(
        net,
        seeds=SEEDS,
        configs=CFG,
        placements=[None, byz_mask_small],
        strategies=STRATEGY,
        shard_cells=SHARD_CELLS,
        **kwargs,
    )


def _repro_segments():
    return sorted(
        glob.glob("/dev/shm/psm_*") + glob.glob("/dev/shm/repro-*")
    )


def assert_sweeps_equal(a, b):
    assert len(a.results) == len(b.results)
    for x, y in zip(a.results, b.results):
        assert np.array_equal(x.decided_phase, y.decided_phase)
        assert np.array_equal(x.crashed, y.crashed)
        assert np.array_equal(x.byz, y.byz)
        assert x.meter.as_dict() == y.meter.as_dict()
        assert list(x.trace) == list(y.trace)
        assert x.injections_accepted == y.injections_accepted
        assert x.injections_rejected == y.injections_rejected


@pytest.fixture(scope="module")
def baseline(net_small, byz_mask_small):
    """The fault-free parallel sweep every chaotic run must reproduce."""
    return _run(net_small, byz_mask_small, jobs=4)


class TestChaoticSweepBitForBit:
    def test_crash_hang_raise_sweep_matches_fault_free(
        self, net_small, byz_mask_small, baseline, tmp_path
    ):
        before = _repro_segments()
        sched = ChaosSchedule.explicit(
            {1: ("crash",), 3: ("raise",), 5: ("hang",)},
            hang_seconds=30.0,
            crash_delay=0.2,
        )
        report = ExecutionReport()
        policy = RetryPolicy(max_retries=2, timeout=1.5, backoff_base=0.01)
        with active(sched, str(tmp_path / "chaos")) as ctrl:
            result = _run(
                net_small, byz_mask_small, jobs=4, policy=policy, report=report
            )
        assert_sweeps_equal(result, baseline)

        injected = ctrl.injected_faults()
        assert sorted((f.index, f.attempt, f.kind) for f in injected) == [
            (1, 1, "crash"),
            (3, 1, "raise"),
            (5, 1, "hang"),
        ]
        # Every injected fault is accounted on its own shard's record:
        # the crash as a crash, the raise as an error, the hang as a
        # timeout — or as a crash if the pool break reaped it first.
        assert report.shard(1).crashes >= 1
        assert report.shard(3).errors == 1
        assert report.shard(5).timeouts + report.shard(5).crashes >= 1
        assert report.total_errors == 1  # chaos never misfires a raise
        assert report.total_faults >= len(injected)
        assert report.pool_rebuilds >= 1
        assert not report.degraded

        assert _repro_segments() == before  # zero leaked shm segments

    def test_raise_only_chaos_accounts_exactly(
        self, net_small, byz_mask_small, baseline, tmp_path
    ):
        # Raised faults never involve pool teardowns, so the accounting
        # reconciles exactly: one error per injected fault, no rebuilds.
        sched = ChaosSchedule.explicit({0: ("raise",), 2: ("raise", "raise")})
        report = ExecutionReport()
        policy = RetryPolicy(max_retries=2, backoff_base=0.01)
        with active(sched, str(tmp_path / "chaos")) as ctrl:
            result = _run(
                net_small, byz_mask_small, jobs=4, policy=policy, report=report
            )
        assert_sweeps_equal(result, baseline)
        injected = ctrl.injected_faults()
        assert len(injected) == 3
        assert report.total_faults == report.total_errors == len(injected)
        assert report.total_retries == 3
        assert report.pool_rebuilds == 0


class TestCheckpointResume:
    def test_killed_sweep_resumes_without_recompute(
        self, net_small, byz_mask_small, baseline, tmp_path
    ):
        ckpt = tmp_path / "sweep.ckpt"
        # Shard 5 (dispatched last in queue order) hangs with no retry
        # budget: every earlier shard completes and is journaled, then
        # the sweep dies on the timeout — a deterministic mid-run kill.
        sched = ChaosSchedule.explicit({5: ("hang",)}, hang_seconds=30.0)
        policy = RetryPolicy(max_retries=0, timeout=1.0, backoff_base=0.01)
        with active(sched, str(tmp_path / "chaos")):
            with pytest.raises(ShardFailedError):
                _run(
                    net_small,
                    byz_mask_small,
                    jobs=2,
                    policy=policy,
                    checkpoint=ckpt,
                )
        # Resume, fault-free: only the unjournaled shard is recomputed.
        report = ExecutionReport()
        resumed = _run(
            net_small, byz_mask_small, jobs=2, checkpoint=ckpt, report=report
        )
        assert_sweeps_equal(resumed, baseline)
        assert report.resumed_shards == 5
        for i in range(5):
            assert report.shard(i).resumed
            assert report.shard(i).attempts == 0
        assert report.shard(5).attempts == 1

    def test_resume_never_redispatches_completed_shards(
        self, net_small, byz_mask_small, baseline, tmp_path
    ):
        # Journal the whole sweep, then re-run it under a chaos schedule
        # that would fault *every* shard on every attempt: the resumed
        # sweep must succeed purely from the journal, proving completed
        # shards are never re-dispatched.
        ckpt = tmp_path / "sweep.ckpt"
        first = _run(net_small, byz_mask_small, jobs=2, checkpoint=ckpt)
        assert_sweeps_equal(first, baseline)
        poison = ChaosSchedule.explicit(
            {i: ("raise", "raise", "raise", "raise") for i in range(6)}
        )
        report = ExecutionReport()
        with active(poison, str(tmp_path / "chaos")) as ctrl:
            second = _run(
                net_small, byz_mask_small, jobs=2, checkpoint=ckpt, report=report
            )
        assert_sweeps_equal(second, baseline)
        assert report.resumed_shards == 6
        assert report.total_attempts == 0
        assert ctrl.injected_faults() == []

    def test_changed_backend_starts_fresh_journal(
        self, net_small, byz_mask_small, baseline, tmp_path
    ):
        # The backend rides every shard task, so it is part of the plan
        # key: a journal written under one backend never serves a re-run
        # under another.  Backends agree bit for bit, so only the key
        # can tell the two runs apart.
        ckpt = tmp_path / "sweep.ckpt"
        _run(net_small, byz_mask_small, jobs=2, checkpoint=ckpt)
        report = ExecutionReport()
        with pytest.warns(RuntimeWarning, match="different shard plan"):
            again = _run(
                net_small,
                byz_mask_small,
                jobs=2,
                checkpoint=ckpt,
                report=report,
                backend="numba",
            )
        assert_sweeps_equal(again, baseline)
        assert report.resumed_shards == 0

    def test_same_backend_resumes_journal(
        self, net_small, byz_mask_small, baseline, tmp_path
    ):
        # The key is stable for an unchanged backend: a re-run under the
        # same explicit backend is served wholly from the journal.
        ckpt = tmp_path / "sweep.ckpt"
        _run(net_small, byz_mask_small, jobs=2, checkpoint=ckpt, backend="numpy")
        report = ExecutionReport()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = _run(
                net_small,
                byz_mask_small,
                jobs=2,
                checkpoint=ckpt,
                report=report,
                backend="numpy",
            )
        assert_sweeps_equal(again, baseline)
        assert report.resumed_shards == 6
        assert report.total_attempts == 0
