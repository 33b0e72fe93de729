"""Chaos-harness self-tests: the fault injector must itself be deterministic.

Satellite contract: seeded schedules reproduce exactly, explicit
schedules fire literally, a rate-0 schedule is byte-identical to the
undecorated path, and every injected fault is visible in the on-disk
fault log so sweep-level tests can reconcile it against the
:class:`~repro.exec.ExecutionReport`.
"""

import os
import pickle

import pytest
from helpers import square

from repro.exec import ChaosSchedule, ExecutionReport, RetryPolicy
from repro.exec.chaos import (
    ChaosController,
    ChaosError,
    active,
    current,
    item_key,
    wrap,
)
from repro.experiments.common import parallel_map


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"hang_rate": 1.5},
            {"raise_rate": -1.0},
            {"crash_rate": 0.6, "hang_rate": 0.6},
            {"hang_seconds": 0.0},
            {"crash_delay": -1.0},
            {"max_faults_per_shard": -1},
            {"faults": ((-1, ("crash",)),)},
            {"faults": ((0, ("segfault",)),)},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSchedule(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            ChaosSchedule(raise_rate=0.5).fault_for(0, 0)


class TestScheduleDeterminism:
    def test_rate_schedule_is_pure_function_of_seed(self):
        sched = ChaosSchedule(seed=11, crash_rate=0.2, hang_rate=0.2, raise_rate=0.2)
        grid = [(i, a) for i in range(16) for a in (1,)]
        first = [sched.fault_for(i, a) for i, a in grid]
        second = [sched.fault_for(i, a) for i, a in grid]
        assert first == second
        # A 60% combined rate over 16 shards injects something.
        assert any(kind is not None for kind in first)
        assert {k for k in first if k is not None} <= {"crash", "hang", "raise"}

    def test_different_seeds_differ(self):
        grid = [(i, 1) for i in range(32)]
        a = [ChaosSchedule(seed=1, raise_rate=0.5).fault_for(i, n) for i, n in grid]
        b = [ChaosSchedule(seed=2, raise_rate=0.5).fault_for(i, n) for i, n in grid]
        assert a != b

    def test_max_faults_per_shard_caps_rate_faults(self):
        sched = ChaosSchedule(seed=0, raise_rate=1.0, max_faults_per_shard=1)
        assert sched.fault_for(4, 1) == "raise"
        assert sched.fault_for(4, 2) is None  # retry budget always suffices

    def test_explicit_faults_taken_literally(self):
        sched = ChaosSchedule.explicit({2: ("crash", "hang")})
        assert sched.fault_for(2, 1) == "crash"
        assert sched.fault_for(2, 2) == "hang"
        assert sched.fault_for(2, 3) is None
        assert sched.fault_for(0, 1) is None


class TestController:
    def test_claim_attempt_is_sequential_per_shard(self, tmp_path):
        ctrl = ChaosController(ChaosSchedule(), str(tmp_path))
        assert ctrl.claim_attempt(0) == 1
        assert ctrl.claim_attempt(0) == 2
        assert ctrl.claim_attempt(7) == 1  # shards claim independently
        assert ctrl.claim_attempt(0) == 3

    def test_fault_log_roundtrip(self, tmp_path):
        ctrl = ChaosController(ChaosSchedule(), str(tmp_path))
        assert ctrl.injected_faults() == []
        ctrl.log_fault(3, 1, "crash")
        ctrl.log_fault(0, 2, "raise")
        faults = ctrl.injected_faults()
        # Sorted by (index, attempt), not by log order.
        assert [(f.index, f.attempt, f.kind) for f in faults] == [
            (0, 2, "raise"),
            (3, 1, "crash"),
        ]
        assert all(f.pid == os.getpid() for f in faults)

    def test_active_installs_and_clears(self, tmp_path):
        assert current() is None
        with active(ChaosSchedule(), str(tmp_path)) as ctrl:
            assert current() is ctrl
            with pytest.raises(RuntimeError, match="nesting"):
                with active(ChaosSchedule(), str(tmp_path)):
                    pass  # pragma: no cover
        assert current() is None


class TestWrappedCall:
    def test_owner_process_passes_through(self, tmp_path):
        # Faults only fire in workers: in the owning process even a
        # certain-fault schedule must call straight through (this is what
        # keeps degraded-to-serial maps alive under chaos).
        ctrl = ChaosController(ChaosSchedule(raise_rate=1.0), str(tmp_path))
        wrapped = wrap(square, ctrl, [5])
        assert wrapped(5) == 25
        assert ctrl.injected_faults() == []

    def test_item_key_stable(self):
        assert item_key((1, "a")) == item_key((1, "a"))
        assert item_key((1, "a")) != item_key((1, "b"))


class TestEndToEndInjection:
    def test_rate_zero_is_byte_identical_to_undecorated(self, tmp_path):
        items = list(range(6))
        plain = parallel_map(square, items, jobs=2)
        with active(ChaosSchedule(seed=3), str(tmp_path)) as ctrl:
            chaotic = parallel_map(square, items, jobs=2)
        assert pickle.dumps(chaotic) == pickle.dumps(plain)
        assert ctrl.injected_faults() == []

    def test_injected_raises_are_retried_and_accounted(self, tmp_path):
        items = list(range(6))
        sched = ChaosSchedule.explicit({1: ("raise",), 3: ("raise", "raise")})
        report = ExecutionReport()
        with active(sched, str(tmp_path)) as ctrl:
            out = parallel_map(
                square,
                items,
                jobs=2,
                policy=RetryPolicy(max_retries=2, backoff_base=0.0),
                report=report,
            )
        assert out == [x * x for x in items]
        injected = ctrl.injected_faults()
        assert [(f.index, f.attempt) for f in injected] == [(1, 1), (3, 1), (3, 2)]
        assert report.total_errors == 3
        assert report.total_faults == len(injected)
        assert report.shard(3).retries == 2

    def test_exhausted_injection_raises_chaos_error(self, tmp_path):
        sched = ChaosSchedule.explicit({0: ("raise", "raise", "raise")})
        with active(sched, str(tmp_path)):
            with pytest.raises(ChaosError):
                parallel_map(
                    square,
                    [1, 2],
                    jobs=2,
                    policy=RetryPolicy(max_retries=2, backoff_base=0.0),
                )

    def test_exhausted_rebuild_budget_degrades_but_completes(self, tmp_path):
        # A pool that keeps breaking must never take the map down: with a
        # zero-rebuild budget the first injected crash degrades the map
        # to in-process serial execution, where chaos passes through
        # (faults fire only in workers) — so the map still completes,
        # with the degradation flagged and warned exactly once.
        from repro.exec.resilience import _reset_degrade_warning

        items = list(range(6))
        sched = ChaosSchedule.explicit({1: ("crash",)}, crash_delay=0.2)
        report = ExecutionReport()
        policy = RetryPolicy(max_retries=2, backoff_base=0.01, max_pool_rebuilds=0)
        _reset_degrade_warning()
        try:
            with active(sched, str(tmp_path)) as ctrl:
                with pytest.warns(RuntimeWarning, match="serial"):
                    out = parallel_map(
                        square, items, jobs=2, policy=policy, report=report
                    )
        finally:
            _reset_degrade_warning()
        assert out == [x * x for x in items]
        assert report.degraded
        assert report.pool_rebuilds == 1
        assert [(f.index, f.kind) for f in ctrl.injected_faults()] == [(1, "crash")]
        assert any(rec.degraded for rec in report.shards)

    def test_seeded_runs_reproduce_the_same_faults(self, tmp_path):
        # Two runs of the same seeded schedule (fresh state dirs) must
        # inject the identical (shard, attempt, kind) set and produce the
        # same results — a chaotic run is exactly reproducible.
        items = list(range(8))
        sched = ChaosSchedule(seed=5, raise_rate=0.4)
        logs = []
        for run in ("a", "b"):
            report = ExecutionReport()
            with active(sched, str(tmp_path / run)) as ctrl:
                out = parallel_map(
                    square,
                    items,
                    jobs=2,
                    policy=RetryPolicy(max_retries=2, backoff_base=0.0),
                    report=report,
                )
            assert out == [x * x for x in items]
            assert report.total_faults == len(ctrl.injected_faults())
            logs.append(
                sorted((f.index, f.attempt, f.kind) for f in ctrl.injected_faults())
            )
        assert logs[0] == logs[1]
        assert logs[0]  # 40% over 8 shards injects at least one fault
