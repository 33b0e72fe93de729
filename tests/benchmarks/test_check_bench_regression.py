"""The bench regression gate must survive workload-set drift.

``benchmarks/check_bench_regression.py`` compares a fresh trajectory
against the committed ``BENCH_batch.json``.  The two files routinely
disagree on the *set* of workloads — a branch adds a benchmark before its
trajectory is committed, or an old workload is retired — and the gate has
to handle both directions without a ``KeyError``: committed-but-missing
workloads are regressions (the fresh run silently dropped coverage),
fresh-but-uncommitted workloads are warnings (they become gated once the
baseline is updated).  Malformed entries (no ``workload`` key) are skipped
with a warning on either side.
"""

import importlib.util
import pathlib


_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "check_bench_regression.py",
)
cbr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cbr)


def artifact(*entries, n=1024, trials=32):
    return {"n": n, "trials": trials, "trajectory": list(entries)}


def entry(name, speedup):
    return {"workload": name, "speedup": speedup}


class TestWorkloadSetDrift:
    def test_identical_trajectories_pass(self):
        base = artifact(entry("honest", 3.0), entry("sweep", 2.0))
        regressions, warnings = cbr.compare(base, base)
        assert regressions == []
        assert warnings == []

    def test_baseline_workload_missing_from_fresh_is_regression(self):
        baseline = artifact(entry("honest", 3.0), entry("sweep", 2.0))
        fresh = artifact(entry("honest", 3.0))
        regressions, warnings = cbr.compare(fresh, baseline)
        assert any("sweep" in r and "missing" in r for r in regressions)
        assert warnings == []

    def test_fresh_workload_missing_from_baseline_is_warning(self):
        baseline = artifact(entry("honest", 3.0))
        fresh = artifact(entry("honest", 3.0), entry("multi_net", 3.5))
        regressions, warnings = cbr.compare(fresh, baseline)
        assert regressions == []
        assert any("multi_net" in w and "not in the committed baseline" in w
                   for w in warnings)

    def test_both_directions_at_once(self):
        baseline = artifact(entry("honest", 3.0), entry("retired", 2.0))
        fresh = artifact(entry("honest", 3.0), entry("brand-new", 1.5))
        regressions, warnings = cbr.compare(fresh, baseline)
        assert any("retired" in r for r in regressions)
        assert any("brand-new" in w for w in warnings)

    def test_union_stack_first_appearance_is_warning_not_keyerror(self):
        # The union_stack workload lands in a branch before BENCH_batch.json
        # is regenerated: its first appearance (the gated entry plus its
        # informational multinet-vs-unionstack partner) must compare as
        # fresh-but-uncommitted — warnings, never a KeyError, and the
        # committed workloads still gate normally.
        baseline = artifact(entry("honest", 3.0), entry("multi_net", 3.5))
        fresh = artifact(
            entry("honest", 3.0),
            entry("multi_net", 3.5),
            entry("union_stack", 1.2),
            {
                "workload": "multinet-vs-unionstack",
                "mode": "informational",
                "speedup": 1.3,
            },
        )
        regressions, warnings = cbr.compare(fresh, baseline)
        assert regressions == []
        assert any(
            "union_stack" in w and "commit an updated BENCH_batch.json" in w
            for w in warnings
        )
        # The informational partner warns too, but without gating advice.
        assert any(
            "multinet-vs-unionstack" in w and "never gated" in w for w in warnings
        )

    def test_optional_backend_workload_missing_is_warning(self):
        # A committed numba workload on a numpy-only runner: bench_batch
        # never recorded it (the backend is gated on importability), so
        # its absence is informational — the numba CI leg gates it.
        baseline = artifact(
            entry("honest", 3.0),
            {"workload": "honest-numba", "speedup": 2.0, "requires": "numba"},
            {"workload": "union_stack-numba", "speedup": 1.8, "requires": "numba"},
        )
        fresh = artifact(entry("honest", 3.0))
        regressions, warnings = cbr.compare(fresh, baseline)
        assert regressions == []
        assert sum(
            "requires numba" in w and "not gating" in w for w in warnings
        ) == 2

    def test_optional_backend_workload_present_still_gates(self):
        # Same committed entry on the numba leg: present-but-slow must
        # still regress — ``requires`` only excuses absence.
        baseline = artifact(
            {"workload": "honest-numba", "speedup": 2.0, "requires": "numba"}
        )
        fresh = artifact(
            {"workload": "honest-numba", "speedup": 0.5, "requires": "numba"}
        )
        regressions, _ = cbr.compare(fresh, baseline)
        assert len(regressions) == 1

    def test_malformed_entries_do_not_raise(self):
        baseline = artifact(entry("honest", 3.0), {"speedup": 2.0})
        fresh = artifact({"oops": True}, entry("honest", 3.0))
        regressions, warnings = cbr.compare(fresh, baseline)
        assert regressions == []
        assert len(warnings) == 2  # one malformed entry per side


class TestSpeedupGate:
    def test_drop_beyond_threshold_is_regression(self):
        baseline = artifact(entry("honest", 3.0))
        fresh = artifact(entry("honest", 1.5))
        regressions, _ = cbr.compare(fresh, baseline, threshold=0.30)
        assert len(regressions) == 1

    def test_drop_within_threshold_passes(self):
        baseline = artifact(entry("honest", 3.0))
        fresh = artifact(entry("honest", 2.5))
        regressions, _ = cbr.compare(fresh, baseline, threshold=0.30)
        assert regressions == []

    def test_missing_speedup_value_is_regression(self):
        baseline = artifact(entry("honest", 3.0))
        fresh = artifact({"workload": "honest"})
        regressions, _ = cbr.compare(fresh, baseline)
        assert len(regressions) == 1

    def test_ungated_baseline_entry_skipped(self):
        baseline = artifact({"workload": "informational"})
        fresh = artifact()
        regressions, warnings = cbr.compare(fresh, baseline)
        assert regressions == []

    def test_informational_mode_entry_never_gated(self):
        # Near-parity trajectory entries carry a speedup for visibility
        # but are marked informational: a noisy drop must not fail the gate.
        info = {"workload": "multi_net-vs-batched-loop", "mode": "informational",
                "speedup": 0.9}
        baseline = artifact(entry("honest", 3.0), dict(info))
        fresh = artifact(entry("honest", 3.0), dict(info, speedup=0.4))
        regressions, _ = cbr.compare(fresh, baseline)
        assert regressions == []

    def test_scale_mismatch_skips_comparison(self):
        baseline = artifact(entry("honest", 3.0), n=1024)
        fresh = artifact(entry("honest", 0.1), n=256)
        regressions, warnings = cbr.compare(fresh, baseline)
        assert regressions == []
        assert any("scale mismatch" in w for w in warnings)


class TestMainExitCodes:
    def _write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_fresh_only_workload_exits_zero(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", artifact(entry("honest", 3.0)))
        fresh = self._write(
            tmp_path, "fresh.json", artifact(entry("honest", 3.0), entry("new", 2.0))
        )
        assert cbr.main([fresh, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "not in the committed baseline" in out
        assert "OK" in out

    def test_missing_workload_exits_nonzero_hard(self, tmp_path):
        baseline = self._write(
            tmp_path, "base.json", artifact(entry("honest", 3.0), entry("gone", 2.0))
        )
        fresh = self._write(tmp_path, "fresh.json", artifact(entry("honest", 3.0)))
        assert cbr.main([fresh, "--baseline", baseline]) == 1
        assert cbr.main([fresh, "--baseline", baseline, "--soft"]) == 0
