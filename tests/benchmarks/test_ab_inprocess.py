"""Smoke test of the interleaved in-process A/B script.

``benchmarks/ab_inprocess.py`` swaps named functions between two source
trees inside one perfbench workload process.  Against its own tree the
two sides run the same code, so every result hash must agree.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_same_tree_two_requests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "ab_inprocess.py"),
            "--other",
            str(ROOT),
            "--swap",
            "repro.core.sweep:run_multi_sweep,_run_multi_shard",
            "--workload",
            "lossy-sweep",
            "--requests",
            "2",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["results_equal"] is True
    assert out["requests"] == 2
    assert 0 <= out["b_faster"] <= 2
    for side in ("A", "B"):
        p25, p50, p75 = out["quartiles_ms"][side]
        assert 0 < p25 <= p50 <= p75
