"""End-to-end benchmark of the size-estimation pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload cold-estimate --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``cold-estimate`` -- closed loop: sample a fresh ``n=2048, d=8`` overlay,
  place two ``delta=0.5`` Byzantine sets, run an E07-shaped sweep of
  {early-stop, inflation, mobile} x 2 placements x 4 seeds.
* ``lossy-sweep`` -- closed loop: one union-stack ``run_multi_sweep`` over
  resident ``n in {1024, 2048}`` overlays, 16 seeds, Algorithm 1 under a
  ``loss_p=0.15, noise_p=0.05, noise_amp=2`` channel.
* ``service-churn`` -- open loop against ``EstimationService`` over
  resident ``n=1024`` and ``n=2048`` overlays: Poisson queries at 8/s (a
  quarter to the small overlay) and one single-node leave+join every 5 s.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
repeated identical set-ups), trials per second, median request latency,
the in-band fraction, the share of operations that succeeded, and peak
memory.  Timings are reported at a reference CPU speed: each wall time is
multiplied by the ratio of a fixed probe's reference time to its median
in this run (``speed.py``), which takes the host's speed changes out of
the run-to-run spread; the raw wall figures are printed too.

``--trace 1`` runs one untraced and one traced window after a single
set-up and prints the per-layer metrics, computed from spans that
``spans.py`` records around each layer's entry points; the spans are
written to ``perfbench/out/``.

Every timing is printed with its unit and sample count; a tail percentile
is printed only with at least ten samples beyond it.  Output checks run
outside the timed window; the command exits 1 if any operation or check
failed, and 2 if the sources are missing.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Identical set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fmt(name: str, m: Any) -> str:
    line = f"  {name:<26} {m.value:>14.6g} {m.unit:<7} n={m.samples}"
    return f"{line}  ({m.note})" if m.note else line


def end_to_end(
    p: Any, setup_s: list[float], scale: float
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The BENCHMARK.json end-to-end metrics, plus open-loop extras that are
    printed only where they are defined; times and closed-loop rates at the
    reference speed (``scale`` from the speed probe)."""
    from report import Metric, at_reference_speed, median, peak_rss_mb, percentile

    lat_ms = [x * 1000.0 for x in p.latencies_s]
    if p.request_trials:  # closed loop: median of the per-request trial rates
        rates = [t / (s * scale) for t, s in zip(p.request_trials, p.latencies_s)]
        trials_per_s = Metric(median(rates), "1/s", len(rates))
    else:  # open loop: answered queries over the window, set by the schedule
        trials_per_s = Metric(p.trials / p.elapsed_s, "1/s", p.trials)
    metrics = {
        "setup_s": Metric(median(setup_s), "s", len(setup_s)),
        "trials_per_s": trials_per_s,
        "latency_p50_ms": Metric(median(lat_ms), "ms", len(lat_ms)),
        "in_band_frac": Metric(p.in_band / max(p.honest, 1), "frac", p.honest),
        "ok_frac": Metric(1.0 - p.failed / p.attempted, "frac", p.attempted),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
    }
    extras: dict[str, Any] = {}
    p95 = percentile(lat_ms, 0.95)
    if p95 is not None:
        extras["latency_p95_ms"] = Metric(p95, "ms", len(lat_ms))
    if p.churn_latencies_s:
        churn_ms = [x * 1000.0 for x in p.churn_latencies_s]
        extras["churn_p50_ms"] = Metric(median(churn_ms), "ms", len(churn_ms))
    if p.gen_lag_s:
        lag_ms = [x * 1000.0 for x in p.gen_lag_s]
        lag95 = percentile(lag_ms, 0.95)
        if lag95 is not None:
            extras["gen_lag_p95_ms"] = Metric(lag95, "ms", len(lag_ms))
        extras["backlog_max"] = Metric(float(p.backlog_max), "count", len(lag_ms))
    return at_reference_speed(metrics, scale), at_reference_speed(extras, scale)


def per_layer(base: Any, traced: Any, spans: list[Any], scale: float) -> dict[str, Any]:
    """Per-layer metrics of the traced window, times at the reference speed;
    e2e context from ``base``."""
    from report import (
        Metric,
        SpanIndex,
        at_reference_speed,
        covered,
        layer_metrics,
        median,
        merge,
        tail_metric,
    )

    idx = SpanIndex(spans)
    if traced.query_windows:  # open loop: queries are served by the engine thread
        serve_s = {
            seed: s.duration
            for s in idx.outer["service.serve"]
            for seed in s.attrs.get("seeds", ())
        }
        queue_wait = [
            (done - due - serve_s.get(seed, 0.0)) * 1000.0
            for seed, due, done in traced.query_windows
        ]
        busy = merge(
            [(s.start, s.end) for s in idx.outer["service.serve"] + idx.outer["service.churn"]]
        )
        total = sum(done - due for _seed, due, done in traced.query_windows)
        idle = total - sum(
            covered(busy, due, done) for _seed, due, done in traced.query_windows
        )
    else:
        queue_wait = []
        requests = idx.outer["request"]
        total = sum(s.duration for s in requests)
        idle = sum(s.duration - idx.child_time.get(s.sid, 0.0) for s in requests)
    churn_ms = [x * 1000.0 for x in base.churn_latencies_s]
    window = {
        "trials": traced.trials,
        "rounds": float(traced.rounds),
        "messages": float(traced.messages),
        "injections": traced.injections,
        "queue_wait_ms": queue_wait,
        "gen_lag_ms": [x * 1000.0 for x in traced.gen_lag_s],
        "backlog_max": traced.backlog_max,
        "window_s": traced.window_s,
        "latency_p95_ms": tail_metric(
            [x * 1000.0 for x in base.latencies_s] if base.query_windows else [], 0.95
        ),
        "churn_p50_ms": Metric(
            median(churn_ms), "ms", len(churn_ms), "" if churn_ms else "layer idle"
        ),
        "overhead_frac": Metric(
            median(traced.latencies_s) / median(base.latencies_s) - 1.0,
            "frac",
            len(traced.latencies_s),
            "traced / untraced median latency - 1",
        ),
        "uncovered_frac": Metric(
            idle / total if total else 0.0, "frac", len(traced.latencies_s)
        ),
    }
    return at_reference_speed(layer_metrics(idx, traced.attempted, window), scale)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from report import host_info, median
    from spans import Recorder, instrument
    from speed import BURST, REFERENCE_PROBE_S, SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(f"host: {json.dumps(host_info())}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}")
    wl = WORKLOADS[args.workload](args.seed)
    probe = SpeedProbe()
    probe.sample(BURST)

    # Set-up is timed after imports; identical repeats give a steady median.
    setup_s: list[float] = []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    extras: dict[str, Any] = {}
    if args.trace:
        base = wl.measure(args.seconds, probe)
        wl.rewind()
        rec = Recorder()
        with instrument(rec, extra_modules=("workloads",)):
            rec.active = True
            try:
                traced = wl.measure(args.seconds, probe, rec)
            finally:
                rec.active = False
        passes = [base, traced]
        metrics = per_layer(base, traced, rec.spans, probe.scale)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-{args.seed}.json"
        rec.dump(str(path))
        print(f"spans: {len(rec.spans)} written to {path.relative_to(ROOT)}")
        print("per-layer metrics (traced window, per request unless noted):")
    else:
        p = wl.measure(args.seconds, probe)
        passes = [p]
        metrics, extras = end_to_end(p, setup_s, probe.scale)
        print(
            f"raw (wall) set-up median {median(setup_s):.4f} s, latency median "
            f"{median(p.latencies_s) * 1000.0:.2f} ms"
        )
        print("end-to-end metrics:")

    print(
        f"speed probe: median {probe.probe_s * 1000.0:.3f} ms over {len(probe.samples)} "
        f"samples; timings scaled by {probe.scale:.4f} to the reference speed "
        f"(probe {REFERENCE_PROBE_S * 1000.0:.3f} ms)"
    )
    for name, m in metrics.items():
        print(fmt(name, m))
    if extras:
        print("open-loop metrics (not in BENCHMARK.json):")
        for name, m in extras.items():
            print(fmt(name, m))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checks = sum(p.checks for p in passes)
    print(f"output checks: {checks} run, {sum(len(p.check_failures) for p in passes)} failed")
    for p in passes:
        for problem in p.op_errors + p.check_failures:
            print(f"  FAILED: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
