"""Percentiles, host provenance, and the per-layer metrics built from spans."""

from __future__ import annotations

import bisect
import importlib.util
import os
import platform
import resource
import statistics
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

from spans import Span

#: A percentile is printed only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Units of the metrics that are wall times, scaled to the reference speed.
TIME_UNITS = frozenset({"s", "ms", "s/req"})


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q`` quantile (nearest rank), or None when fewer than
    :data:`TAIL_MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < TAIL_MIN_BEYOND:
        return None
    ordered = sorted(values)
    return float(ordered[min(n - 1, int(q * n))])


def tail_metric(values_ms: Sequence[float], q: float) -> Metric:
    """A per-layer tail in ms.  The key must always be present, so where the
    layer did no work, or too few samples lie beyond ``q``, the value is a
    0 placeholder whose note says why."""
    if not values_ms:
        return Metric(0.0, "ms", 0, "layer idle")
    v = percentile(values_ms, q)
    if v is None:
        return Metric(0.0, "ms", len(values_ms), "omitted: <10 samples beyond")
    return Metric(v, "ms", len(values_ms))


def at_reference_speed(metrics: dict[str, Metric], scale: float) -> dict[str, Metric]:
    """Every timing in ``metrics`` (units s, ms, s/req) multiplied by
    ``scale``; counts, ratios and memory unchanged."""
    return {
        name: replace(m, value=m.value * scale) if m.unit in TIME_UNITS else m
        for name, m in metrics.items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict[str, Any]:
    """Where the numbers were measured."""
    import numpy as np

    from repro.sim.backends import ENV_VAR, resolve_backend

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": resolve_backend(None).name,
        ENV_VAR: os.environ.get(ENV_VAR, ""),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from a traced window
# ----------------------------------------------------------------------
class SpanIndex:
    """Self and inclusive times per span name, counting nested same-name
    spans (a padded gather calling a member kernel's gather) once."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.sid: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.outer: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.self_s[s.name] += s.duration - child_time.get(s.sid, 0.0)
            if not self._nested_in_same(s):
                self.incl_s[s.name] += s.duration
                self.calls[s.name] += 1
                self.outer[s.name].append(s)
        self.child_time = child_time

    def _nested_in_same(self, s: Span) -> bool:
        pid = s.parent
        while pid is not None:
            p = self.by_id.get(pid)
            if p is None:
                return False
            if p.name == s.name:
                return True
            pid = p.parent
        return False

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in self.outer[name]))


def merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def covered(merged: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi)`` covered by sorted disjoint ``merged``."""
    total = 0.0
    i = max(0, bisect.bisect_right(merged, (lo, float("inf"))) - 1)
    while i < len(merged) and merged[i][0] < hi:
        a, b = merged[i]
        total += max(0.0, min(b, hi) - max(a, lo))
        i += 1
    return total


def layer_metrics(
    idx: SpanIndex,
    requests: int,
    window: dict[str, Any],
) -> dict[str, Metric]:
    """Every per-layer metric, normalized per request (``/req``).

    ``window`` carries what the workload measured outside the spans:
    result-meter totals, injection counts, service queue waits, generator
    lateness, backlog, uncovered share, and the tracing overhead.
    """
    r = max(requests, 1)

    def per_req(value: float, unit: str, samples: int) -> Metric:
        return Metric(value / r, unit, samples)

    def timing(name: str, kind: str) -> Metric:
        table = idx.self_s if kind == "self" else idx.incl_s
        return per_req(table.get(name, 0.0), "s/req", idx.calls.get(name, 0))

    def count(name: str) -> Metric:
        c = idx.calls.get(name, 0)
        return per_req(float(c), "1/req", c)

    inj_acc, inj_rej = window["injections"]
    inj = inj_acc + inj_rej
    serve_calls = idx.calls.get("service.serve", 0)
    qwait = window["queue_wait_ms"]
    gen_lag = window["gen_lag_ms"]

    return {
        "graphs.build_s": timing("graphs.build", "incl"),
        "graphs.ball_calls": count("graphs.ball"),
        "graphs.ball_s": timing("graphs.ball", "self"),
        "graphs.validate_s": timing("graphs.validate", "incl"),
        "graphs.patch_s": timing("graphs.patch", "self"),
        "graphs.patch_recomputed": per_req(
            idx.attr_sum("graphs.patch", "recomputed"),
            "1/req",
            idx.calls.get("graphs.patch", 0),
        ),
        "graphs.snapshot_s": timing("graphs.snapshot", "incl"),
        "sim.kernel_init_s": timing("sim.kernel_init", "incl"),
        "sim.gather_s": timing("sim.gather", "self"),
        "sim.gather_calls": count("sim.gather"),
        "sim.gather_bytes": per_req(
            idx.attr_sum("sim.gather", "bytes"), "B/req", idx.calls.get("sim.gather", 0)
        ),
        "sim.channel_s": timing("sim.channel", "incl"),
        "sim.channel_calls": count("sim.channel"),
        "core.engine_s": timing("core.engine", "self"),
        "core.sweep_s": timing("core.sweep", "self"),
        "core.colors_s": timing("core.colors", "incl"),
        "core.crash_s": timing("core.crash", "incl"),
        "core.rounds": per_req(window["rounds"], "1/req", window["trials"]),
        "core.messages": per_req(window["messages"], "1/req", window["trials"]),
        "adversary.plan_s": timing("adversary.plan", "incl"),
        "adversary.plan_calls": count("adversary.plan"),
        "adversary.adapt_s": timing("adversary.adapt", "incl"),
        "adversary.accept_ratio": Metric(inj_acc / inj if inj else 0.0, "frac", inj),
        "service.serve_s": timing("service.serve", "incl"),
        "service.serve_calls": count("service.serve"),
        "service.fusion_width": Metric(
            idx.attr_sum("service.serve", "width") / serve_calls if serve_calls else 0.0,
            "1/call",
            serve_calls,
        ),
        "service.queue_wait_p50_ms": Metric(median(qwait), "ms", len(qwait)),
        "service.queue_wait_p95_ms": tail_metric(qwait, 0.95),
        "service.churn_s": timing("service.churn", "incl"),
        "service.busy_frac": Metric(
            (idx.incl_s.get("service.serve", 0.0) + idx.incl_s.get("service.churn", 0.0))
            / window["window_s"],
            "frac",
            serve_calls + idx.calls.get("service.churn", 0),
        ),
        "service.gen_lag_p95_ms": tail_metric(gen_lag, 0.95),
        "service.backlog_max": Metric(float(window["backlog_max"]), "count", len(gen_lag)),
        "service.latency_p95_ms": window["latency_p95_ms"],
        "service.churn_p50_ms": window["churn_p50_ms"],
        "trace.overhead_frac": window["overhead_frac"],
        "trace.uncovered_frac": window["uncovered_frac"],
    }
