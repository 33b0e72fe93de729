"""Interleaved in-process A/B of named functions across two source trees.

Runs one closed-loop perfbench workload (``cold-estimate`` or
``lossy-sweep``) in a single process.  Side A is this tree; side B swaps
in the named functions of a module (or of several) as a second source
tree has them.  Every request runs once per side, the side that goes first
alternating from request to request, so both sides see the same host
state.  Prints each side's latency quartiles, the B/A ratio of the
medians, in how many requests B was faster, and whether a hash over every
result (decided phases, crashed nodes, message meter and phase trace) is
equal between the sides.

Run from the repository root::

    PYTHONPATH=src python benchmarks/ab_inprocess.py --other ../parent \\
        --swap repro.core.sweep:run_multi_sweep,_run_multi_shard \\
        --swap repro.experiments.common:parallel_map \\
        --workload lossy-sweep --requests 60 --seed 1

Side B's copy of each module is executed inside this tree's package, so
its relative imports resolve here: only the named functions, and the
module-level helpers they call, come from the other tree.  Swap every
function whose signature differs between the trees together with its
callers.  The last line of output is one JSON object.  Exits 1 when the
result hashes differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLOSED_LOOP = ("cold-estimate", "lossy-sweep")


def load_other(module: str, other_root: Path) -> ModuleType:
    """The other tree's copy of ``module``, bound to this tree's package."""
    base = importlib.import_module(module)
    path = other_root / "src" / Path(*module.split(".")).with_suffix(".py")
    name = f"{module}__ab_other"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load {path}")
    mod = importlib.util.module_from_spec(spec)
    mod.__package__ = base.__package__
    sys.modules[name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


class Swap:
    """Every binding of the named functions, switchable between two sides.

    ``specs`` are ``module:name[,name...]`` strings.
    """

    def __init__(self, specs: list[str], other_root: Path) -> None:
        pairs: dict[int, tuple[Any, Any]] = {}
        others = []
        for spec in specs:
            module, _, names = spec.partition(":")
            base = importlib.import_module(module)
            other = load_other(module, other_root)
            others.append(other)
            for n in names.split(","):
                pairs[id(getattr(base, n))] = (getattr(base, n), getattr(other, n))
        self.sites: list[tuple[Any, str, Any, Any]] = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or any(mod is o for o in others):
                continue
            if not (mod_name.startswith("repro") or mod_name == "workloads"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in pairs:
                    self.sites.append((mod, attr, *pairs[id(value)]))

    def use(self, side: str) -> None:
        for mod, attr, a_fn, b_fn in self.sites:
            setattr(mod, attr, a_fn if side == "A" else b_fn)


def digest(results: list[Any]) -> str:
    """Hash over every result's decisions, crashes, meter and trace."""
    h = hashlib.sha256()
    for res in results:
        h.update(np.ascontiguousarray(res.decided_phase).tobytes())
        h.update(np.ascontiguousarray(res.crashed).tobytes())
        h.update(repr(sorted(res.meter.as_dict().items())).encode())
        h.update(repr(list(res.trace)).encode())
    return h.hexdigest()


def run(args: argparse.Namespace) -> dict[str, Any]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    swap = Swap(args.swap, Path(args.other).resolve())
    if not swap.sites:
        raise SystemExit(f"no loaded module binds any of {args.swap}")
    for side in ("A", "B"):  # each side's warm-up runs before any timing
        swap.use(side)
        wl.setup()
    times: dict[str, list[float]] = {"A": [], "B": []}
    equal = 0
    for i in range(args.requests):
        hashes = {}
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            swap.use(side)
            t0 = time.perf_counter()
            results, _check = wl.request(i)
            times[side].append(time.perf_counter() - t0)
            hashes[side] = digest(results)
        equal += hashes["A"] == hashes["B"]
    swap.use("A")
    a, b = (np.asarray(times[s]) * 1000.0 for s in ("A", "B"))
    return {
        "workload": args.workload,
        "requests": args.requests,
        "quartiles_ms": {
            side: [round(float(q), 3) for q in np.percentile(t, [25, 50, 75])]
            for side, t in (("A", a), ("B", b))
        },
        "ratio_b_over_a": round(float(np.median(b) / np.median(a)), 4),
        "b_faster": int((b < a).sum()),
        "results_equal": equal == args.requests,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--other", required=True, help="root of the second source tree")
    ap.add_argument(
        "--swap",
        action="append",
        required=True,
        help="module:name[,name...] to take from the other tree (repeatable)",
    )
    ap.add_argument("--workload", choices=CLOSED_LOOP, default="lossy-sweep")
    ap.add_argument("--requests", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    out = run(ap.parse_args(argv))
    for side in ("A", "B"):
        p25, p50, p75 = out["quartiles_ms"][side]
        print(f"{side}: p25 {p25:.2f}  p50 {p50:.2f}  p75 {p75:.2f} ms")
    print(
        f"B/A median {out['ratio_b_over_a']:.4f}; B faster in "
        f"{out['b_faster']}/{out['requests']}; results equal: "
        f"{'yes' if out['results_equal'] else 'NO'}"
    )
    print(json.dumps(out))
    return 0 if out["results_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
