"""In-memory span recorder and the layer wrappers of the traced run.

The traced run wraps the public entry points of ``repro.graphs``,
``repro.sim``, ``repro.core``, ``repro.adversary`` and ``repro.service``
from outside: nothing under ``src/`` knows it is being traced.  Each wrapped
call records one :class:`Span` (name, start, end, parent span, request id,
thread, optional attributes).  Spans stay in memory and are written out as
JSON when the run ends.

Functions are replaced at *every* module attribute that holds them (so
``ball_chunk`` is wrapped both in ``repro.graphs.smallworld`` and in
``repro.graphs.delta``, ``sample_colors`` as bound in ``repro.core.batch``),
and methods on every class whose own ``__dict__`` defines them.  One
original maps to one wrapper, which keeps the engines' identity checks
(``type(adv).batch_adapt is not Adversary.batch_adapt``) meaning what they
meant before.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None, **attrs: Any) -> Iterator[Span]:
        """Time the ``with`` body as one span; kept only while ``active``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if rid is None:  # a root span without a request starts its own
            rid = parent.rid if parent is not None else f"s{sid}"
        sp = Span(
            sid,
            name,
            time.perf_counter(),
            0.0,
            parent.sid if parent is not None else None,
            rid,
            threading.get_ident(),
            attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if self.active:
                self.spans.append(sp)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Callable[..., dict[str, Any]] | None = None,
        after: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``; ``before``/``after`` add attrs."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            attrs = before(*args, **kwargs) if before is not None else {}
            with self.span(name, **attrs) as sp:
                out = fn(*args, **kwargs)
                if after is not None:
                    sp.attrs.update(after(out))
                return out

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class Patcher:
    """Installs wrappers and puts every original back on :meth:`restore`."""

    def __init__(self, prefixes: tuple[str, ...]) -> None:
        self._prefixes = prefixes
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, fn: Callable[..., Any], wrapper: Callable[..., Any]) -> int:
        """Replace ``fn`` in every loaded module that binds it; returns count."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(self._prefixes):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    hits += 1
        return hits

    def method(self, cls: type, attr: str, wrapper: Callable[..., Any]) -> None:
        self._set(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls: type) -> list[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _flood_bytes(kernel: Any, values: Any, *_: Any, **__: Any) -> dict[str, Any]:
    """Bytes one ``FloodKernel`` gather reads: every CSR slot, every column."""
    slots = int(kernel.indices.shape[0]) * int(values.shape[1])
    return {"bytes": slots * values.dtype.itemsize}


def _multi_bytes(
    kernel: Any, values: Any, plan: Any, *_: Any, **__: Any
) -> dict[str, Any]:
    """Bytes one padded gather reads: (rows, d, B) per column segment."""
    slots = 0
    for seg in plan.segments:
        d = seg.kernel._uniform_degree if seg.kernel is not None else len(seg.idx)
        slots += seg.n * d * (seg.hi - seg.lo)
    return {"bytes": slots * values.dtype.itemsize}


@contextmanager
def instrument(rec: Recorder, extra_modules: tuple[str, ...] = ()) -> Iterator[None]:
    """Wrap every layer entry point the per-layer metrics are built from."""
    from repro.adversary import base as adv_base
    from repro.core import batch, colors, neighborhood, sweep
    from repro.graphs import delta, smallworld
    from repro.service import engine
    from repro.sim import channel, flood

    patch = Patcher(("repro",) + extra_modules)
    try:
        functions: list[tuple[str, Callable[..., Any]]] = [
            ("graphs.build", smallworld.build_small_world),
            ("graphs.ball", smallworld.ball_chunk),
            ("core.engine", batch.run_counting_batch),
            ("core.engine", batch.run_counting_multinet),
            ("core.engine", batch.run_counting_unionstack),
            ("core.sweep", sweep.run_sweep),
            ("core.sweep", sweep.run_multi_sweep),
            ("core.colors", colors.sample_colors),
            ("core.crash", neighborhood.crash_phase),
        ]
        for name, fn in functions:
            if patch.function(fn, rec.wrap(name, fn)) == 0:
                raise RuntimeError(f"no module binds {fn.__qualname__}")

        def seeds_of(_engine: Any, queries: Any) -> dict[str, Any]:
            return {"width": len(queries), "seeds": [q.seed for q in queries]}

        methods: list[tuple[str, type, str, Any, Any]] = [
            ("graphs.validate", smallworld.SmallWorldNetwork, "validate", None, None),
            (
                "graphs.patch",
                delta.ResidentGraph,
                "apply_delta",
                None,
                lambda out: {"recomputed": out.recomputed},
            ),
            ("graphs.snapshot", delta.ResidentGraph, "snapshot", None, None),
            ("sim.kernel_init", flood.FloodKernel, "__init__", None, None),
            ("sim.kernel_init", flood.UnionFloodKernel, "__init__", None, None),
            ("sim.kernel_init", flood.MultiFloodKernel, "__init__", None, None),
            ("sim.kernel_init", flood.FloodKernel, "update_csr", None, None),
            ("sim.gather", flood.FloodKernel, "neighbor_max_stacked", _flood_bytes, None),
            ("sim.gather", flood.MultiFloodKernel, "neighbor_max_stacked", _multi_bytes, None),
            ("sim.channel", channel.ChannelState, "corrupt", None, None),
            ("service.serve", engine.ResidentEngine, "serve", seeds_of, None),
            ("service.churn", engine.ResidentEngine, "apply_churn", None, None),
        ]
        for cls in _subclasses(adv_base.Adversary):
            for attr, name in (
                ("batch_subphase_plan", "adversary.plan"),
                ("batch_adapt", "adversary.adapt"),
            ):
                if attr in vars(cls):
                    methods.append((name, cls, attr, None, None))
        for name, cls, attr, before, after in methods:
            patch.method(cls, attr, rec.wrap(name, vars(cls)[attr], before, after))
        yield
    finally:
        patch.restore()
