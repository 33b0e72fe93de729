"""Zero-copy cross-process sharing of sampled networks.

Sharded sweeps (``parallel_map(..., jobs=N)``) would otherwise re-pickle
every :class:`~repro.graphs.smallworld.SmallWorldNetwork` into every
worker task — at ``n = 65536, d = 8`` that is tens of megabytes of CSR
arrays per task.  :class:`SharedNetworkPack` instead places the six
immutable adjacency arrays of each network (``H`` CSR + cycles, ``G`` CSR
+ distance tags) back to back in one ``multiprocessing.shared_memory``
segment; the handle pickles as a few hundred bytes of metadata, and each
worker process attaches the segment once and reconstructs the whole tuple
of networks around read-only array views — no copy, no repeated
deserialization.  A single network is a one-network pack.

Usage (the ``network=`` parameter of
:func:`repro.experiments.common.parallel_map` does this internally)::

    with SharedNetworkPack.create([net]) as pack:
        results = pool.map(worker, [(pack, item) for item in items])
        # inside worker: pack.nets[0]  -> attached SmallWorldNetwork

Union-stack sweeps over two or more networks additionally need the
*block-diagonal concatenation* of the networks' H adjacencies
(:func:`repro.sim.flood.stack_union_csr`).
``SharedNetworkPack.create(nets)`` stacks it once in the owner whenever
``nets`` holds two or more networks and lays the two concatenated arrays
into the same segment; ``pack.nets`` then returns a
:class:`NetworkTuple` whose ``union_csr`` attribute exposes zero-copy
views, so every worker (and every task) of a sharded sweep skips
re-stacking — the union-stack engines
(:func:`repro.core.batch.run_counting_multinet` and
:func:`repro.core.batch.run_counting_unionstack`) adopt an attached CSR
whose block sizes match their networks.

The creating process owns the segment and unlinks it on ``close()`` /
context exit; attached workers hold it alive until they drop their
references (POSIX shm semantics).  On Python < 3.13 attaching registers
the segment with the worker's ``resource_tracker``, which would unlink it
when the *worker* exits — :func:`_attach_untracked` suppresses that
registration so the owner stays in charge of the lifetime.

Crash safety: segments are named ``repro-<owner pid>-<hex>`` so they are
recognizable in ``/dev/shm`` even after their owner dies.  The owning
process keeps a registry of its live segments and unlinks them from an
``atexit`` hook and a chained ``SIGTERM`` handler (both pid-checked, so
forked workers that inherit the registry never unlink the owner's
segments), and :func:`cleanup_orphans` sweeps segments whose owner pid no
longer exists — the backstop for ``SIGKILL``/power-loss, where no handler
can run.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .._types import AnyArray, Int64Array

from .hgraph import HGraph
from .smallworld import SmallWorldNetwork

__all__ = [
    "NetworkTuple",
    "SharedNetworkPack",
    "UnionCSR",
    "cleanup_orphans",
]

#: ``(sizes, indptr, indices)`` of a block-diagonal union CSR
#: (:func:`repro.sim.flood.stack_union_csr`).
UnionCSR = tuple[tuple[int, ...], Int64Array, Int64Array]


class NetworkTuple(tuple[SmallWorldNetwork, ...]):
    """A tuple of networks with an optional pre-stacked union CSR attached.

    ``union_csr`` is ``(sizes, indptr, indices)`` — the block-diagonal
    concatenation of the member graphs' H adjacencies, as produced by
    :func:`repro.sim.flood.stack_union_csr` — or ``None`` when no union
    layout was requested.  The union-stack engines
    (:func:`repro.core.batch.run_counting_multinet` and
    :func:`repro.core.batch.run_counting_unionstack`) adopt an attached
    CSR instead of re-stacking, which is how sharded sweeps amortize the
    concatenation across workers.

    The container carries data only.  Run settings such as the kernel
    backend and the channel model travel as arguments to the engines.
    """

    union_csr: UnionCSR | None = None

    @classmethod
    def build(
        cls, networks: Iterable[SmallWorldNetwork], union: bool = False
    ) -> "NetworkTuple":
        """Wrap ``networks``; with ``union=True`` stack the union CSR once."""
        out = cls(networks)
        if union:
            from ..sim.flood import stack_union_csr

            out.union_csr = stack_union_csr(out)
        return out

#: The array attributes that define a network, in serialization order.
_FIELDS: tuple[tuple[str, Callable[[SmallWorldNetwork], AnyArray]], ...] = (
    ("h_indptr", lambda net: net.h.indptr),
    ("h_indices", lambda net: net.h.indices),
    ("h_cycles", lambda net: net.h.cycles),
    ("g_indptr", lambda net: net.g_indptr),
    ("g_indices", lambda net: net.g_indices),
    ("g_dist", lambda net: net.g_dist),
)

#: Per-process cache of attached segments: shm name -> (shm, networks).
#: Workers receive one handle pickle per task; caching by segment name
#: makes the attach + reconstruct cost once-per-process, not per-task.
_ATTACHED: dict[str, tuple[Any, Any]] = {}

#: SharedMemory objects whose buffers back numpy views that may still be
#: referenced after ``close()``.  Unmapping those buffers (SharedMemory
#: .close(), including from __del__) would turn any later array access
#: into a segfault, so closed-but-viewed segments are kept mapped here
#: for the rest of the process (the *segment* is still unlinked; the OS
#: frees the memory when the last mapping dies with the process).
_KEEPALIVE: list[Any] = []

#: Recognizable prefix of every segment this library creates; the owner
#: pid embedded after it is what lets :func:`cleanup_orphans` tell a
#: leaked segment (owner dead) from a live one (owner running).
_SEGMENT_PREFIX = "repro-"

#: Segments created *by this process*: name -> owning SharedMemory.
#: Forked workers inherit a snapshot of this dict; the pid recorded at
#: guard-install time keeps their exit hooks from unlinking the owner's
#: live segments.
_OWNED: dict[str, Any] = {}

_GUARD_LOCK = threading.Lock()
_GUARD_PID: int | None = None
_PREV_SIGTERM: Any = None


def _segment_name() -> str:
    """A fresh ``repro-<pid>-<hex>`` segment name."""
    return f"{_SEGMENT_PREFIX}{os.getpid()}-{os.urandom(6).hex()}"


def _create_segment(size: int) -> Any:
    """Create a prefixed shared-memory segment and register ownership."""
    from multiprocessing import shared_memory

    while True:
        try:
            shm = shared_memory.SharedMemory(
                name=_segment_name(), create=True, size=max(size, 1)
            )
            break
        except FileExistsError:  # pragma: no cover - 48-bit token collision
            continue
    _install_owner_guard()
    _OWNED[shm.name] = shm
    return shm


def _cleanup_owned() -> None:
    """Unlink every segment this process still owns (pid-checked).

    Runs from ``atexit`` and the ``SIGTERM`` guard.  A forked child
    inherits ``_OWNED`` but not ownership: the pid check makes its hooks
    a no-op, so pool teardown (which SIGTERMs workers) can never unlink
    the owner's live segments.
    """
    if os.getpid() != _GUARD_PID:
        return
    for name in list(_OWNED):
        shm = _OWNED.pop(name)
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


def _sigterm_guard(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
    _cleanup_owned()
    prev = _PREV_SIGTERM
    if callable(prev):
        prev(signum, frame)
        return
    # Restore the previous disposition (default/ignore) and re-deliver so
    # the process still dies with the conventional SIGTERM status.
    signal.signal(signum, prev if prev is not None else signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_owner_guard() -> None:
    """Install the pid-checked atexit/SIGTERM cleanup hooks (idempotent).

    Re-installs after a fork: a child that goes on to *create its own*
    segments becomes an owner in its own right, so the guard pid must be
    re-anchored to it (its inherited ``_OWNED`` snapshot is cleared —
    those entries belong to the parent).
    """
    global _GUARD_PID, _PREV_SIGTERM
    with _GUARD_LOCK:
        pid = os.getpid()
        if _GUARD_PID == pid:
            return
        if _GUARD_PID is not None:
            _OWNED.clear()  # inherited from the parent across a fork
        _GUARD_PID = pid
        atexit.register(_cleanup_owned)
        try:
            handler = signal.getsignal(signal.SIGTERM)
            if handler is not _sigterm_guard:
                _PREV_SIGTERM = handler
                signal.signal(signal.SIGTERM, _sigterm_guard)
        except ValueError:  # pragma: no cover - non-main thread
            pass


def cleanup_orphans() -> list[str]:
    """Unlink ``repro-*`` segments whose owning process is dead.

    Scans ``/dev/shm`` for segments carrying this library's name prefix,
    parses the owner pid out of the name, and removes the segments whose
    owner no longer exists — the recovery path for owners that died
    where no ``atexit``/signal hook could run (``SIGKILL``, kernel OOM,
    power loss).  Segments with live owners are left alone.  Returns the
    names unlinked.  No-op (empty list) on hosts without ``/dev/shm``.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX-shm host
        return []
    removed: list[str] = []
    for entry in sorted(os.listdir(shm_dir)):
        if not entry.startswith(_SEGMENT_PREFIX):
            continue
        rest = entry[len(_SEGMENT_PREFIX):]
        pid_part = rest.split("-", 1)[0]
        if not pid_part.isdigit():
            continue
        pid = int(pid_part)
        try:
            os.kill(pid, 0)
            continue  # owner alive: not an orphan
        except ProcessLookupError:
            pass
        except PermissionError:  # pragma: no cover - pid reused by other user
            continue
        try:
            os.unlink(os.path.join(shm_dir, entry))
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            continue
        removed.append(entry)
    return removed


def _attach_untracked(name: str) -> Any:
    """Attach to segment ``name`` without resource-tracker registration.

    Python < 3.13 has no ``track=False``: a plain attach registers the
    segment with the resource tracker (shared with the owner under fork),
    and the resulting unregister/unlink at worker exit would tear the
    owner's segment down or double-remove the tracker entry.  Suppressing
    the registration during attach keeps the owner solely in charge of the
    segment's lifetime.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def register(rname: str, rtype: str) -> None:  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class _ArraySpec:
    """Layout of one array inside the shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


def _reconstruct_network(
    shm: Any, specs: tuple[_ArraySpec, ...], n: int, d: int, k: int
) -> SmallWorldNetwork:
    """Rebuild one network around read-only views into ``shm``."""
    views: dict[str, AnyArray] = {}
    for spec in specs:
        arr = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
        )
        arr.flags.writeable = False  # shared state must stay immutable
        views[spec.name] = arr
    h = HGraph(
        n=n,
        d=d,
        cycles=views["h_cycles"],
        indptr=views["h_indptr"],
        indices=views["h_indices"],
    )
    return SmallWorldNetwork(
        h=h,
        k=k,
        g_indptr=views["g_indptr"],
        g_indices=views["g_indices"],
        g_dist=views["g_dist"],
    )


class SharedNetworkPack:
    """Picklable handle to one or more networks in one shared-memory segment.

    Every graph's six adjacency arrays are laid out back to back in a
    single segment, so a sharded sweep ships its entire network axis as
    one few-hundred-byte handle and each worker attaches / reconstructs
    the whole tuple exactly once per process.  Create with :meth:`create`
    in the owning process; read :attr:`nets` anywhere (in the owner it is
    a view-backed reconstruction; the original networks work too).
    """

    def __init__(
        self,
        shm_name: str,
        per_net: tuple[tuple[tuple[_ArraySpec, ...], int, int, int], ...],
        union_specs: tuple[_ArraySpec, ...] | None = None,
    ) -> None:
        self._shm_name = shm_name
        # per_net: one (specs, n, d, k) tuple per network, in input order.
        self._per_net = per_net
        # union_specs: (indptr_spec, indices_spec) of the pre-concatenated
        # block-diagonal union CSR, or None when not shipped.
        self._union_specs = union_specs
        self._owned_shm: Any = None  # set only in the creating process

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, nets: Sequence[SmallWorldNetwork]) -> "SharedNetworkPack":
        """Copy every network's arrays into one fresh shared segment.

        With two or more networks the block-diagonal union CSR
        (:func:`repro.sim.flood.stack_union_csr`) is stacked once here and
        laid into the same segment, so workers read it zero-copy instead
        of re-concatenating per process.  One network needs none: the
        engines run its own H CSR.

        The segment is named ``repro-<pid>-<hex>`` and registered with
        the owner-side cleanup guard; if populating it fails partway the
        segment is unlinked before the exception propagates.
        """
        per_net: list[tuple[tuple[_ArraySpec, ...], int, int, int]] = []
        writes: list[tuple[_ArraySpec, AnyArray]] = []
        offset = 0
        for net in nets:
            specs = []
            for name, get in _FIELDS:
                arr = np.ascontiguousarray(get(net))
                # 8-byte alignment keeps int64 views legal at every offset.
                offset = (offset + 7) & ~7
                spec = _ArraySpec(
                    name=name, dtype=arr.dtype.str, shape=arr.shape, offset=offset
                )
                specs.append(spec)
                writes.append((spec, arr))
                offset += arr.nbytes
            per_net.append((tuple(specs), net.n, net.d, net.k))
        union_specs: tuple[_ArraySpec, ...] | None = None
        if len(nets) > 1:
            from ..sim.flood import stack_union_csr

            _sizes, u_indptr, u_indices = stack_union_csr(nets)
            pair: list[_ArraySpec] = []
            for name, arr in (("u_indptr", u_indptr), ("u_indices", u_indices)):
                arr = np.ascontiguousarray(arr)
                offset = (offset + 7) & ~7
                spec = _ArraySpec(
                    name=name, dtype=arr.dtype.str, shape=arr.shape, offset=offset
                )
                pair.append(spec)
                writes.append((spec, arr))
                offset += arr.nbytes
            union_specs = tuple(pair)
        shm = _create_segment(offset)
        try:
            for spec, arr in writes:
                dst = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
                )
                dst[...] = arr
        except BaseException:
            _OWNED.pop(shm.name, None)
            shm.close()
            shm.unlink()
            raise
        handle = cls(shm.name, tuple(per_net), union_specs)
        handle._owned_shm = shm
        return handle

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The shared-memory segment name."""
        return self._shm_name

    @property
    def nets(self) -> "NetworkTuple":
        """The networks, backed by the shared segment (attached lazily).

        With two or more networks the returned :class:`NetworkTuple`
        carries ``union_csr`` views into the same segment, so the union
        kernel builds without re-stacking.
        """
        cached = _ATTACHED.get(self._shm_name)
        if cached is not None:
            return cached[1]
        if self._owned_shm is not None:
            shm = self._owned_shm
        else:
            shm = _attach_untracked(self._shm_name)
        nets = NetworkTuple(
            _reconstruct_network(shm, specs, n, d, k)
            for specs, n, d, k in self._per_net
        )
        if self._union_specs is not None:
            views: list[AnyArray] = []
            for spec in self._union_specs:
                arr = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=shm.buf,
                    offset=spec.offset,
                )
                arr.flags.writeable = False  # shared state must stay immutable
                views.append(arr)
            sizes = tuple(n for _, n, _, _ in self._per_net)
            nets.union_csr = (sizes, views[0], views[1])
        _ATTACHED[self._shm_name] = (shm, nets)
        return nets

    def __len__(self) -> int:
        return len(self._per_net)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Owner: unlink the segment.  Worker handles: drop the attachment.

        If the segment was ever attached/reconstructed in this process,
        the handed-out numpy views may outlive the handle; their backing
        buffer then stays mapped for the rest of the process (see
        ``_KEEPALIVE``) so stale reads raise nothing worse than stale
        data — never a segfault.  The owner additionally unlinks the
        segment: no new process can attach, and the memory is freed once
        the last holder exits.
        """
        owned_shm = self._owned_shm
        self._owned_shm = None
        cached = _ATTACHED.pop(self._shm_name, None)
        if cached is not None:
            # Views were handed out: keep the mapping alive, never munmap.
            _KEEPALIVE.append(cached[0])
        if owned_shm is not None:
            _OWNED.pop(self._shm_name, None)
            if cached is None or cached[0] is not owned_shm:
                owned_shm.close()
            owned_shm.unlink()

    def __enter__(self) -> "SharedNetworkPack":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        # The owning SharedMemory object never crosses process boundaries;
        # workers re-attach by name.
        return {
            "shm_name": self._shm_name,
            "per_net": self._per_net,
            "union_specs": self._union_specs,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._shm_name = state["shm_name"]
        self._per_net = state["per_net"]
        self._union_specs = state.get("union_specs")
        self._owned_shm = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [n for _, n, _, _ in self._per_net]
        return (
            f"SharedNetworkPack(name={self._shm_name!r}, sizes={sizes}, "
            f"owner={self._owned_shm is not None})"
        )
