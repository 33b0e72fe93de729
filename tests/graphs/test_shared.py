"""Shared-memory network sharing: fidelity, immutability, lifecycle,
crash safety, and the parallel_map integration."""

import glob
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.core import CountingConfig, run_counting
from repro.experiments.common import parallel_map
from repro.graphs import SharedNetworkPack, build_small_world
from repro.graphs.shared import _ATTACHED
from repro.graphs.smallworld import SmallWorldNetwork

CFG = CountingConfig(verification=False, max_phase=10)

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _run_sum(network, seed):
    return int(run_counting(network, CFG, seed=seed).decided_phase.sum())


def _two_nets():
    return [build_small_world(n, 4, seed=n) for n in (24, 32)]


@pytest.fixture(params=["one", "two"])
def nets(request, net_small):
    """A one-network pack's input (a lone network) and a two-network one."""
    return [net_small] if request.param == "one" else _two_nets()


class TestSharedNetworkPack:
    def test_roundtrip_arrays_equal(self, nets):
        with SharedNetworkPack.create(nets) as pack:
            assert len(pack) == len(nets)
            for net, net2 in zip(nets, pack.nets, strict=True):
                assert np.array_equal(net2.h.indptr, net.h.indptr)
                assert np.array_equal(net2.h.indices, net.h.indices)
                assert np.array_equal(net2.h.cycles, net.h.cycles)
                assert np.array_equal(net2.g_indptr, net.g_indptr)
                assert np.array_equal(net2.g_indices, net.g_indices)
                assert np.array_equal(net2.g_dist, net.g_dist)
                assert (net2.n, net2.d, net2.k) == (net.n, net.d, net.k)
                net2.validate()

    def test_views_read_only(self, nets):
        with SharedNetworkPack.create(nets) as pack:
            for net2 in pack.nets:
                with pytest.raises(ValueError):
                    net2.h.indices[0] = 0
                with pytest.raises(ValueError):
                    net2.g_indices[0] = 0

    def test_protocol_run_identical(self, net_small):
        with SharedNetworkPack.create([net_small]) as pack:
            a = run_counting(net_small, CFG, seed=5)
            b = run_counting(pack.nets[0], CFG, seed=5)
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()

    def test_handle_pickles_without_segment(self, nets):
        import pickle

        with SharedNetworkPack.create(nets) as pack:
            blob = pickle.dumps(pack)
            assert len(blob) < 4096  # metadata only, no arrays
            clone = pickle.loads(blob)
            assert clone.name == pack.name
            # Attaching in the same process reuses POSIX shm by name.
            for net, net2 in zip(nets, clone.nets, strict=True):
                assert np.array_equal(net2.h.indices, net.h.indices)
            clone.close()

    def test_close_unlinks_and_clears_cache(self, nets):
        pack = SharedNetworkPack.create(nets)
        name = pack.name
        pack.nets  # populate the attachment cache
        assert name in _ATTACHED
        pack.close()
        assert name not in _ATTACHED
        assert not glob.glob(f"/dev/shm/{name.lstrip('/')}")

    def test_views_survive_close(self, nets):
        # Arrays handed out before close() must stay readable (the mapping
        # is kept alive even though the segment is unlinked) — a stale read
        # must never segfault the interpreter.
        pack = SharedNetworkPack.create(nets)
        attached = pack.nets
        pack.close()
        for net, net2 in zip(nets, attached, strict=True):
            assert int(net2.h.indptr[0]) == 0
            assert np.array_equal(net2.h.indices, net.h.indices)

    def test_close_without_views_releases_everything(self, nets):
        pack = SharedNetworkPack.create(nets)
        name = pack.name
        pack.close()  # .nets never read: full close + unlink
        assert name not in _ATTACHED
        assert not glob.glob(f"/dev/shm/{name.lstrip('/')}")


def _payload_kind(network, item):
    """Worker probe: what ``fn`` receives as its network payload."""
    return type(network).__name__, int(network.n), item


class TestParallelMapSharedNetwork:
    def test_serial_network_calls(self, net_small):
        out = parallel_map(_run_sum, [1, 2], network=net_small)
        assert out == [_run_sum(net_small, 1), _run_sum(net_small, 2)]

    def test_sharded_matches_serial(self, net_small):
        serial = parallel_map(_run_sum, [1, 2, 3, 4], network=net_small)
        sharded = parallel_map(_run_sum, [1, 2, 3, 4], jobs=2, network=net_small)
        assert serial == sharded

    def test_lone_network_reaches_fn_unwrapped(self, net_small):
        # A lone network ships as a one-network pack, and fn receives the
        # attached network itself, never the one-element tuple.
        serial = parallel_map(_payload_kind, [1, 2], network=net_small)
        sharded = parallel_map(_payload_kind, [1, 2], jobs=2, network=net_small)
        kind = SmallWorldNetwork.__name__
        assert serial == sharded == [(kind, net_small.n, 1), (kind, net_small.n, 2)]

    def test_segment_cleaned_up_after_map(self, net_small):
        before = set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/repro-*"))
        parallel_map(_run_sum, [1, 2], jobs=2, network=net_small)
        after = set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/repro-*"))
        assert after <= before


def _union_probe(networks, item):
    """Worker probe: does the shared payload carry the union CSR views?"""
    sizes, indptr, indices = networks.union_csr
    return (tuple(sizes), int(indptr[-1]), int(indices.shape[0]), item)


class TestSharedNetworkPackUnion:
    """A pack of two or more networks ships the pre-concatenated union CSR."""

    def test_pack_ships_union_csr_views(self):
        from repro.graphs.shared import NetworkTuple
        from repro.sim.flood import stack_union_csr

        nets = _two_nets()
        ref_sizes, ref_indptr, ref_indices = stack_union_csr(nets)
        with SharedNetworkPack.create(nets) as pack:
            attached = pack.nets
            assert isinstance(attached, NetworkTuple)
            sizes, indptr, indices = attached.union_csr
            assert tuple(sizes) == ref_sizes
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)
            assert not indptr.flags.writeable
            assert not indices.flags.writeable

    def test_one_network_pack_has_no_csr(self):
        with SharedNetworkPack.create(_two_nets()[:1]) as pack:
            assert pack.nets.union_csr is None

    def test_engine_adopts_shipped_csr(self):
        from repro.core.batch import run_counting_batch, run_counting_unionstack

        nets = _two_nets()
        with SharedNetworkPack.create(nets) as pack:
            out = run_counting_unionstack(pack.nets, [3, 4], config=CFG)
        for g, net in enumerate(nets):
            for j, s in enumerate([3, 4]):
                ref = run_counting_batch(net, [s], config=CFG)[0]
                got = out[g * 2 + j]
                assert np.array_equal(ref.decided_phase, got.decided_phase)
                assert ref.meter.as_dict() == got.meter.as_dict()

    def test_parallel_map_union_payload_reaches_workers(self):
        from repro.sim.flood import stack_union_csr

        nets = _two_nets()
        sizes, indptr, indices = stack_union_csr(nets)
        expected = (tuple(sizes), int(indptr[-1]), int(indices.shape[0]))
        serial = parallel_map(_union_probe, [1, 2], network=nets)
        sharded = parallel_map(_union_probe, [1, 2], jobs=2, network=nets)
        assert serial == sharded == [expected + (1,), expected + (2,)]


class _BoomError(RuntimeError):
    pass


def _raise_boom(network, item):
    raise _BoomError(f"boom on {item}")


def _raise_interrupt(network, item):
    raise KeyboardInterrupt


def _repro_segments() -> set:
    return set(glob.glob("/dev/shm/repro-*"))


class TestWorkerFailureUnlinksSegment:
    """Regression (PR 8): segments must not leak when a map dies.

    A raising worker used to propagate through ``pool.map`` with the
    ``with shared:`` unlink as the only line of defense; the resilient
    dispatch path must preserve that guarantee through retries, typed
    re-raise, and KeyboardInterrupt aborts.
    """

    @pytest.mark.parametrize("lone", [True, False], ids=["lone", "list"])
    def test_raising_worker_unlinks_segment(self, net_small, lone):
        from repro.exec import RetryPolicy

        before = _repro_segments()
        with pytest.raises(_BoomError):
            parallel_map(
                _raise_boom,
                [1, 2, 3, 4],
                jobs=2,
                network=net_small if lone else _two_nets(),
                policy=RetryPolicy(max_retries=0),
            )
        assert _repro_segments() <= before

    def test_keyboard_interrupt_mid_map_unlinks_segment(self, net_small):
        # A worker-raised KeyboardInterrupt aborts the map (never
        # retried) and the owner's context manager still unlinks.
        before = _repro_segments()
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_raise_interrupt, [1, 2, 3, 4], jobs=2, network=net_small)
        assert _repro_segments() <= before

    def test_serial_raise_never_touches_shm(self, net_small):
        before = _repro_segments()
        with pytest.raises(_BoomError):
            parallel_map(_raise_boom, [1, 2], network=net_small)
        assert _repro_segments() <= before


class TestCrashSafeSegments:
    """PR 8: recognizable names, owner guards, and the orphan sweeper."""

    def test_segment_name_carries_owner_pid(self, nets):
        with SharedNetworkPack.create(nets) as pack:
            assert pack.name.startswith(f"repro-{os.getpid()}-")

    def test_create_failure_unlinks_partial_segment(self, nets, monkeypatch):
        def explode(*args, **kwargs):
            raise MemoryError("simulated copy failure")

        before = _repro_segments()
        monkeypatch.setattr(np, "ndarray", explode)
        with pytest.raises(MemoryError):
            SharedNetworkPack.create(nets)
        monkeypatch.undo()
        assert _repro_segments() <= before

    def test_cleanup_orphans_reaps_dead_owner_segment(self, tmp_path):
        from repro.graphs import cleanup_orphans

        # A segment named for a pid that cannot exist (> pid_max) is an
        # orphan by construction; shm segments are plain files in
        # /dev/shm, so creating one directly simulates an owner that
        # died without running any cleanup hook.
        name = "repro-99999999-deadbeef"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 16)
        try:
            removed = cleanup_orphans()
            assert name in removed
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_cleanup_orphans_spares_live_owner(self, net_small):
        from repro.graphs import cleanup_orphans

        with SharedNetworkPack.create([net_small]) as pack:
            removed = cleanup_orphans()
            assert pack.name not in removed
            assert os.path.exists(f"/dev/shm/{pack.name}")

    def test_sigterm_guard_unlinks_owned_segments(self, tmp_path):
        # A real owner process killed with SIGTERM must leave no
        # segment behind (the chained signal guard unlinks before the
        # process dies with the conventional -SIGTERM status).
        code = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(_SRC)!r})\n"
            "from repro.graphs import SharedNetworkPack\n"
            "from repro.graphs.smallworld import build_small_world\n"
            "net = build_small_world(32, 4, seed=3)\n"
            "sh = SharedNetworkPack.create([net])\n"
            "print(sh.name, flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        try:
            assert proc.stdout is not None
            name = proc.stdout.readline().strip()
            assert os.path.exists(f"/dev/shm/{name}")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGTERM
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_forked_worker_exit_spares_owner_segment(self, net_small):
        # parallel_map tears its pool down with SIGTERM during crash
        # recovery; workers inherit the owner's _OWNED registry under
        # fork, and the pid check must keep their exit hooks from
        # unlinking the owner's live segment.  Exercised by mapping over
        # a live segment and checking it survives the pool's exit.
        with SharedNetworkPack.create([net_small]) as pack:
            out = parallel_map(_run_sum, [1, 2], jobs=2, network=net_small)
            assert len(out) == 2
            assert os.path.exists(f"/dev/shm/{pack.name}")

