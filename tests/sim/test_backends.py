"""Kernel backend selection and numba-kernel equivalence.

The backends package has two jobs: (1) a resolver that turns ``backend="numpy"|"numba"|"auto"`` / the ``REPRO_KERNEL_BACKEND``
env var into a :class:`KernelBackend` instance with graceful numpy
fallback, and (2) the backends themselves, which must be bit-for-bit
interchangeable on the flooding kernels.

The numba kernels are written as pure-Python functions that numba
jit-wraps only when it is importable, so everything below runs — and the
kernel *logic* is fully exercised — on numba-less machines too: the
selection tests monkeypatch ``numba_backend.NUMBA_AVAILABLE`` and the
kernels execute as plain Python.  On a machine with numba installed the
same tests cover the compiled path.
"""

import warnings

import numpy as np
import pytest
from flood_reference import reference_neighbor_max

from repro.core.batch import (
    run_counting_batch,
    run_counting_multinet,
    run_counting_unionstack,
)
from repro.core.sweep import run_sweep
from repro.graphs.shared import NetworkTuple, SharedNetworkPack
from repro.graphs.smallworld import build_small_world
from repro.sim import backends
from repro.sim.backends import (
    ENV_VAR,
    BackendUnavailableError,
    KernelBackend,
    available_backends,
    numba_backend,
    resolve_backend,
)
from repro.sim.backends.numba_backend import NumbaBackend
from repro.sim.backends.numpy_backend import NumpyBackend
from repro.sim.flood import FloodKernel, MultiFloodKernel, UnionFloodKernel


@pytest.fixture(autouse=True)
def clean_selection(monkeypatch):
    """Each test starts with no env override, no numba instance built yet,
    and the one-time warnings re-armed; monkeypatch restores all three."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(backends, "_NUMBA", None)
    monkeypatch.setattr(backends, "_WARNED", set())


@pytest.fixture
def fake_numba(monkeypatch):
    """Pretend numba imported: the pure-Python kernels run un-jitted."""
    monkeypatch.setattr(numba_backend, "NUMBA_AVAILABLE", True)


@pytest.fixture
def no_numba(monkeypatch):
    """Pretend numba is missing, whether or not it is installed."""
    monkeypatch.setattr(numba_backend, "NUMBA_AVAILABLE", False)


#: Every rung of the batched engines' color-state dtype ladder.
LADDER_DTYPES = [np.int8, np.int16, np.int32, np.int64]


def small_kernel(**kw):
    # A 4-cycle: the smallest d-regular CSR, a cheap vehicle for the
    # selection tests.
    indptr = np.arange(5, dtype=np.int64) * 2
    indices = np.array([3, 1, 0, 2, 1, 3, 2, 0], dtype=np.int64)
    return FloodKernel(indptr, indices, **kw)


# ----------------------------------------------------------------------
# The two shipped backends
# ----------------------------------------------------------------------
class TestRegistry:
    """The closed set of two shipped backends, numpy and numba."""

    def test_numpy_always_available(self, no_numba):
        assert available_backends() == ("numpy",)

    def test_available_backends_tracks_numba(self):
        expected = ["numpy", "numba"] if numba_backend.NUMBA_AVAILABLE else ["numpy"]
        assert list(available_backends()) == expected

    def test_available_backends_with_numba(self, fake_numba):
        assert available_backends() == ("numpy", "numba")

    def test_resolve_returns_shared_instance(self):
        first = resolve_backend("numpy")
        assert isinstance(first, NumpyBackend)
        assert resolve_backend("numpy") is first

    def test_numba_when_faked(self, fake_numba):
        backend = resolve_backend("numba")
        assert isinstance(backend, NumbaBackend)
        assert backend.name == "numba"
        assert resolve_backend("numba") is backend

    def test_backends_satisfy_protocol(self, fake_numba):
        assert isinstance(resolve_backend("numpy"), KernelBackend)
        assert isinstance(resolve_backend("numba"), KernelBackend)


# ----------------------------------------------------------------------
# Resolution precedence: explicit arg > env var > auto
# ----------------------------------------------------------------------
class TestResolution:
    def test_default_is_auto_numpy(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("auto").name == "numpy"

    def test_auto_prefers_numba_when_available(self, fake_numba):
        assert resolve_backend("auto").name == "numba"
        assert resolve_backend(None).name == "numba"

    def test_instance_passthrough(self):
        instance = NumpyBackend()
        assert resolve_backend(instance) is instance

    def test_explicit_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_explicit_unavailable_warns_once_and_falls_back(self, no_numba):
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert resolve_backend("numba").name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second request: silent
            assert resolve_backend("numba").name == "numpy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_env_override_numba(self, fake_numba, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numba")
        assert resolve_backend(None).name == "numba"

    def test_explicit_arg_beats_env(self, fake_numba, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numba")
        assert resolve_backend("numpy").name == "numpy"

    def test_empty_env_treated_as_unset(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert resolve_backend(None).name == "numpy"

    def test_unknown_env_value_warns_once_then_auto(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cuda")
        with pytest.warns(RuntimeWarning, match="cuda"):
            assert resolve_backend(None).name in available_backends()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_backend(None)


# ----------------------------------------------------------------------
# Fallback warnings are attributed to the user's call site
# ----------------------------------------------------------------------
class TestWarningAttribution:
    """``_warn_once`` computes its stacklevel from the live stack, so the
    warning lands on the first frame *outside* the repro package no matter
    how deep the resolution was reached — directly via
    ``resolve_backend(...)`` or through ``FloodKernel(...)`` construction.
    A hardcoded stacklevel can only be right for one of these."""

    def test_resolve_backend_warns_on_this_file(self, no_numba):
        with pytest.warns(RuntimeWarning, match="falling back") as rec:
            resolve_backend("numba")
        assert rec[0].filename == __file__

    def test_kernel_construction_warns_on_this_file(self, no_numba):
        with pytest.warns(RuntimeWarning, match="falling back") as rec:
            small_kernel(backend="numba")
        assert rec[0].filename == __file__

    def test_env_typo_warns_on_this_file(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.warns(RuntimeWarning, match="bogus") as rec:
            resolve_backend(None)
        assert rec[0].filename == __file__


# ----------------------------------------------------------------------
# Kernel-level equivalence: numba (pure-Python mode) vs numpy
# ----------------------------------------------------------------------
class TestNumbaKernelEquivalence:
    @pytest.fixture()
    def nb(self, fake_numba):
        return NumbaBackend()

    def regular_kernel(self, **kw):
        return FloodKernel(*self._regular_csr(), **kw)

    @staticmethod
    def _regular_csr():
        net = build_small_world(64, 8, seed=5)
        return net.h.indptr, net.h.indices

    @pytest.mark.parametrize("dtype", LADDER_DTYPES)
    def test_neighbor_max_stacked_matches_numpy(self, nb, dtype):
        kern = self.regular_kernel()
        values = np.random.default_rng(1).integers(
            0, 99, size=(kern.n, 7)
        ).astype(dtype)
        expected = NumpyBackend().neighbor_max_stacked(kern, values)
        got = nb.neighbor_max_stacked(kern, values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(
            got, reference_neighbor_max(kern.indptr, kern.indices, values)
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_narrow_dtypes_run_without_fallback(self, nb, dtype):
        # The narrow rungs of the engines' state ladder are compiled, not
        # delegated: no fallback warning, same result as numpy's one-take.
        kern = self.regular_kernel()
        values = np.random.default_rng(7).integers(
            -50, 99, size=(kern.n, 16)
        ).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nb.neighbor_max_stacked(kern, values)
        assert got.dtype == dtype
        assert np.array_equal(got, NumpyBackend().neighbor_max_stacked(kern, values))

    def test_stacked_out_buffer(self, nb):
        kern = self.regular_kernel()
        values = np.random.default_rng(2).integers(
            0, 99, size=(kern.n, 3), dtype=np.int32
        )
        out = np.empty_like(values)
        result = nb.neighbor_max_stacked(kern, values, out=out)
        assert result is out
        assert np.array_equal(out, NumpyBackend().neighbor_max_stacked(kern, values))

    def test_stacked_aliasing_out_is_input(self, nb):
        # out aliasing the input would corrupt the gather mid-kernel; the
        # backend must detect the overlap and stage through a fresh buffer.
        kern = self.regular_kernel()
        values = np.random.default_rng(3).integers(
            0, 99, size=(kern.n, 3), dtype=np.int32
        )
        expected = NumpyBackend().neighbor_max_stacked(kern, values)
        result = nb.neighbor_max_stacked(kern, values, out=values)
        assert result is values
        assert np.array_equal(result, expected)

    def test_stacked_noncontiguous_out(self, nb):
        kern = self.regular_kernel()
        values = np.random.default_rng(4).integers(
            0, 99, size=(kern.n, 2), dtype=np.int32
        )
        wide = np.zeros((kern.n, 4), dtype=np.int32)
        out = wide[:, ::2]  # non-contiguous view
        result = nb.neighbor_max_stacked(kern, values, out=out)
        assert result is out
        assert np.array_equal(out, NumpyBackend().neighbor_max_stacked(kern, values))

    def test_unsupported_dtype_warns_once_and_delegates(self, nb):
        kern = self.regular_kernel()
        values = np.random.default_rng(5).random((kern.n, 2))
        with pytest.warns(RuntimeWarning, match="dtype"):
            got = nb.neighbor_max_stacked(kern, values)
        assert np.array_equal(got, NumpyBackend().neighbor_max_stacked(kern, values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # same dtype again: silent
            nb.neighbor_max_stacked(kern, values)

    def test_constructor_requires_numba(self, no_numba):
        with pytest.raises(BackendUnavailableError):
            NumbaBackend()


# ----------------------------------------------------------------------
# Kernel objects carry the backend as a first-class axis
# ----------------------------------------------------------------------
class TestKernelBackendAxis:
    def test_flood_kernel_backend_property(self):
        assert small_kernel().backend == "numpy"
        assert small_kernel(backend="numpy").backend == "numpy"

    def test_flood_kernel_backend_numba(self, fake_numba):
        kern = small_kernel(backend="numba")
        assert kern.backend == "numba"
        values = np.array([[5, 1], [0, 1], [2, 1], [9, 1]], dtype=np.int64)
        ref = small_kernel(backend="numpy")
        assert np.array_equal(
            kern.neighbor_max_stacked(values), ref.neighbor_max_stacked(values)
        )

    def test_union_kernel_passes_backend_through(self, fake_numba):
        nets = [build_small_world(48, 8, seed=1), build_small_world(64, 8, seed=2)]
        union = UnionFloodKernel.from_networks(nets, backend="numba")
        assert union.backend == "numba"
        ref = UnionFloodKernel.from_networks(nets, backend="numpy")
        values = np.random.default_rng(7).integers(
            0, 99, size=(union.n, 4), dtype=np.int32
        )
        assert np.array_equal(
            union.neighbor_max_stacked(values), ref.neighbor_max_stacked(values)
        )

    def test_multi_kernel_resolves_once_for_members(self, fake_numba):
        nets = [build_small_world(48, 8, seed=1), build_small_world(64, 8, seed=2)]
        mkern = MultiFloodKernel(nets, backend="numba")
        assert mkern.backend == "numba"
        assert all(k.backend == "numba" for k in mkern.kernels)

    def test_env_var_steers_kernel_construction(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert small_kernel().backend == "numpy"


# ----------------------------------------------------------------------
# Engine and sweep entry points accept the backend kwarg
# ----------------------------------------------------------------------
class TestEngineBackendKwarg:
    def test_run_counting_batch_backend_is_bit_for_bit(self, net_small):
        seeds = [3, 4, 5]
        ref = run_counting_batch(net_small, seeds)
        got = run_counting_batch(net_small, seeds, backend="numpy")
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()

    def test_run_counting_batch_fake_numba(self, fake_numba, net_small):
        seeds = [3, 4]
        ref = run_counting_batch(net_small, seeds, backend="numpy")
        got = run_counting_batch(net_small, seeds, backend="numba")
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()

    def test_run_counting_unionstack_backend(self, fake_numba):
        nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
        seeds = [3, 4]
        ref = run_counting_unionstack(nets, seeds, backend="numpy")
        got = run_counting_unionstack(nets, seeds, backend="numba")
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()

    def test_shipped_union_csr_takes_backend_argument(self, fake_numba):
        # A container with a pre-stacked union CSR carries data only: the
        # backend still comes from the argument.
        nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
        bundle = NetworkTuple.build(nets, union=True)
        assert not hasattr(bundle, "kernel_backend")
        ref = run_counting_unionstack(nets, [3, 4], backend="numpy")
        got = run_counting_unionstack(bundle, [3, 4], backend="numba")
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()

    def test_run_sweep_backend(self, net_small):
        ref = run_sweep(net_small, seeds=[1, 2]).results
        got = run_sweep(net_small, seeds=[1, 2], backend="numpy").results
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()


# ----------------------------------------------------------------------
# Network containers carry data only: the backend is an argument
# ----------------------------------------------------------------------
@pytest.fixture
def numba_calls(fake_numba, monkeypatch):
    """Count the calls that reach the numba backend's kernels."""
    calls = []
    inner = NumbaBackend.neighbor_max_stacked

    def spy(self, *args, **kwargs):
        calls.append("neighbor_max_stacked")
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(NumbaBackend, "neighbor_max_stacked", spy)
    return calls


class TestContainersCarryDataOnly:
    def test_network_tuple_has_no_settings(self):
        nets = [build_small_world(48, 8, seed=1)]
        bundle = NetworkTuple.build(nets, union=True)
        assert not hasattr(bundle, "kernel_backend")
        assert not hasattr(bundle, "channel")
        with pytest.raises(TypeError):
            NetworkTuple.build(nets, backend="numpy")

    def test_shared_pack_ships_no_settings(self):
        nets = [build_small_world(48, 8, seed=1), build_small_world(64, 8, seed=2)]
        with pytest.raises(TypeError):
            SharedNetworkPack.create(nets, backend="numpy")
        with SharedNetworkPack.create(nets, union=True) as pack:
            assert set(pack.__getstate__()) == {"shm_name", "per_net", "union_specs"}
            assert not hasattr(pack.nets, "kernel_backend")

    def test_env_var_steers_engine_on_container(self, numba_calls, monkeypatch):
        # With no argument, the environment picks the backend even when
        # the engine is handed a container with a shipped union CSR.
        nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
        bundle = NetworkTuple.build(nets, union=True)
        ref = run_counting_unionstack(nets, [3, 4], backend="numpy")
        assert numba_calls == []
        monkeypatch.setenv(ENV_VAR, "numba")
        got = run_counting_unionstack(bundle, [3, 4])
        assert numba_calls
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()

    def test_multinet_container_takes_backend_argument(self, numba_calls):
        nets = [build_small_world(64, 8, seed=1), build_small_world(96, 8, seed=2)]
        bundle = NetworkTuple.build(nets)
        ref = run_counting_multinet(nets, [3, 4], backend="numpy")
        assert numba_calls == []
        got = run_counting_multinet(bundle, [3, 4], backend="numba")
        assert numba_calls
        for a, b in zip(ref, got):
            assert np.array_equal(a.decided_phase, b.decided_phase)
            assert a.meter.as_dict() == b.meter.as_dict()
