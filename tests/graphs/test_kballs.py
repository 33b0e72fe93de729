"""The all-sources k-ball pass against an independent BFS oracle.

:func:`repro.graphs.smallworld.k_balls` builds every ``G`` row at once
(blocked, keyed, sort-deduplicated).  The oracle here is
:func:`repro.graphs.balls.bfs_distances`, one full-length distance array
per source, which shares no code with it.  Node ids, ``int8`` distances
and the ``int64`` CSR dtypes must match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    ball_chunk,
    build_small_world,
    generate_hgraph,
    lattice_parameter,
)
from repro.graphs.balls import bfs_distances
from repro.graphs.smallworld import _BLOCK, _key_dtype, k_balls


def oracle_csr(indptr, indices, sources, k):
    """``B_H(v, k) \\ {v}`` rows with distances, one BFS per source."""
    ids, dists = [], []
    for v in sources:
        dist = bfs_distances(indptr, indices, int(v), max_depth=k)
        row = np.flatnonzero(dist >= 1)
        ids.append(row.astype(np.int64))
        dists.append(dist[row].astype(np.int8))
    counts = np.array([r.shape[0] for r in ids], dtype=np.int64)
    g_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=g_indptr[1:])
    g_indices = np.concatenate(ids) if ids else np.empty(0, np.int64)
    g_dist = np.concatenate(dists) if dists else np.empty(0, np.int8)
    return g_indptr, g_indices, g_dist


def assert_csr_identical(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert got[0].dtype == np.int64
    assert got[1].dtype == np.int64
    assert got[2].dtype == np.int8


def assert_build_matches_oracle(net):
    want = oracle_csr(net.h.indptr, net.h.indices, range(net.n), net.k)
    assert_csr_identical((net.g_indptr, net.g_indices, net.g_dist), want)


class TestBuildAgainstOracle:
    @pytest.mark.parametrize("d", [4, 6, 8, 10])
    @pytest.mark.parametrize("k", [None, 1, 2, 3, 4])
    def test_degree_and_radius_grid(self, d, k):
        # k=None is the default ceil(d/3); explicit k is E14's override.
        net = build_small_world(150, d, seed=d * 10 + (k or 0), k=k)
        assert net.k == (k if k is not None else lattice_parameter(d))
        assert_build_matches_oracle(net)

    def test_smallest_graph(self):
        net = build_small_world(3, 4, seed=1)
        assert_build_matches_oracle(net)
        for v in range(3):  # n=3: everybody is everybody's neighbor
            assert net.g_neighbors(v).tolist() == [u for u in range(3) if u != v]

    @pytest.mark.parametrize(
        "n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + _BLOCK // 3]
    )
    def test_sizes_around_block(self, n):
        assert_build_matches_oracle(build_small_world(n, 6, seed=n))


class TestKeyDtype:
    def test_int32_until_the_packed_key_overflows(self):
        # k=3 packs dist in s=2 bits; the choice keeps one bit spare.
        assert _key_dtype(2**28 - 1, 3) is np.int32
        assert _key_dtype(2**28, 3) is np.int64
        assert _key_dtype(2**29 - 1, 1) is np.int32
        assert _key_dtype(2**29, 1) is np.int64

    @pytest.mark.parametrize("d", [4, 6, 8, 10])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_int64_keys_match_int32(self, monkeypatch, d, k):
        # int64 keys need n of ~2M nodes for real; force them instead.
        h = generate_hgraph(150, d, seed=d * 10 + k)
        sources = np.arange(h.n, dtype=np.int64)
        narrow = k_balls(h.indptr, h.indices, sources, k)
        assert _key_dtype(min(_BLOCK, h.n) * h.n, k) is np.int32
        monkeypatch.setattr(
            "repro.graphs.smallworld._key_dtype", lambda span, k: np.int64
        )
        wide = k_balls(h.indptr, h.indices, sources, k)
        assert_csr_identical(wide, narrow)
        assert_csr_identical(wide, oracle_csr(h.indptr, h.indices, sources, k))


class TestNonUniformDegree:
    def test_ragged_csr_is_rejected(self):
        # A path 0-1-2: degrees 1, 2, 1.
        indptr = np.array([0, 1, 3, 4], dtype=np.int64)
        indices = np.array([1, 0, 2, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="uniform degree"):
            k_balls(indptr, indices, np.array([0], dtype=np.int64), 1)


class TestSourceSubsets:
    @pytest.fixture(scope="class")
    def h(self):
        return generate_hgraph(2 * _BLOCK + 40, 6, seed=4)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_sorted_subsets(self, h, data):
        # A call over any sorted subset of sources gives every row the
        # oracle's ball, whatever other sources share the call.
        k = data.draw(st.integers(1, 3), label="k")
        srcs = data.draw(
            st.lists(st.integers(0, h.n - 1), unique=True, max_size=_BLOCK + 30),
            label="sources",
        )
        sources = np.array(sorted(srcs), dtype=np.int64)
        got = k_balls(h.indptr, h.indices, sources, k)
        assert_csr_identical(got, oracle_csr(h.indptr, h.indices, sources, k))

    def test_rows_follow_source_order(self, h):
        sources = np.array([9, 3, 9, h.n - 1], dtype=np.int64)
        got = k_balls(h.indptr, h.indices, sources, 2)
        assert_csr_identical(got, oracle_csr(h.indptr, h.indices, sources, 2))

    def test_ball_chunk_is_the_one_source_case(self, h):
        for v in (0, 77, h.n - 1):
            nodes, dists = ball_chunk(h.indptr, h.indices, v, 2)
            _, want_nodes, want_dists = oracle_csr(h.indptr, h.indices, [v], 2)
            assert nodes.dtype == np.int64 and dists.dtype == np.int8
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(dists, want_dists)


class TestBuiltNetworksValidate:
    """``build_small_world`` does not re-validate what it assembles; its
    output must pass ``validate`` anyway."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 400),
        d=st.sampled_from([2, 4, 6, 8, 10]),
        k=st.one_of(st.none(), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_build_output_passes_validate(self, n, d, k, seed):
        build_small_world(n, d, seed=seed, k=k).validate()


class TestValidateRejectsCorruption:
    """``validate`` catches what its per-node spot checks caught (self-loops,
    distances outside ``[1, k]``, a sampled edge missing its reverse) plus
    unsorted or duplicate rows, out-of-range ids, and a sampled node
    missing an edge that another row lists."""

    @pytest.fixture(scope="class")
    def net(self):
        return build_small_world(64, 4, seed=2)

    def corrupt(self, net, slot, value, field="g_indices"):
        arr = getattr(net, field).copy()
        arr[slot] = value
        return replace(net, **{field: arr})

    def test_clean_network_passes(self, net):
        net.validate()

    def test_unsorted_row(self, net):
        lo = int(net.g_indptr[5])
        arr = net.g_indices.copy()
        arr[lo], arr[lo + 1] = arr[lo + 1], arr[lo]
        with pytest.raises(ValueError, match="sorted and distinct"):
            replace(net, g_indices=arr).validate()

    def test_duplicate_neighbor(self, net):
        lo = int(net.g_indptr[5])
        bad = self.corrupt(net, lo + 1, net.g_indices[lo])
        with pytest.raises(ValueError, match="sorted and distinct"):
            bad.validate()

    def test_id_out_of_range(self, net):
        bad = self.corrupt(net, net.g_indices.shape[0] - 1, net.n)
        with pytest.raises(ValueError, match=r"outside \[0, n\)"):
            bad.validate()

    def test_self_loop(self, net):
        # Node 0 is in the sample; its first neighbor slot becomes 0 itself
        # (row 0 stays sorted because every other id is positive).
        bad = self.corrupt(net, int(net.g_indptr[0]), 0)
        with pytest.raises(ValueError, match="self-loop"):
            bad.validate()

    def test_distance_outside_radius(self, net):
        bad = self.corrupt(net, int(net.g_indptr[0]), net.k + 1, field="g_dist")
        with pytest.raises(ValueError, match=r"outside \[1, k\]"):
            bad.validate()

    def drop(self, net, v, u):
        """``net`` with ``u`` removed from row ``v`` only."""
        lo = int(net.g_indptr[v])
        keep = np.ones(net.g_indices.shape[0], dtype=bool)
        keep[lo + int(np.flatnonzero(net.g_neighbors(v) == u)[0])] = False
        g_indptr = net.g_indptr.copy()
        g_indptr[v + 1 :] -= 1
        return replace(
            net,
            g_indptr=g_indptr,
            g_indices=net.g_indices[keep],
            g_dist=net.g_dist[keep],
        )

    def test_asymmetric_edge(self, net):
        # Row u loses 0 but stays sorted and distinct; sampled row 0 still
        # lists u.
        u = int(net.g_neighbors(0)[-1])
        with pytest.raises(ValueError, match="not symmetric"):
            self.drop(net, u, 0).validate()

    def test_asymmetric_edge_into_sample(self, net):
        # Sampled row 0 loses u, while row u (possibly unsampled) still
        # lists 0.
        u = int(net.g_neighbors(0)[-1])
        with pytest.raises(ValueError, match="not symmetric"):
            self.drop(net, 0, u).validate()
