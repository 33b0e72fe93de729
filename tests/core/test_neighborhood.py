"""Unit tests for Lemma 3 reconstruction and the crash rule (Lemma 15)."""

import numpy as np
import pytest

from repro.core.neighborhood import (
    ConflictError,
    crash_phase,
    find_conflicts,
    infer_child_relation,
    reconstruct_h_ball,
    truthful_claims,
)
from repro.graphs.balls import bfs_distances


@pytest.fixture(scope="module")
def truth(net_small):
    return truthful_claims(net_small)


# net_small is session-scoped in conftest; redeclare at module scope for the
# truth fixture's benefit.
@pytest.fixture(scope="module")
def net_small():
    from repro.graphs import build_small_world

    return build_small_world(128, 8, seed=7)


class TestTruthfulClaims:
    def test_claims_have_degree_d(self, net_small, truth):
        for v in (0, 10, 90):
            assert len(truth[v]) == net_small.d

    def test_claims_sorted_with_multiplicity(self, net_small, truth):
        for v in range(net_small.n):
            assert list(truth[v]) == sorted(truth[v])

    def test_subset_of_nodes(self, net_small):
        partial = truthful_claims(net_small, np.array([3, 5]))
        assert set(partial) == {3, 5}

    def test_matches_per_node_sort(self, net_small, truth):
        # The claims come off the graph's sorted row table; each is still
        # the node's own H adjacency, sorted, as Python ints.
        for v in range(net_small.n):
            want = tuple(sorted(int(u) for u in net_small.h.neighbors(v)))
            assert truth[v] == want
            assert all(type(u) is int for u in truth[v])
        partial = truthful_claims(net_small, np.array([9, 2, 9]))
        assert list(partial) == [9, 2]
        assert partial[2] == truth[2] and partial[9] == truth[9]

    def test_sorted_rows_table_built_once_and_read_only(self, net_small):
        rows = net_small.h.sorted_rows
        assert rows is net_small.h.sorted_rows
        assert rows.shape == (net_small.n, net_small.d)
        assert not rows.flags.writeable
        for v in (0, 17, net_small.n - 1):
            assert rows[v].tolist() == sorted(net_small.h.neighbors(v).tolist())


class TestReconstruction:
    def test_faithful_on_clean_network(self, net_small, truth):
        for v in (0, 33, 101):
            ports = net_small.g_neighbors(v)
            claims = {int(u): truth[int(u)] for u in ports}
            recon = reconstruct_h_ball(v, ports, claims, net_small.k, net_small.d)
            true_d = bfs_distances(
                net_small.h.indptr, net_small.h.indices, v, max_depth=net_small.k
            )
            for node, dist in recon.items():
                assert true_d[node] == dist
            # Every ball member is reconstructed.
            assert set(recon) == set(np.flatnonzero(true_d >= 0).tolist())

    def test_silent_neighbors_tolerated(self, net_small, truth):
        v = 7
        ports = net_small.g_neighbors(v)
        claims = {int(u): truth[int(u)] for u in ports}
        # Drop half the claims: silence is not a contradiction.
        for u in list(claims)[::2]:
            del claims[u]
        recon = reconstruct_h_ball(v, ports, claims, net_small.k, net_small.d)
        assert recon[v] == 0  # still returns something sensible

    def test_degree_violation_detected(self, net_small, truth):
        v = 7
        ports = net_small.g_neighbors(v)
        claims = {int(u): truth[int(u)] for u in ports}
        liar = int(ports[0])
        claims[liar] = claims[liar][:-1]  # only d-1 entries
        with pytest.raises(ConflictError, match="degree"):
            reconstruct_h_ball(v, ports, claims, net_small.k, net_small.d)

    def test_asymmetric_claim_detected(self, net_small, truth):
        v = 12
        ports = net_small.g_neighbors(v)
        port_set = set(map(int, ports))
        claims = {int(u): truth[int(u)] for u in ports}
        # Find a liar whose claim includes another port; replace that
        # entry with a *different port* it is NOT adjacent to.
        for liar in map(int, ports):
            said = set(claims[liar])
            non_adjacent_ports = [
                w for w in port_set if w not in said and w != liar
            ]
            adjacent_ports = [w for w in said if w in port_set]
            if non_adjacent_ports and adjacent_ports:
                lie = list(claims[liar])
                lie[lie.index(adjacent_ports[0])] = non_adjacent_ports[0]
                claims[liar] = tuple(sorted(lie))
                break
        with pytest.raises(ConflictError, match="asymmetric"):
            reconstruct_h_ball(v, ports, claims, net_small.k, net_small.d)

    def test_phantom_detected(self, net_small, truth):
        v = 25
        ports = net_small.g_neighbors(v)
        # Pick a liar at H-distance 1 (its claims sit at level <= k-1).
        dist = bfs_distances(
            net_small.h.indptr, net_small.h.indices, v, max_depth=1
        )
        liar = int(np.flatnonzero(dist == 1)[0])
        claims = {int(u): truth[int(u)] for u in ports}
        lie = list(claims[liar])
        # Replace an entry that is not v itself with a phantom ID.
        idx = next(i for i, x in enumerate(lie) if x != v)
        lie[idx] = net_small.n + 99
        claims[liar] = tuple(sorted(lie))
        with pytest.raises(ConflictError):
            reconstruct_h_ball(v, ports, claims, net_small.k, net_small.d)


class TestFindConflicts:
    def test_clean_claims_no_conflict(self, net_small, truth):
        for v in (0, 50):
            ports = net_small.g_neighbors(v)
            claims = {int(u): truth[int(u)] for u in ports}
            assert find_conflicts(v, ports, claims, net_small.k, net_small.d) == ()

    def test_returns_witnesses(self, net_small, truth):
        v = 7
        ports = net_small.g_neighbors(v)
        claims = {int(u): truth[int(u)] for u in ports}
        liar = int(ports[0])
        claims[liar] = claims[liar][:-1]
        witnesses = find_conflicts(v, ports, claims, net_small.k, net_small.d)
        assert liar in witnesses


class TestCrashPhase:
    def test_truthful_claims_no_crash(self, net_small, truth):
        byz = np.zeros(net_small.n, dtype=bool)
        byz[[5, 40]] = True
        claims = {5: truth[5], 40: truth[40]}
        crashed = crash_phase(net_small, byz, claims)
        assert not crashed.any()

    def test_silence_no_crash(self, net_small):
        byz = np.zeros(net_small.n, dtype=bool)
        byz[5] = True
        crashed = crash_phase(net_small, byz, {})
        assert not crashed.any()

    def test_liar_crashes_neighborhood(self, net_small, truth):
        byz = np.zeros(net_small.n, dtype=bool)
        byz[5] = True
        lie = tuple(sorted(list(truth[5][1:]) + [net_small.n + 1]))
        crashed = crash_phase(net_small, byz, {5: lie})
        assert crashed.any()
        # Byzantine nodes never crash.
        assert not crashed[5]
        # Crashes concentrate around the liar (within its G-ball).
        g_ball = set(net_small.g_neighbors(5).tolist())
        assert set(np.flatnonzero(crashed).tolist()) <= g_ball


def _crash_phase_by_node_sorts(net, byz_mask, byz_claims):
    """The crash rule with every claim and H row re-sorted per node."""
    crashed = np.zeros(net.n, dtype=bool)
    liars = [
        b
        for b, claim in byz_claims.items()
        if claim is not None
        and tuple(sorted(claim)) != tuple(sorted(int(u) for u in net.h.neighbors(b)))
    ]
    suspects = {
        int(u) for b in liars for u in net.g_neighbors(b) if not byz_mask[u]
    }
    for v in sorted(suspects):
        ports = net.g_neighbors(v)
        local = {}
        for u in ports.tolist():
            if byz_mask[u]:
                claim = byz_claims.get(u)
            else:
                claim = tuple(sorted(int(x) for x in net.h.neighbors(u)))
            if claim is not None:
                local[u] = claim
        if find_conflicts(v, ports, local, net.k, net.d):
            crashed[v] = True
    return crashed


class TestCrashPhaseAgainstPerNodeSorts:
    """The sorted-row table changes no crash mask, bit for bit."""

    def _claims(self, net, truth, byz, rng):
        kinds = []
        claims = {}
        for i, b in enumerate(np.flatnonzero(byz).tolist()):
            kind = i % 7
            kinds.append(kind)
            real = list(truth[b])
            if kind == 0:
                claims[b] = truth[b]
            elif kind == 1:  # the truth, unsorted and as a list
                claims[b] = list(rng.permutation(real).tolist())
            elif kind == 2:  # one real entry swapped for a phantom
                claims[b] = tuple(real[1:] + [net.n + i])
            elif kind == 3:  # too short
                claims[b] = tuple(real[:-1])
            elif kind == 4:  # too long
                claims[b] = tuple(real + [real[0]])
            elif kind == 5:  # silent
                claims[b] = None
            else:  # a real neighbor's multiplicity changed
                claims[b] = tuple(real[:-1] + [real[0]])
        return claims, kinds

    @pytest.mark.parametrize("seed", range(6))
    def test_masks_equal(self, net_small, truth, seed):
        rng = np.random.default_rng(seed)
        byz = np.zeros(net_small.n, dtype=bool)
        byz[rng.choice(net_small.n, size=3 + seed, replace=False)] = True
        claims, _ = self._claims(net_small, truth, byz, rng)
        got = crash_phase(net_small, byz, claims)
        want = _crash_phase_by_node_sorts(net_small, byz, claims)
        assert np.array_equal(got, want)

    def test_every_claim_kind_is_exercised(self, net_small, truth):
        byz = np.zeros(net_small.n, dtype=bool)
        byz[np.arange(0, net_small.n, 9)] = True
        claims, kinds = self._claims(net_small, truth, byz, np.random.default_rng(1))
        assert set(kinds) == set(range(7))
        got = crash_phase(net_small, byz, claims)
        assert got.any()
        assert np.array_equal(got, _crash_phase_by_node_sorts(net_small, byz, claims))


class TestChildRelation:
    def test_lemma3_rules(self):
        ng_v = {1, 2, 3, 4, 5}
        ng_u = {1, 2, 3, 9}
        ng_w = {1, 2, 8}
        # N(w) ∩ N(v) = {1,2} ⊂ N(u) ∩ N(v) = {1,2,3}: w is child of u.
        assert infer_child_relation(ng_v, ng_u, ng_w) == "w_child_of_u"
        assert infer_child_relation(ng_v, ng_w, ng_u) == "u_child_of_w"

    def test_siblings(self):
        assert infer_child_relation({1, 2}, {1, 9}, {1, 8}) == "siblings"

    def test_unrelated(self):
        assert infer_child_relation({1, 2, 3}, {1, 9}, {2, 8}) == "unrelated"


class TestClaimsSignature:
    """The engine's crash memo key: claim content, not insertion order."""

    def test_order_free_and_content_exact(self, truth):
        from repro.core.batch import _claims_signature

        forward = {5: truth[5], 40: truth[40], 7: None}
        backward = {7: None, 40: list(truth[40]), np.int64(5): truth[5]}
        assert _claims_signature(forward) == _claims_signature(backward)
        assert hash(_claims_signature(forward)) == hash(_claims_signature(backward))
        lie = {**forward, 40: truth[40][1:] + (999,)}
        assert _claims_signature(lie) != _claims_signature(forward)
        assert _claims_signature({5: truth[5]}) != _claims_signature(forward)
