"""An independent list-based reference for the churn splice.

``reference_delta`` restates the delta semantics of CONTRIBUTING.md
("Continuous estimation service") with plain Python lists and shares no
code with :mod:`repro.graphs.delta`: leavers are removed from every
cycle, survivors above ``n_live`` take the vacated ids below it (sorted
onto sorted), each joiner goes right after an anchor drawn uniformly
over the current node set (per join, then per cycle), and every cycle is
rotated so node 0 leads.  Hypothesis draws delta sequences and the
resident cycles must match the reference after every delta.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import ResidentGraph, build_small_world
from repro.sim.rng import make_rng


def reference_delta(cycles, leaves, joins, rng):
    """Apply one delta to ``cycles`` (lists of ids); return new cycles and relabel."""
    n = len(cycles[0])
    gone = set(leaves)
    n_live = n - len(gone)
    srcs = sorted(v for v in range(n_live, n) if v not in gone)
    dsts = sorted(v for v in gone if v < n_live)
    relabel = dict(zip(srcs, dsts))
    rows = []
    for cycle in cycles:
        row = list(cycle)
        for v in gone:
            row.remove(v)
        rows.append([relabel.get(v, v) for v in row])
    for nid in range(n_live, n_live + joins):
        for row in rows:
            anchor = int(rng.integers(nid))
            row.insert(row.index(anchor) + 1, nid)
    rotated = [row[row.index(0) :] + row[: row.index(0)] for row in rows]
    return rotated, relabel


@st.composite
def churn_runs(draw):
    """``(d, n0, seed, rng_seed, [(leaves, joins), ...])`` valid at each step."""
    d = draw(st.sampled_from([4, 6, 8]), label="d")
    n0 = n = draw(st.integers(8, 40), label="n")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng_seed = draw(st.integers(0, 2**16), label="rng_seed")
    deltas = []
    for _ in range(draw(st.integers(1, 4), label="steps")):
        leaves = draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n - 3),
            label="leaves",
        )
        joins = draw(st.integers(0, 6), label="joins")
        deltas.append((leaves, joins))
        n += joins - len(leaves)
    return d, n0, seed, rng_seed, deltas


@settings(max_examples=60, deadline=None)
@given(run=churn_runs())
def test_resident_cycles_match_list_reference(run):
    d, n, seed, rng_seed, deltas = run
    net = build_small_world(n, d, seed=seed)
    rg = ResidentGraph.from_network(net)
    cycles = net.h.cycles.tolist()
    ours, theirs = make_rng(rng_seed), make_rng(rng_seed)
    for leaves, joins in deltas:
        applied = rg.apply_delta(leaves, joins, ours)
        cycles, relabel = reference_delta(cycles, leaves, joins, theirs)
        n += joins - len(leaves)
        assert rg.snapshot().h.cycles.tolist() == cycles
        assert sorted(map(sorted, cycles)) == [list(range(n))] * (d // 2)
        assert applied.relabeled == relabel
        assert applied.joined == tuple(range(n - joins, n))
