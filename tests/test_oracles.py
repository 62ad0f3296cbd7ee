"""The brute-force solvers against closed forms and tiny exhaustive checks."""

import heapq
import itertools
import os
import random
import re
import signal
import sys
import time

import numpy as np
import pytest

from rooklab import oracles, parallel
from rooklab.cli import main
from rooklab.constructions import anchor_edge, default_prime, hamiltonian_cycle_sr
from rooklab.core import (
    adjacent,
    csr_spec,
    enumerate_vertices,
    indexed_graph,
    sr_spec,
    validate_vertex,
)
from rooklab.errors import CapExceededError
from rooklab.oracles import (
    _bit_graph,
    _bits,
    _k_coloring,
    _max_clique_bits,
    all_pairs_distances,
    oracle_alpha,
    oracle_chi,
    oracle_gamma,
    oracle_omega,
    verify_cycle,
)

from bfs import oracle_distances
from reference import neighbors


def test_alpha_sr3_closed_form_small():
    for n in range(0, 10):
        size, witness = oracle_alpha(sr_spec(3, n))
        assert size == 1 + (2 * n) // 3
        spec = sr_spec(3, n)
        assert len(witness) == size
        assert all(not adjacent(spec, u, v) for u, v in itertools.combinations(witness, 2))


def test_alpha_complete_graphs():
    assert oracle_alpha(csr_spec(3, 2))[0] == 1  # K_4
    assert oracle_alpha(sr_spec(2, 6))[0] == 1  # K_7


def test_alpha_matches_exhaustive_tiny():
    # exhaustive subset scan as the oracle's own oracle
    for spec in (sr_spec(3, 3), csr_spec(3, 3), csr_spec(4, 2)):
        verts = enumerate_vertices(spec)
        best = 0
        for r in range(1, len(verts) + 1):
            if any(
                all(not adjacent(spec, u, v) for u, v in itertools.combinations(combo, 2))
                for combo in itertools.combinations(verts, r)
            ):
                best = r
        assert oracle_alpha(spec)[0] == best


def test_gamma_examples():
    assert oracle_gamma(sr_spec(3, 2))[0] == 2
    assert oracle_gamma(sr_spec(2, 5))[0] == 1  # complete graph
    assert oracle_gamma(sr_spec(3, 4))[0] == 3


def test_gamma_witness_dominates():
    for spec in (sr_spec(3, 5), sr_spec(4, 3), csr_spec(3, 4)):
        size, witness = oracle_gamma(spec)
        assert len(witness) == size
        covered = set(witness)
        for d in witness:
            covered.update(neighbors(spec, d))
        assert covered == set(enumerate_vertices(spec))


def test_gamma_matches_exhaustive_tiny():
    for spec in (sr_spec(3, 3), sr_spec(3, 5), csr_spec(3, 3)):
        verts = enumerate_vertices(spec)
        closed = {v: set(neighbors(spec, v)) | {v} for v in verts}
        brute = None
        for r in range(1, len(verts) + 1):
            for combo in itertools.combinations(verts, r):
                if set().union(*(closed[d] for d in combo)) == set(verts):
                    brute = r
                    break
            if brute:
                break
        assert oracle_gamma(spec)[0] == brute


def test_omega_chi_examples():
    assert oracle_omega(csr_spec(4, 2))[0] == 4
    assert oracle_omega(csr_spec(3, 5))[0] == 5
    assert oracle_omega(csr_spec(3, 2))[0] == 4
    assert oracle_chi(csr_spec(3, 2))[0] == 4


@pytest.mark.parametrize(
    "m,n", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 3)]
)
def test_omega_formula_holds_from_three_up(m, n):
    # the clique-number closed form is reliable once both parameters reach 3
    assert oracle_omega(csr_spec(m, n))[0] == max(m, n)


def test_omega_witness_is_clique():
    for spec in (csr_spec(3, 4), csr_spec(4, 3), sr_spec(3, 4)):
        size, witness = oracle_omega(spec)
        assert len(witness) == size
        assert all(adjacent(spec, u, v) for u, v in itertools.combinations(witness, 2))


def test_chi_witness_is_proper():
    for spec in (csr_spec(3, 4), sr_spec(3, 3), csr_spec(4, 2)):
        count, coloring = oracle_chi(spec)
        assert len(set(coloring.values())) == count
        for v in coloring:
            for w in neighbors(spec, v):
                assert coloring[v] != coloring[w]


def test_chi_sanity_bounds():
    for spec in (csr_spec(3, 3), csr_spec(4, 2), sr_spec(3, 4)):
        chi = oracle_chi(spec)[0]
        omega = oracle_omega(spec)[0]
        assert chi >= omega
        assert chi <= spec.degree + 1


def test_bfs_distances():
    spec = csr_spec(4, 2)
    dist = oracle_distances(spec, (0, 0, 0, 0))
    assert max(dist.values()) == 2
    assert dist[(1, 1, 0, 0)] == 1 and dist[(1, 1, 1, 1)] == 2
    assert len(dist) == spec.vertex_count


def test_all_pairs_matches_single_source():
    spec = csr_spec(3, 4)
    verts, matrix = all_pairs_distances(spec)
    index = {v: i for i, v in enumerate(verts)}
    for v in verts[:4]:
        bfs = oracle_distances(spec, v)
        for w in verts:
            assert matrix[index[v], index[w]] == bfs[w]


def test_verify_cycle_rejects_bad_input():
    spec = sr_spec(3, 2)
    verts = enumerate_vertices(spec)
    assert verify_cycle(spec, verts[:4] + [verts[0], verts[4]]) is not None
    reason = verify_cycle(spec, [verts[0], verts[1], verts[0], verts[2], verts[3], verts[4]])
    assert "duplicate" in reason
    assert verify_cycle(spec, verts[:3]) is not None  # misses vertices
    assert "at least 3" in verify_cycle(spec, verts[:2])


def test_verify_cycle_requires_edge():
    spec = sr_spec(2, 2)
    cycle = [(2, 0), (1, 1), (0, 2)]
    assert verify_cycle(spec, cycle, ((2, 0), (1, 1))) is None
    assert verify_cycle(spec, cycle, ((0, 2), (2, 0))) is None
    assert verify_cycle(spec, cycle) is None


def scan_verify_cycle(spec, cycle, required_edge=None):
    """The cycle checker as it was before it checked the whole array at
    once: one `validate_vertex` and one `adjacent` call per entry, a set of
    entries and a set of consecutive pairs.  Kept as the reference."""
    if len(cycle) < 3:
        return f"cycle has {len(cycle)} vertices, needs at least 3"
    seq = []
    for pos, v in enumerate(cycle):
        try:
            seq.append(validate_vertex(spec, v))
        except ValueError as exc:
            return f"invalid vertex at position {pos}: {exc}"
    if len(set(seq)) != len(seq):
        return "duplicate vertex"
    if len(seq) != spec.vertex_count:
        return f"cycle covers {len(seq)} of {spec.vertex_count} vertices"
    for i, v in enumerate(seq):
        w = seq[(i + 1) % len(seq)]
        if not adjacent(spec, v, w):
            return f"consecutive vertices not adjacent at position {i}"
    if required_edge is not None:
        a, b = (tuple(required_edge[0]), tuple(required_edge[1]))
        pairs = {(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))}
        if (a, b) not in pairs and (b, a) not in pairs:
            return "required edge missing from cycle"
    return None


def _dfs_cycle(spec):
    """A Hamiltonian cycle found by plain backtracking (tiny graphs only)."""
    verts = enumerate_vertices(spec)
    path, seen = [verts[0]], {verts[0]}

    def extend():
        if len(path) == len(verts):
            return adjacent(spec, path[-1], path[0])
        for w in neighbors(spec, path[-1]):
            if w not in seen:
                path.append(w)
                seen.add(w)
                if extend():
                    return True
                seen.discard(path.pop())
        return False

    assert extend()
    return path


def _mutations(spec, cycle, rng):
    """(name, entries, required edge) for the valid cycle and each way of
    breaking it, at seeded positions."""
    edge = (cycle[0], cycle[1])
    i, j = sorted(rng.sample(range(len(cycle)), 2))
    v = list(cycle[i])
    swapped = list(cycle)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    top = spec.n if spec.family == "SR" else spec.n - 1
    negative = [-1, v[1] + v[0] + 1] + v[2:]
    out_of_range = [top + 1, v[1] - (top + 1 - v[0])] + v[2:]
    wrong_sum = [v[0] + 1] + v[1:]
    cases = [
        ("valid", cycle, edge),
        ("valid-no-edge", cycle, None),
        ("valid-reversed-edge", cycle, edge[::-1]),
        ("valid-edge-on-wrap", cycle[1:] + cycle[:1], edge),
        ("last-two-swapped", cycle[:-2] + cycle[:-3:-1], edge),
        ("swapped", swapped, edge),
        ("duplicated", cycle[:j] + [cycle[i]] + cycle[j + 1 :], edge),
        ("duplicate-inserted", cycle[:j] + [cycle[i]] + cycle[j:], edge),
        ("dropped", cycle[:i] + cycle[i + 1 :], edge),
        ("dropped-last", cycle[:-1], edge),
        ("negative", cycle[:i] + [tuple(negative)] + cycle[i + 1 :], edge),
        ("out-of-range", cycle[:i] + [tuple(out_of_range)] + cycle[i + 1 :], edge),
        ("wrong-sum", cycle[:i] + [tuple(wrong_sum)] + cycle[i + 1 :], edge),
        ("short-entry", cycle[:i] + [tuple(v[:-1])] + cycle[i + 1 :], edge),
        ("long-entry", cycle[:i] + [tuple(v + [0])] + cycle[i + 1 :], edge),
        ("all-long", [u + (0,) for u in cycle], edge),
        ("missing-edge", cycle, (cycle[0], cycle[2])),
        ("edge-not-a-vertex", cycle, (cycle[0], tuple(wrong_sum))),
        ("edge-wrong-length", cycle, (cycle[0], tuple(v[:-1]))),
        ("too-short", cycle[:2], edge),
    ]
    return cases


CYCLE_SPECS = [sr_spec(2, 5), sr_spec(3, 2), sr_spec(3, 4), sr_spec(4, 3), sr_spec(5, 2), csr_spec(3, 3)]


@pytest.mark.parametrize("spec", CYCLE_SPECS, ids=[s.label() for s in CYCLE_SPECS])
@pytest.mark.parametrize("seed", range(4))
def test_verify_cycle_matches_scan_reference(spec, seed):
    if spec.family == "SR":
        cycle = list(map(tuple, hamiltonian_cycle_sr(spec.m, spec.n).tolist()))
    else:
        cycle = _dfs_cycle(spec)
    for name, entries, edge in _mutations(spec, cycle, random.Random(seed)):
        expected = scan_verify_cycle(spec, entries, edge)
        assert verify_cycle(spec, entries, edge) == expected, name
        if len({len(u) for u in entries}) == 1:  # not ragged: also as one array
            assert verify_cycle(spec, np.array(entries), edge) == expected, name
        if name.startswith("valid"):
            assert expected is None, name
        elif "swapped" not in name:  # a swap can leave a Hamiltonian cycle, as in K_6
            assert expected is not None, name


def test_verify_cycle_names_bad_entries_without_raising():
    spec = sr_spec(3, 2)
    cycle = list(map(tuple, hamiltonian_cycle_sr(3, 2).tolist()))
    reason = verify_cycle(spec, cycle[:3] + [(1, 1)] + cycle[4:])
    assert reason == "invalid vertex at position 3: vertex has 2 coordinates, spec SR(3,2) needs 3"
    scalar = verify_cycle(spec, cycle[:2] + [7] + cycle[3:])
    assert scalar.startswith("invalid vertex at position 2: ")


def test_verify_cycle_rejects_non_integer_coordinates():
    # int() would truncate (2.5, -0.5) to the vertex (2, 0) and pass the cycle
    spec, reason = sr_spec(2, 2), "vertex has a non-integer coordinate: (2.5, -0.5)"
    entries = [(2.5, -0.5), (1, 1), (0, 2)]
    expected = f"invalid vertex at position 0: {reason}"
    assert verify_cycle(spec, entries) == expected
    assert verify_cycle(spec, np.array(entries)) == expected
    with pytest.raises(ValueError, match=rf"^{re.escape(reason)}$"):
        validate_vertex(spec, (2.5, -0.5))
    with pytest.raises(ValueError, match="non-integer coordinate"):
        validate_vertex(spec, np.array([2.0, 0.0]))
    assert validate_vertex(spec, (np.int64(2), np.int64(0))) == (2, 0)
    assert validate_vertex(spec, np.array([1, 1], dtype=np.int64)) == (1, 1)
    integer_rows = np.array([(2, 0), (1, 1), (0, 2)], dtype=np.int64)
    assert verify_cycle(spec, list(map(tuple, integer_rows))) is None


# a Hamiltonian path of SR(3,2) whose ends (0,1,1) and (2,0,0) differ in all
# three coordinates, so only its wrap pair is not an edge
OPEN_PATH_SR32 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_verify_cycle_on_narrow_rows_matches_int64(dtype):
    spec, rows, anchor = sr_spec(4, 3), hamiltonian_cycle_sr(4, 3).astype(dtype), anchor_edge(4, 3)
    first = tuple(rows[0].tolist())
    repeated = rows.copy()
    repeated[7] = rows[3]
    open_path = np.array(OPEN_PATH_SR32, dtype=dtype)
    not_adjacent = "consecutive vertices not adjacent at position"
    missing = "required edge missing from cycle"
    cases = [
        ("valid", spec, rows, anchor, None),
        ("repeated", spec, repeated, anchor, "duplicate vertex"),
        ("interior", sr_spec(3, 2), np.roll(open_path, 2, axis=0), None, f"{not_adjacent} 1"),
        ("wrap", sr_spec(3, 2), open_path, None, f"{not_adjacent} 5"),
        ("missing-edge", spec, rows, (first, tuple(rows[2].tolist())), missing),
        ("edge-below-dtype", spec, rows, (first, (-1, 2, 1, 1)), missing),
        ("edge-above-dtype", spec, rows, ((300, 0, 0, 0), first), missing),
    ]
    for name, spec, narrow, edge, reason in cases:
        assert narrow.dtype == dtype, name
        assert verify_cycle(spec, narrow, edge) == reason, name
        assert verify_cycle(spec, narrow.astype(np.int64), edge) == reason, name


def test_verify_cycle_on_uint16_rows():
    cycle = hamiltonian_cycle_sr(3, 256)  # coordinates up to 256 need uint16
    assert cycle.dtype == np.uint16
    spec, anchor = sr_spec(3, 256), anchor_edge(3, 256)
    assert verify_cycle(spec, cycle, anchor) is None
    assert verify_cycle(spec, cycle.astype(np.int64), anchor) is None


def test_search_caps():
    with pytest.raises(CapExceededError, match=r"^SR\(4,20\) has 1771 vertices, over the search cap 200$"):
        oracle_alpha(sr_spec(4, 20))
    with pytest.raises(CapExceededError, match=r"^CSR\(6,6\) has 7776 vertices, over the matrix cap 5000$"):
        all_pairs_distances(csr_spec(6, 6))


def scan_k_coloring(adj, nv, k, clique):
    """The colouring search as it was before saturations were kept
    incrementally: an O(nv) scan picks each branch vertex.  Kept as the
    reference the faster search must match colour for colour."""
    if len(clique) > k:
        return None
    colors = [-1] * nv
    seen = [0] * nv
    for c, v in enumerate(clique):
        colors[v] = c
        for w in _bits(adj[v]):
            seen[w] |= 1 << c

    def rec(done, max_used):
        if done == nv:
            return True
        v = -1
        sat = -1
        for u in range(nv):
            if colors[u] < 0:
                s = seen[u].bit_count()
                if s > sat:
                    sat, v = s, u
        limit = min(k, max_used + 2)
        avail = ~seen[v] & ((1 << limit) - 1)
        for c in _bits(avail):
            colors[v] = c
            touched = []
            for w in _bits(adj[v]):
                if not seen[w] >> c & 1:
                    seen[w] |= 1 << c
                    touched.append(w)
            if rec(done + 1, max(max_used, c)):
                return True
            colors[v] = -1
            for w in touched:
                seen[w] &= ~(1 << c)
        return False

    if rec(len(clique), len(clique) - 1):
        return colors
    return None


# every graph whose chromatic number the certify benchmark searches
CERTIFY_CHI = [
    sr_spec(3, 6), sr_spec(3, 9), sr_spec(4, 4), sr_spec(4, 5),
    csr_spec(3, 5), csr_spec(3, 7), csr_spec(4, 3), csr_spec(4, 4),
    csr_spec(3, 2), csr_spec(5, 2),
]


# chi of each, as the search capped by a greedy coloring found it; on
# CSR(3,2) and CSR(5,2) that cap returned the greedy coloring itself
CERTIFY_CHI_VALUES = {
    "SR(3,6)": 7, "SR(3,9)": 10, "SR(4,4)": 5, "SR(4,5)": 7, "CSR(3,5)": 5,
    "CSR(3,7)": 7, "CSR(4,3)": 7, "CSR(4,4)": 7, "CSR(3,2)": 4, "CSR(5,2)": 8,
}


@pytest.mark.parametrize("spec", CERTIFY_CHI, ids=[s.label() for s in CERTIFY_CHI])
def test_chi_value_and_coloring(spec):
    count, coloring = oracle_chi(spec)
    assert count == CERTIFY_CHI_VALUES[spec.label()]
    assert sorted(coloring) == enumerate_vertices(spec)
    assert set(coloring.values()) == set(range(count))
    assert all(coloring[v] != coloring[w] for v in coloring for w in neighbors(spec, v))


@pytest.mark.parametrize("spec", CERTIFY_CHI, ids=[s.label() for s in CERTIFY_CHI])
def test_k_coloring_matches_scan_reference(spec):
    # identical colour arrays (or None) for every k oracle_chi tries
    verts, adj = _bit_graph(spec)
    nv = len(verts)
    clique = _max_clique_bits(adj, nv)
    chi = oracle_chi(spec)[0]
    assert chi >= len(clique)
    for k in range(len(clique), chi + 1):
        got = _k_coloring(adj, k, clique)
        assert got == scan_k_coloring(adj, nv, k, clique)
        assert (got is not None) == (k == chi)


def random_graph(seed, sizes=(8, 30), density=(0.15, 0.85)):
    """Adjacency bitmasks of a seeded G(n, p), n and p drawn uniformly from
    the given ranges."""
    rng = random.Random(seed)
    nv = rng.randint(*sizes)
    p = rng.uniform(*density)
    adj = [0] * nv
    for u, w in itertools.combinations(range(nv), 2):
        if rng.random() < p:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
    return adj


@pytest.mark.parametrize("seed", range(40))
def test_k_coloring_matches_scan_on_random_graphs(seed):
    # irregular graphs tie saturations in ways the vertex-transitive
    # CERTIFY_CHI graphs do not; every k from the clique size up to chi
    adj = random_graph(seed)
    nv = len(adj)
    clique = _max_clique_bits(adj, nv)
    for k in range(len(clique), nv + 1):
        got = _k_coloring(adj, k, clique)
        assert got == scan_k_coloring(adj, nv, k, clique)
        if got is not None:
            break
    assert all(got[u] != got[w] for u in range(nv) for w in _bits(adj[u]))


def test_chi_csr_3_10_above_prime_bound():
    # chi >= ceil(N / alpha) because each colour class is independent, and a
    # proper colouring with that many colours exists, so chi(CSR(3,10)) = 12,
    # above the table's p = 11.  Counting k up from omega = 10 instead did
    # not finish in 120 s on a 2-vCPU host; from ceil(N / alpha) it takes 0.13 s.
    spec = csr_spec(3, 10)
    alpha = oracle_alpha(spec)[0]
    assert (alpha, -(-spec.vertex_count // alpha)) == (9, 12)
    count, coloring = oracle_chi(spec, alpha)
    colors = np.array([coloring[v] for v in enumerate_vertices(spec)])
    u, v = indexed_graph(spec).edge_index()
    assert (colors[u] != colors[v]).all()
    assert colors.max() + 1 == count == 12 > default_prime(spec) == 11


@pytest.mark.parametrize("spec", CERTIFY_CHI, ids=[s.label() for s in CERTIFY_CHI])
def test_chi_from_given_alpha_matches_searched_alpha(spec):
    # the alpha build_report passes in and the one oracle_chi searches for
    # itself start k at the same place, so value and colouring agree
    assert oracle_chi(spec, oracle_alpha(spec)[0]) == oracle_chi(spec)


@pytest.mark.parametrize("spec", CERTIFY_CHI, ids=[s.label() for s in CERTIFY_CHI])
def test_chi_from_given_clique_matches_searched_clique(spec):
    # omega's witness is the clique oracle_chi would search for and pre-color
    assert oracle_chi(spec, None, oracle_omega(spec)[1]) == oracle_chi(spec)


def test_analyze_searches_one_clique_per_graph(monkeypatch, capsys):
    # alpha's clique in the complement and omega's, which chi reuses
    calls = count_calls(monkeypatch, oracles, "_max_clique_bits")
    assert main("analyze --family csr -m 4 -n 4 --oracle all".split()) == 0
    row = "quantity name=chi kind=min constructed=- lower=4 upper=5 exact=- oracle=7"
    assert row in capsys.readouterr().out
    assert calls == [2]


def cycle_graph(nv):
    return [1 << (u - 1) % nv | 1 << (u + 1) % nv for u in range(nv)]


def test_k_coloring_forced_pair_adjacent_at_the_root():
    # a triangle with only vertex 0 pre-colored, k = 2: vertices 1 and 2
    # both have color 1 left, and one forced pass would give it to both
    adj = [0b110, 0b101, 0b011]
    assert scan_k_coloring(adj, 3, 2, [0]) is None
    assert _k_coloring(adj, 2, [0]) is None
    assert _k_coloring(adj, 3, [0]) == scan_k_coloring(adj, 3, 3, [0]) == [0, 1, 2]


@pytest.mark.parametrize("nv", [5, 7, 9, 11])
def test_k_coloring_forced_vertex_loses_its_last_color_in_the_same_round(nv):
    # an odd cycle at k = 2, edge 0-1 pre-colored: the forced passes walk
    # both ways round the cycle.  On C5 the pass for color 0 colors vertex 2
    # and leaves vertex 3 with only color 1, which the pass for color 1 then
    # gives to its neighbor 4 as well; longer cycles meet a round later
    adj = cycle_graph(nv)
    assert scan_k_coloring(adj, nv, 2, [0, 1]) is None
    assert _k_coloring(adj, 2, [0, 1]) is None
    got = _k_coloring(adj, 3, [0, 1])
    assert got == scan_k_coloring(adj, nv, 3, [0, 1])


@pytest.mark.parametrize("nv", [4, 6, 10])
def test_k_coloring_forced_passes_color_an_even_cycle(nv):
    # every vertex is forced once the edge 0-1 is colored, so the search
    # never branches
    adj = cycle_graph(nv)
    assert _k_coloring(adj, 2, [0, 1]) == scan_k_coloring(adj, nv, 2, [0, 1]) == [
        u % 2 for u in range(nv)
    ]


@pytest.mark.parametrize("rim", [5, 7])
def test_k_coloring_odd_wheel_fails_one_color_short(rim):
    # hub 0 and rim 1..rim: the hub and any rim edge are a maximum clique,
    # and the hub's color leaves the odd rim two, as on the odd cycle above
    adj = [((1 << rim) - 1) << 1] + [1 | (c << 1) for c in cycle_graph(rim)]
    clique = _max_clique_bits(adj, rim + 1)
    assert len(clique) == 3
    assert _k_coloring(adj, 3, clique) is None
    assert scan_k_coloring(adj, rim + 1, 3, clique) is None
    assert _k_coloring(adj, 4, clique) == scan_k_coloring(adj, rim + 1, 4, clique)


@pytest.mark.parametrize("seed", range(40))
def test_k_coloring_matches_scan_on_larger_random_graphs(seed):
    # 30 to 60 vertices at densities that keep chi within a few colors of
    # the clique size, so the trees run many forced rounds between branches
    adj = random_graph(seed, (30, 60), (0.05, 0.3))
    nv = len(adj)
    clique = _max_clique_bits(adj, nv)
    for k in range(len(clique), nv + 1):
        got = _k_coloring(adj, k, clique)
        assert got == scan_k_coloring(adj, nv, k, clique)
        if got is not None:
            break
    assert all(got[u] != got[w] for u in range(nv) for w in _bits(adj[u]))


# -- the split search -----------------------------------------------------------


@pytest.fixture
def split(monkeypatch):
    # every search splits at its root, across two processes on any host
    monkeypatch.setattr(oracles, "_SPLIT_NODES", 0)
    monkeypatch.setattr(oracles, "_workers", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to the parent, in order."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("spec", CERTIFY_CHI, ids=[s.label() for s in CERTIFY_CHI])
def test_split_k_coloring_matches_scan_reference(spec, split):
    test_k_coloring_matches_scan_reference(spec)


@pytest.mark.parametrize("seed", range(40))
def test_split_k_coloring_matches_scan_on_random_graphs(seed, split):
    test_k_coloring_matches_scan_on_random_graphs(seed)


@pytest.mark.parametrize("seed", range(40))
def test_split_k_coloring_matches_scan_on_larger_random_graphs(seed, split):
    test_k_coloring_matches_scan_on_larger_random_graphs(seed)


def test_split_chi_csr_3_10_row_matches_one_process(monkeypatch, capsys):
    # more than 255 subtrees, so their indices need more than one byte
    argv = "analyze --family csr -m 3 -n 10 --oracle chi".split()
    monkeypatch.setattr(oracles, "_workers", lambda: 1)
    assert main(argv) == 0
    whole = capsys.readouterr().out
    assert "problem quantity=chi detail=oracle 12 above upper bound 11" in whole.splitlines()
    counts = []
    real = parallel.first_success

    def spy(count, *args):
        counts.append(count)
        return real(count, *args)

    monkeypatch.setattr(parallel, "first_success", spy)
    monkeypatch.setattr(oracles, "_SPLIT_NODES", 0)
    monkeypatch.setattr(oracles, "_workers", lambda: 2)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    assert max(counts) > 255


def sr45_k6():
    verts, adj = _bit_graph(sr_spec(4, 5))
    return adj, 6, _max_clique_bits(adj, len(verts))


@pytest.mark.parametrize(
    "die, status",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda: os._exit(0), 0),  # a clean exit with no reply
    ],
    ids=["killed", "no-reply"],
)
def test_split_failed_worker_raises(die, status, split, monkeypatch):
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid == 0:
            die()
        return pid

    monkeypatch.setattr(os, "fork", fork)
    message = rf"^search worker \d+ ended with status {status} and a 0-byte reply$"
    with pytest.raises(RuntimeError, match=message):
        _k_coloring(*sr45_k6())
    assert_no_child_left()


def test_split_oracle_chi_leaves_no_child(forks, monkeypatch):
    monkeypatch.setattr(oracles, "_workers", lambda: 2)
    assert oracle_chi(csr_spec(4, 4))[0] == 7
    assert forks  # the k = 6 refutation was split
    assert_no_child_left()


def test_workers_count_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert oracles._workers() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert oracles._workers() == oracles._MAX_WORKERS
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert oracles._workers() == 5
    monkeypatch.delattr(os, "fork")
    assert oracles._workers() == 1


def test_one_worker_never_forks(forks, monkeypatch):
    monkeypatch.setattr(oracles, "_SPLIT_NODES", 0)
    monkeypatch.setattr(oracles, "_workers", lambda: 1)
    calls = count_calls(monkeypatch, parallel, "first_success")
    adj, k, clique = sr45_k6()
    assert _k_coloring(adj, k, clique) is None
    assert _k_coloring(adj, k + 1, clique) == scan_k_coloring(adj, len(adj), k + 1, clique)
    assert forks == [] and calls == [0]


def test_split_without_fork_searches_in_the_parent(split, monkeypatch):
    tries = []

    def fork():
        tries.append(1)
        raise OSError("fork unavailable")

    monkeypatch.setattr(os, "fork", fork)
    adj, k, clique = sr45_k6()
    assert _k_coloring(adj, k, clique) is None
    assert _k_coloring(adj, k + 1, clique) == scan_k_coloring(adj, len(adj), k + 1, clique)
    assert len(tries) == 2


def test_split_subtree_search_checks_for_a_lower_success(split, monkeypatch):
    # every _CHECK_NODES nodes; run in one process, so the calls are seen here
    checks = []
    real = parallel.first_success

    def in_process(count, search, size, workers):
        def counted(i, check):
            def counting_check():
                checks.append(i)
                check()

            return search(i, counting_check)

        return real(count, counted, size, 1)

    monkeypatch.setattr(parallel, "first_success", in_process)
    adj, k, clique = sr45_k6()
    assert _k_coloring(adj, k, clique) is None
    assert len(checks) > 9547 // (2 * oracles._CHECK_NODES)
    assert checks == sorted(checks)


def test_split_past_the_subtree_cap_searches_in_one_process(split, forks, monkeypatch):
    monkeypatch.setattr(oracles, "_MAX_SUBTREES", 2)
    adj, k, clique = sr45_k6()
    assert _k_coloring(adj, k, clique) is None
    assert _k_coloring(adj, k + 1, clique) == scan_k_coloring(adj, len(adj), k + 1, clique)
    assert forks == []


def test_first_success_is_the_lowest_index_whichever_finishes_first():
    # index 3 succeeds last in time; the lowest success wins all the same
    def search(i, check):
        if i == 3:
            time.sleep(0.05)
        return [i, -i] if i in (3, 5, 9) else None

    assert parallel.first_success(12, search, 2, 2) == (3, [3, -3])
    assert parallel.first_success(12, lambda i, check: None, 2, 2) is None
    assert parallel.first_success(0, search, 2, 2) is None
    assert_no_child_left()


def test_first_success_ends_searches_above_a_success():
    # index 1 would run for a minute, index 0 succeeds at once; whichever
    # process takes 1 stops at its next check
    def search(i, check):
        if i == 0:
            time.sleep(0.05)  # so the other process has taken index 1
            return [0]
        for _ in range(600):
            check()
            time.sleep(0.1)
        return None

    start = time.monotonic()
    assert parallel.first_success(2, search, 1, 2) == (0, [0])
    assert time.monotonic() - start < 20
    assert_no_child_left()


def test_first_success_reaps_workers_on_interrupt(forks):
    parent = os.getpid()

    def search(i, check):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.first_success(4, search, 1, 2)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


def scan_cover_search(unc: int, budget: int, available: int, closed: list[int], nv: int):
    """The set cover search as it was before its count bound was settled
    per budget: every node heaps every available vertex's count.  Kept as
    the reference the faster search must match cover for cover and node
    for node."""
    if unc == 0:
        return []
    if budget == 0:
        return None
    # prefix-sum bound: even the `budget` largest covers cannot reach unc
    covers = heapq.nlargest(
        budget, ((closed[v] & unc).bit_count() for v in _bits(available))
    )
    if sum(covers) < unc.bit_count():
        return None
    # branch on the uncovered vertex with the fewest available dominators
    pick, pick_cands, pick_size = -1, 0, nv + 1
    for u in _bits(unc):
        cands = closed[u] & available
        size = cands.bit_count()
        if size == 0:
            return None
        if size < pick_size:
            pick, pick_cands, pick_size = u, cands, size
            if size == 1:
                break
    # branch i commits to candidate i and bans candidates tried before it,
    # so the branches partition the solution space
    order = sorted(_bits(pick_cands), key=lambda v: -(closed[v] & unc).bit_count())
    avail = available
    for v in order:
        avail &= ~(1 << v)
        sub = scan_cover_search(unc & ~closed[v], budget - 1, avail, closed, nv)
        if sub is not None:
            return [v] + sub
    return None


def count_calls(monkeypatch, module, name):
    """Route module.name, and so its own recursion, through a call counter."""
    inner = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_cover_search_matches_scan(adj, monkeypatch):
    """Run both searches at every cover size oracle_gamma tries on adj, up
    to the first that finds a cover; return that size.  The lower end is
    oracle_gamma's, ceil(N / max |N[v]|)."""
    nv = len(adj)
    closed = [adj[i] | (1 << i) for i in range(nv)]
    full = (1 << nv) - 1
    here = sys.modules[__name__]
    new_calls = count_calls(monkeypatch, oracles, "_cover_search")
    scan_calls = count_calls(monkeypatch, here, "scan_cover_search")
    k = -(-nv // (max(a.bit_count() for a in adj) + 1))
    while True:
        got = oracles._min_cover(closed, k)
        assert got == here.scan_cover_search(full, k, full, closed, nv)
        assert new_calls == scan_calls  # the same tree, node for node
        if got is not None:
            return k
        k += 1


# SR(3,n) and SR(4,n) up to 60 vertices, then every graph whose domination
# number the certify benchmark searches
GAMMA_SPECS = list(dict.fromkeys(
    [sr_spec(3, n) for n in range(10)] + [sr_spec(4, n) for n in range(6)] + [
        sr_spec(3, 6), sr_spec(3, 9), sr_spec(3, 10), sr_spec(4, 4), sr_spec(4, 5),
        csr_spec(3, 5), csr_spec(3, 7), csr_spec(4, 3), csr_spec(4, 4),
    ]
))


# gamma of each, as the search capped by a greedy cover found it; that cap
# returned the greedy cover itself on every SR(3,n) with n <= 9 but 6 and 8,
# every SR(4,n) with n <= 4, and CSR(3,5), CSR(3,7), CSR(4,3) and CSR(4,4)
GAMMA_VALUES = {
    "SR(3,0)": 1, "SR(3,1)": 1, "SR(3,2)": 2, "SR(3,3)": 2, "SR(3,4)": 3,
    "SR(3,5)": 3, "SR(3,6)": 3, "SR(3,7)": 4, "SR(3,8)": 4, "SR(3,9)": 5,
    "SR(4,0)": 1, "SR(4,1)": 1, "SR(4,2)": 2, "SR(4,3)": 2, "SR(4,4)": 4,
    "SR(4,5)": 5, "SR(3,10)": 5, "CSR(3,5)": 3, "CSR(3,7)": 5, "CSR(4,3)": 3,
    "CSR(4,4)": 4,
}


@pytest.mark.parametrize("spec", GAMMA_SPECS, ids=[s.label() for s in GAMMA_SPECS])
def test_gamma_value_and_cover(spec):
    size, cover = oracle_gamma(spec)
    assert size == GAMMA_VALUES[spec.label()] == len(set(cover)) == len(cover)
    assert cover == sorted(cover) and all(validate_vertex(spec, v) == v for v in cover)
    covered = set(cover).union(*(neighbors(spec, d) for d in cover))
    assert covered == set(enumerate_vertices(spec))


@pytest.mark.parametrize("spec", GAMMA_SPECS, ids=[s.label() for s in GAMMA_SPECS])
def test_cover_search_matches_scan_reference(spec, monkeypatch):
    # identical covers (or None) for every k oracle_gamma tries
    adj = _bit_graph(spec)[1]
    assert assert_cover_search_matches_scan(adj, monkeypatch) == oracle_gamma(spec)[0]


@pytest.mark.parametrize("seed", range(40))
def test_cover_search_matches_scan_on_random_graphs(seed, monkeypatch):
    # irregular graphs give uneven cover counts and candidate sets
    assert_cover_search_matches_scan(random_graph(seed), monkeypatch)
