"""The brute-force solvers against closed forms and tiny exhaustive checks."""

import heapq
import itertools
import os
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from rooklab import oracles
from rooklab.cli import main
from rooklab.constructions import anchor_edge, default_prime, hamiltonian_cycle_sr
from rooklab.core import (
    IndexedGraph,
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
    _clique_orbit,
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


# -- one process ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [sr_spec(4, 5), csr_spec(4, 4)], ids=["SR(4,5)", "CSR(4,4)"])
def test_chi_searches_in_one_process(spec, monkeypatch):
    # the k = 6 refutation, the longest search certify runs, forks nothing
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    count, coloring = oracle_chi(spec)
    assert count == 7
    assert set(coloring.values()) == set(range(7))
    assert all(coloring[v] != coloring[w] for v in coloring for w in neighbors(spec, v))


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


# -- the pre-colored clique's symmetry -----------------------------------------


def planted_graph(seed, orbit_size):
    """Adjacency bitmasks of a seeded random graph, a clique among the
    vertices its planted automorphisms fix, and one moved vertex u with its
    orbit's other vertices.  Blocks of orbit_size vertices (a, b, c, d)
    move: a <-> b, c <-> d under one involution, and for orbit_size 4 also
    a <-> c, b <-> d under a second that commutes with it.  Each orbit of
    vertex pairs under that group is all edges or none."""
    rng = random.Random(seed)
    fixed, blocks = rng.randint(2, 8), rng.randint(1, 4 if orbit_size == 4 else 8)
    nv = fixed + orbit_size * blocks
    label = list(range(nv))
    rng.shuffle(label)
    swaps = [(1, 0)] if orbit_size == 2 else [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    group = [list(range(nv))]
    for swap in swaps:
        g = list(range(nv))
        for b in range(blocks):
            base = fixed + orbit_size * b
            for i in range(orbit_size):
                g[label[base + i]] = label[base + swap[i]]
        group.append(g)
    p = rng.uniform(0.2, 0.8)
    adj = [0] * nv
    for x, y in itertools.combinations(range(nv), 2):
        if not adj[x] >> y & 1 and rng.random() < p:
            for g in group:
                adj[g[x]] |= 1 << g[y]
                adj[g[y]] |= 1 << g[x]
    clique = sorted(rng.sample(label[:fixed], rng.randint(1, min(fixed, 4))))
    for x, y in itertools.combinations(clique, 2):
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    u = label[fixed + orbit_size * rng.randrange(blocks)]
    return adj, clique, 1 << u, sum(1 << g[u] for g in group[1:])


@pytest.mark.parametrize("orbit_size", [2, 4])
@pytest.mark.parametrize("seed", range(40))
def test_k_coloring_with_planted_orbit_agrees_with_scan(seed, orbit_size):
    # the orbit's constraint may change which colouring is found, never
    # whether one exists; every k from the clique size to the first success
    for offset in range(5):
        adj, clique, u_bit, orbit = planted_graph(100 * seed + offset, orbit_size)
        nv = len(adj)
        assert orbit.bit_count() == orbit_size - 1 and not u_bit & orbit
        for k in range(len(clique), nv + 1):
            got = _k_coloring(adj, k, clique, (u_bit, orbit))
            assert (got is None) == (scan_k_coloring(adj, nv, k, clique) is None)
            if got is not None:
                break
        assert all(got[x] != got[y] for x in range(nv) for y in _bits(adj[x]))
        assert [got[v] for v in clique] == list(range(len(clique)))


# every SR and CSR graph with 3 to 64 vertices and m >= 3 (m = 2 is
# complete) but two whose clique no map fixes, so both searches are the same
# call there: SR(6,3), whose k = 7 colouring takes about 3 s, and SR(10,2),
# whose chi search does not finish in 20 s
SLOW_WITHOUT_ORBIT = [sr_spec(6, 3), sr_spec(10, 2)]
SMALL_SPECS = [
    spec
    for family in (sr_spec, csr_spec)
    for m in range(3, 12)
    for n in range(1, 40)
    if 3 <= (spec := family(m, n)).vertex_count <= 64 and spec not in SLOW_WITHOUT_ORBIT
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=[s.label() for s in SMALL_SPECS])
def test_chi_with_orbit_matches_count_up_without(spec):
    verts, adj = _bit_graph(spec)
    clique = _max_clique_bits(adj, len(verts))
    alpha = oracle_alpha(spec)[0]
    k = max(len(clique), -(-len(verts) // alpha))
    while _k_coloring(adj, k, clique) is None:
        k += 1
    count, coloring = oracle_chi(spec, alpha, [verts[i] for i in clique])
    assert count == k
    assert all(coloring[v] != coloring[w] for v in coloring for w in neighbors(spec, v))


def clique_orbit(spec, graph=None):
    """_clique_orbit of the clique oracle_chi pre-colors, as vertices."""
    verts, adj = _bit_graph(spec)
    clique = _max_clique_bits(adj, len(verts))
    u_bit, orbit = _clique_orbit(graph or indexed_graph(spec), clique)
    return [verts[i] for i in _bits(u_bit)], [verts[i] for i in _bits(orbit)]


def test_clique_orbit_pins():
    # SR(4,5): the swap of the first two coordinates fixes the clique
    # (0,0,j,5-j); CSR(4,4): that swap and 3x with the last two swapped fix
    # the clique (0,0,j,-j) and generate a 4-vertex orbit
    assert clique_orbit(sr_spec(4, 5)) == ([(0, 1, 0, 4)], [(1, 0, 0, 4)])
    assert clique_orbit(csr_spec(4, 4)) == (
        [(0, 1, 0, 3)], [(0, 3, 1, 0), (1, 0, 0, 3), (3, 0, 1, 0)]
    )


@pytest.mark.parametrize(
    "spec",
    [csr_spec(4, 3), csr_spec(5, 2), csr_spec(5, 3), sr_spec(3, 6), sr_spec(3, 9)]
    + SLOW_WITHOUT_ORBIT,
    ids=lambda s: s.label(),
)
def test_clique_orbit_none_where_no_map_fixes_the_clique(spec):
    assert clique_orbit(spec) == ([], [])


def test_clique_orbit_drops_a_map_the_adjacency_refutes():
    # the same coordinates with edges a-b and c-d rewired to a-d and c-b, a
    # the vertex the coordinate swap moves: the proposal is the same map,
    # and only the neighbour rows show it is no longer an automorphism.  The
    # rewired graph is a fresh IndexedGraph, so no map checked before the
    # rewiring is cached on it
    spec = sr_spec(4, 5)
    graph = IndexedGraph(spec)
    assert clique_orbit(spec, graph) == ([(0, 1, 0, 4)], [(1, 0, 0, 4)])
    swap = graph.rank(graph.coords[:, [1, 0, 2, 3]])
    assert any(np.array_equal(p, swap) for p in graph.generators)
    rows = [set(row) for row in graph.targets.tolist()]
    a = graph.vertices.index((0, 1, 0, 4))
    b, c, d = next(
        (b, c, d)
        for b in sorted(rows[a])
        for c in range(len(rows))
        for d in sorted(rows[c])
        if len({a, b, c, d}) == 4 and d not in rows[a] and b not in rows[c]
    )
    rows[a] ^= {b, d}
    rows[b] ^= {a, c}
    rows[c] ^= {b, d}
    rows[d] ^= {a, c}
    rewired = IndexedGraph(spec)
    rewired.targets = np.array([sorted(row) for row in rows])
    assert not any(np.array_equal(p, swap) for p in rewired.generators)
    assert_maps_and_orbits(rewired, rows)
    assert clique_orbit(spec, rewired) == ([], [])


# -- checked maps and orbital branching ------------------------------------------


def assert_maps_and_orbits(graph, rows):
    """Each checked map is a permutation that moves a vertex and carries the
    neighbour sets `rows` onto their images' sets; the orbits partition the
    vertices, each ascending, listed by lowest vertex, and each is the set
    the maps reach from its lowest vertex."""
    nv = len(rows)
    maps = [p.tolist() for p in graph.generators]
    for p in maps:
        assert sorted(p) == list(range(nv)) and p != list(range(nv))
        assert all({p[w] for w in rows[v]} == rows[p[v]] for v in range(nv))
    orbits = graph.orbits
    assert sorted(v for orbit in orbits for v in orbit) == list(range(nv))
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
    for orbit in orbits:
        assert orbit == sorted(orbit)
        reached, todo = {orbit[0]}, [orbit[0]]
        while todo:
            v = todo.pop()
            for w in {p[v] for p in maps} - reached:
                reached.add(w)
                todo.append(w)
        assert reached == set(orbit)


def plain_alpha(adj):
    """A maximum independent set by the clique search with a plain root."""
    nv = len(adj)
    full = (1 << nv) - 1
    return _max_clique_bits([full & ~adj[i] & ~(1 << i) for i in range(nv)], nv)


def plain_gamma(adj):
    """The domination number by `_min_cover` counted up as oracle_gamma
    counts it, without its orbital root."""
    closed = [a | (1 << i) for i, a in enumerate(adj)]
    k = -(-len(adj) // max(c.bit_count() for c in closed))
    while oracles._min_cover(closed, k) is None:
        k += 1
    return k


def oracle_witness(oracle, spec):
    """oracle(spec)'s size and witness as a set of vertex indices, checked
    to hold that many vertices, and the neighbour rows to check it over."""
    graph = indexed_graph(spec)
    index = {v: i for i, v in enumerate(graph.vertices)}
    size, witness = oracle(spec)
    picked = {index[v] for v in witness}
    assert size == len(picked) == len(witness)
    return size, picked, graph.targets.tolist()


DEGENERATE_SPECS = [
    sr_spec(1, 0), sr_spec(1, 4), sr_spec(3, 0), sr_spec(5, 0),
    csr_spec(3, 1), csr_spec(5, 1), csr_spec(2, 2), csr_spec(3, 2),
]


@pytest.mark.parametrize("spec", DEGENERATE_SPECS, ids=[s.label() for s in DEGENERATE_SPECS])
def test_checked_maps_and_orbits_on_degenerate_specs(spec):
    # one vertex, K_2 and K_4; the orbital tests below take their values
    graph = IndexedGraph(spec)
    index = {v: i for i, v in enumerate(graph.vertices)}
    rows = [{index[w] for w in neighbors(spec, v)} for v in graph.vertices]
    assert_maps_and_orbits(graph, rows)
    assert oracle_alpha(spec)[0] == oracle_gamma(spec)[0] == 1


LARGE_COMPLETE_SPECS = [sr_spec(199, 1), csr_spec(2, 199)]


@pytest.mark.parametrize("spec", LARGE_COMPLETE_SPECS, ids=[s.label() for s in LARGE_COMPLETE_SPECS])
def test_orbital_searches_on_large_complete_graphs_stay_small(spec):
    # K_199 under the search cap, from 199 positions or 198 units mod 199:
    # the maps are checked one at a time, so the peak is a few (N, degree)
    # arrays, not one per proposed map
    graph = indexed_graph(spec)
    graph.adjacency_bits
    tracemalloc.start()
    try:
        assert oracle_alpha(spec)[0] == oracle_gamma(spec)[0] == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.orbits) == 1
    assert peak < 16_000_000


def orbital_specs(slow):
    """The degenerate specs, then every SR and CSR graph with m >= 3, n >= 2
    and N <= 200 (m = 2 or n = 1 gives a complete graph or one vertex) but
    the labels in slow."""
    return list(dict.fromkeys(DEGENERATE_SPECS + [
        spec
        for family in (sr_spec, csr_spec)
        for m in range(3, 20)
        for n in range(2, 19)
        if (spec := family(m, n)).vertex_count <= 200 and spec.label() not in slow
    ]))


# left out: the graphs on which the plain search takes more than about 2 s
ORBITAL_ALPHA_SPECS = orbital_specs({
    "SR(3,17)", "SR(3,18)", "SR(4,8)", "SR(6,4)", "SR(8,3)", "SR(9,3)", "SR(16,2)",
    "SR(17,2)", "SR(18,2)", "SR(19,2)", "CSR(3,12)", "CSR(3,14)",
})
ORBITAL_GAMMA_SPECS = orbital_specs({
    "SR(3,15)", "SR(3,16)", "SR(3,17)", "SR(3,18)", "SR(4,7)", "SR(4,8)", "SR(5,5)",
    "SR(6,4)", "SR(8,3)", "SR(9,3)", "SR(14,2)", "SR(15,2)", "SR(16,2)", "SR(17,2)",
    "SR(18,2)", "SR(19,2)", "CSR(3,13)", "CSR(8,2)",
})


@pytest.mark.parametrize("spec", ORBITAL_ALPHA_SPECS, ids=[s.label() for s in ORBITAL_ALPHA_SPECS])
def test_orbital_alpha_matches_plain_search(spec):
    size, picked, rows = oracle_witness(oracle_alpha, spec)
    assert size == len(plain_alpha(_bit_graph(spec)[1]))
    assert not any(w in picked for v in picked for w in rows[v])


@pytest.mark.parametrize("spec", ORBITAL_GAMMA_SPECS, ids=[s.label() for s in ORBITAL_GAMMA_SPECS])
def test_orbital_gamma_matches_plain_search(spec):
    size, picked, rows = oracle_witness(oracle_gamma, spec)
    assert size == plain_gamma(_bit_graph(spec)[1])
    assert picked.union(*(rows[v] for v in picked)) == set(range(len(rows)))
