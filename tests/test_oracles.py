"""The brute-force solvers against closed forms and tiny exhaustive checks."""

import itertools
import random

import pytest

from rooklab.core import adjacent, csr_spec, enumerate_vertices, neighbors, sr_spec
from rooklab.errors import CapExceededError
from rooklab.oracles import (
    _bit_graph,
    _bits,
    _k_coloring,
    _max_clique_bits,
    all_pairs_distances,
    oracle_alpha,
    oracle_chi,
    oracle_distances,
    oracle_gamma,
    oracle_omega,
    verify_cycle,
)


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
    assert not verify_cycle(spec, verts[:4] + [verts[0], verts[4]]).valid
    verdict = verify_cycle(spec, [verts[0], verts[1], verts[0], verts[2], verts[3], verts[4]])
    assert not verdict.valid and "duplicate" in verdict.reason
    assert not verify_cycle(spec, verts[:3]).valid  # misses vertices
    short = verify_cycle(spec, verts[:2])
    assert not short.valid and "at least 3" in short.reason


def test_verify_cycle_requires_edge():
    spec = sr_spec(2, 2)
    cycle = [(2, 0), (1, 1), (0, 2)]
    assert verify_cycle(spec, cycle, ((2, 0), (1, 1))).valid
    assert verify_cycle(spec, cycle, ((0, 2), (2, 0))).valid
    ok = verify_cycle(spec, cycle)
    assert ok.valid and ok.reason is None


def test_search_caps():
    with pytest.raises(CapExceededError):
        oracle_alpha(sr_spec(4, 20), cap=50)
    with pytest.raises(CapExceededError):
        all_pairs_distances(csr_spec(6, 6), cap=100)


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


@pytest.mark.parametrize("spec", CERTIFY_CHI, ids=[s.label() for s in CERTIFY_CHI])
def test_k_coloring_matches_scan_reference(spec):
    # identical colour arrays (or None) for every k oracle_chi tries
    verts, adj = _bit_graph(spec)
    nv = len(verts)
    nbrs = [list(_bits(a)) for a in adj]
    clique = _max_clique_bits(adj, nv)
    chi = oracle_chi(spec)[0]
    assert chi >= len(clique)
    for k in range(len(clique), chi + 1):
        got = _k_coloring(nbrs, k, clique)
        assert got == scan_k_coloring(adj, nv, k, clique)
        assert (got is not None) == (k == chi)


def random_graph(seed):
    """Adjacency bitmasks of a seeded G(n, p) with n in 8..30."""
    rng = random.Random(seed)
    nv = rng.randint(8, 30)
    p = rng.uniform(0.15, 0.85)
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
    nbrs = [list(_bits(a)) for a in adj]
    clique = _max_clique_bits(adj, nv)
    for k in range(len(clique), nv + 1):
        got = _k_coloring(nbrs, k, clique)
        assert got == scan_k_coloring(adj, nv, k, clique)
        if got is not None:
            break
    assert all(got[u] != got[w] for u in range(nv) for w in nbrs[u])
