"""Residue classes, dominating sets, Hamiltonian cycles, cliques, colorings."""

import math

import numpy as np
import pytest

from rooklab.constructions import (
    PRIME_LIMIT,
    _is_prime,
    anchor_edge,
    conjectured_dominating_set_sr3,
    dominating_set_sr,
    equal_pair_bound,
    equal_pair_dominators,
    equal_pair_size,
    hamiltonian_cycle_sr,
    max_clique_csr,
    proper_coloring,
    residue_independent_family,
    smallest_prime_at_least,
)
from rooklab.core import adjacent, csr_spec, enumerate_vertices, sr_spec
from rooklab.errors import CapExceededError
from rooklab.oracles import oracle_alpha, oracle_gamma, oracle_omega, verify_cycle

from reference import neighbors
from residue import residue_key


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(3) == 3
    assert smallest_prime_at_least(6) == 7
    assert smallest_prime_at_least(90) == 97


def trial_division_is_prime(p):
    """Reference: the trial-division test the Miller-Rabin test replaced."""
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_matches_trial_division():
    assert [p for p in range(10**5) if _is_prime(p)] == [
        p for p in range(10**5) if trial_division_is_prime(p)
    ]


@pytest.mark.parametrize(
    "p,prime",
    [
        (2**31 - 1, True),
        (1_000_000_007, True),
        (9_999_999_999_999_937, True),
        (2**61 - 1, True),
        (PRIME_LIMIT - 25, True),  # the largest prime below 2^63
        (561, False),  # Carmichael numbers
        (41041, False),
        (3_215_031_751, False),  # also a strong pseudoprime to bases 2, 3, 5 and 7
        (3_825_123_056_546_413_051, False),  # strong pseudoprime to every prime base <= 31
        ((2**31 - 1) * (2**61 - 1), False),
        (PRIME_LIMIT - 1, False),
    ],
)
def test_is_prime_large(p, prime):
    assert _is_prime(p) is prime


# -- residue classes -------------------------------------------------------------


def test_residue_classes_sr32():
    fam = residue_independent_family(sr_spec(3, 2), p=3)
    assert [fam.members(t) for t in range(fam.p)] == [
        [(0, 0, 2), (1, 1, 0)],
        [(0, 2, 0), (1, 0, 1)],
        [(0, 1, 1), (2, 0, 0)],
    ]
    assert fam.independent == [True, True, True]
    assert fam.best_index == 0 and fam.best_size == 2


def test_residue_classes_partition_and_scan_sr():
    for m in range(2, 5):
        for n in range(0, 5):
            spec = sr_spec(m, n)
            fam = residue_independent_family(spec)
            assert sum(fam.sizes.values()) == spec.vertex_count
            assert all(fam.independent)
            # pigeonhole: largest class carries at least the average
            assert fam.best_size >= -(-spec.vertex_count // fam.p)


def test_residue_classes_sr36_vs_oracle():
    spec = sr_spec(3, 6)
    fam = residue_independent_family(spec)
    assert fam.p == 7
    assert fam.best_size >= math.comb(8, 2) // 7  # 28/7 = 4
    assert oracle_alpha(spec)[0] == 5


def test_residue_classes_csr32_fail_recorded():
    # the 4-vertex complete graph cannot split into 3 independent classes
    fam = residue_independent_family(csr_spec(3, 2), p=3)
    assert not all(fam.independent)
    assert fam.verified_size() == 1


def test_residue_key_weights():
    assert residue_key((0, 0, 2), 3) == (1 * 0 + 2 * 0 + 3 * 2) % 3
    assert residue_key((1, 1, 0), 3) == 0


def test_residue_family_rejects_bad_prime():
    with pytest.raises(ValueError, match="not prime"):
        residue_independent_family(sr_spec(3, 2), p=4)
    with pytest.raises(ValueError, match="below"):
        residue_independent_family(sr_spec(3, 7), p=5)


def test_residue_family_needs_prime_above_n():
    # with p = n = 3 the corner vertices 3*e_i share key 0 and are adjacent,
    # so p = 3 is rejected for SR(3,3); the safe default is 5
    with pytest.raises(ValueError, match="below"):
        residue_independent_family(sr_spec(3, 3), p=3)
    fam = residue_independent_family(sr_spec(3, 3))
    assert fam.p == 5
    assert all(fam.independent)


# -- dominating sets -------------------------------------------------------------


def test_dominating_set_sr32():
    dom = dominating_set_sr(3, 2)
    assert dom.tolist() == [[0, 0, 2], [1, 1, 0]]
    assert len(dom) == 2 == equal_pair_size(3, 2)
    assert equal_pair_dominators(np.array([[2, 0, 0]])).tolist() == [[0, 0, 2]]
    assert dom.flags.writeable is False


def test_dominating_set_rejects_small_m():
    with pytest.raises(ValueError, match="m >= 3"):
        dominating_set_sr(2, 4)


@pytest.mark.parametrize("m,n", [(3, n) for n in range(0, 8)] + [(4, n) for n in range(0, 6)])
def test_dominating_set_witnesses(m, n):
    spec = sr_spec(m, n)
    dom = dominating_set_sr(m, n)
    members = set(map(tuple, dom.tolist()))
    assert len(dom) == equal_pair_size(m, n)
    assert len(dom) <= equal_pair_bound(m, n)
    verts = enumerate_vertices(spec)
    for v, w in zip(verts, map(tuple, equal_pair_dominators(np.array(verts)).tolist())):
        assert w in members
        assert w == v or adjacent(spec, v, w)


def test_conjectured_sr3_small():
    candidates, dominates = conjectured_dominating_set_sr3(2)
    assert candidates == [(0, 0, 2), (1, 1, 0)]
    assert dominates and len(candidates) == 2 == oracle_gamma(sr_spec(3, 2))[0]

    candidates, dominates = conjectured_dominating_set_sr3(4)
    assert dominates and len(candidates) == 3 == oracle_gamma(sr_spec(3, 4))[0]

    candidates, dominates = conjectured_dominating_set_sr3(0)
    assert candidates == [(0, 0, 0)] and dominates


def test_conjectured_sr3_not_always_minimum():
    # the diagonal set dominates but is beaten by gamma = 3 at n = 6; the
    # result records the set, not a claim of minimality
    candidates, dominates = conjectured_dominating_set_sr3(6)
    assert dominates
    assert len(candidates) == 4
    assert oracle_gamma(sr_spec(3, 6))[0] == 3


def neighbors_cover_dominates(n):
    """The reference verdict: the candidates and every `neighbors` entry of
    theirs together hold all of SR(3, n)."""
    spec = sr_spec(3, n)
    candidates = [(i, i, n - 2 * i) for i in range(n // 2 + 1)]
    covered = set(candidates)
    for d in candidates:
        covered.update(neighbors(spec, d))
    return len(covered) == spec.vertex_count


def test_conjectured_verdict_matches_neighbors_cover():
    for n in range(41):
        assert conjectured_dominating_set_sr3(n)[1] == neighbors_cover_dominates(n), n


# -- Hamiltonian cycles ----------------------------------------------------------


def test_hamiltonian_k3():
    cycle = hamiltonian_cycle_sr(2, 2)
    assert len(cycle) == 3
    assert tuple(cycle[0].tolist()) == (2, 0) and tuple(cycle[1].tolist()) == (1, 1)
    assert verify_cycle(sr_spec(2, 2), cycle.tolist(), anchor_edge(2, 2)) is None


def test_hamiltonian_sr32():
    cycle = hamiltonian_cycle_sr(3, 2)
    assert len(cycle) == 6
    reason = verify_cycle(sr_spec(3, 2), cycle.tolist(), anchor_edge(3, 2))
    assert reason is None, reason


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(2, 6) for n in range(1, 6) if (m, n) != (2, 1)],
)
def test_hamiltonian_sweep(m, n):
    cycle = hamiltonian_cycle_sr(m, n)
    reason = verify_cycle(sr_spec(m, n), cycle.tolist(), anchor_edge(m, n))
    assert reason is None, (m, n, reason)


def _unit(m, i):
    return tuple(1 if j == i else 0 for j in range(m))


def _tuple_path(m, k, memo):
    if (m, k) not in memo:
        if m == 2:
            memo[m, k] = [(k, 0)] + [(i, k - i) for i in range(k)]
        elif k == 1:
            memo[m, k] = [_unit(m, 0)] + [_unit(m, i) for i in range(m - 1, 0, -1)]
        else:
            cycle = _tuple_cycle(m, k, memo)
            memo[m, k] = [cycle[0]] + cycle[:0:-1]
    return memo[m, k]


def _tuple_cycle(m, n, memo):
    raw = [(n,) + (0,) * (m - 1)]
    for k in range(1, n + 1):
        raw.extend((n - k,) + u for u in reversed(_tuple_path(m - 1, k, memo)))
    return [(v[0], v[2], v[1]) + v[3:] for v in raw]


def tuple_hamiltonian_cycle(m, n):
    """The recursion as it was before the cycle became one array: tuples
    concatenated per slice and every row copied again for the swap of
    coordinates 2 and 3.  Kept as the reference for the array builder."""
    if m == 2:
        return [(n - i, i) for i in range(n + 1)]
    if n == 1:
        return [_unit(m, i) for i in range(m)]
    return _tuple_cycle(m, n, {})


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(2, 7) for n in range(1, 9) if (m, n) != (2, 1)]
    # both base cases at new sizes, uint16 rows, the certify spec, a deep recursion
    + [(2, 300), (9, 1), (3, 256), (8, 10), (30, 3)],
)
def test_hamiltonian_array_matches_tuple_reference(m, n):
    cycle = hamiltonian_cycle_sr(m, n)
    assert cycle.dtype == np.min_scalar_type(n) and not cycle.flags.writeable
    assert cycle.tolist() == [list(v) for v in tuple_hamiltonian_cycle(m, n)]
    assert len(cycle) == sr_spec(m, n).vertex_count
    assert tuple(map(tuple, cycle[:2].tolist())) == anchor_edge(m, n)


@pytest.mark.parametrize("m,n,msg", [(2, 1, "single edge"), (1, 5, "single vertex"), (3, 0, "single vertex")])
def test_hamiltonian_excluded(m, n, msg):
    with pytest.raises(ValueError, match=msg):
        hamiltonian_cycle_sr(m, n)


@pytest.mark.parametrize("m,n,shape", [(3, 4, r"\(15, 3\)"), (2, 5, r"\(6, 2\)"), (5, 1, r"\(5, 5\)")])
def test_hamiltonian_out_of_memory_is_cap_error(monkeypatch, m, n, shape):
    # the recursion, the m = 2 branch and the n = 1 branch
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(CapExceededError, match=rf"^the Hamiltonian cycle array of shape {shape} "):
        hamiltonian_cycle_sr(m, n)


# -- cliques ---------------------------------------------------------------------


def test_clique_csr42_core():
    kind, members = max_clique_csr(4, 2)
    assert kind == "core"
    assert set(members) == {(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)}
    assert len(members) == 4 == oracle_omega(csr_spec(4, 2))[0]


def test_clique_csr35_coset():
    kind, members = max_clique_csr(3, 5)
    assert kind == "coset" and len(members) == 5
    assert set(members) == {(c, (5 - c) % 5, 0) for c in range(5)}


def test_clique_csr32_below_oracle():
    # the n=2 gap: construction gives max(n, m) = 3 but the graph is K_4
    _, members = max_clique_csr(3, 2)
    assert len(members) == 3
    assert oracle_omega(csr_spec(3, 2))[0] == 4


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 6) for n in range(2, 6)])
def test_clique_pairwise_adjacent(m, n):
    _, members = max_clique_csr(m, n)
    assert len(members) == max(m, n)
    spec = csr_spec(m, n)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            assert adjacent(spec, u, v)


def test_clique_rejects_degenerate():
    with pytest.raises(ValueError):
        max_clique_csr(1, 5)
    with pytest.raises(ValueError):
        max_clique_csr(4, 1)


# -- colorings -------------------------------------------------------------------


def test_coloring_csr32_not_proper():
    result = proper_coloring(csr_spec(3, 2), p=3)
    assert not result.proper and result.violations >= 1


def test_coloring_sr32_proper():
    result = proper_coloring(sr_spec(3, 2), p=3)
    assert result.proper and result.colors_used == 3


def test_coloring_csr45_scan():
    result = proper_coloring(csr_spec(4, 5), p=5)
    # independent edge scan of the color map the returned classes define
    spec = csr_spec(4, 5)
    colors = {v: t for t in range(result.p) for v in result.members(t)}
    clashes = sum(
        1 for v in colors for w in neighbors(spec, v) if v < w and colors[v] == colors[w]
    )
    assert result.proper == (clashes == 0)
    assert result.violations == clashes
    assert result.proper  # p = n prime: the residue key separates neighbors
