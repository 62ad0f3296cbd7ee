"""Descriptor maps, group enumeration, and the orbit-stabilizer count."""

import itertools
import math

import pytest

from rooklab.automorphisms import (
    enumerate_group,
    euler_phi,
    group_order_formula,
    oracle_aut_count,
    outside_hypothesis,
)
from rooklab.core import CSR, SR, GraphSpec, csr_spec, enumerate_vertices, sr_spec
from rooklab.errors import CapExceededError
from rooklab.oracles import _bit_graph, _bits

from descriptors import apply_automorphism, edge_array, identity_descriptor, preserves_adjacency
from reference import edges


def test_identity_fixes_everything():
    desc = identity_descriptor(4, 3)
    for v in enumerate_vertices(csr_spec(4, 3)):
        assert apply_automorphism(3, desc, v) == v


def test_coordinate_swap_on_csr42():
    desc = (1, 0, 2, 3), 1, (0, 0, 0, 0)
    assert apply_automorphism(2, desc, (1, 1, 0, 0)) == (1, 1, 0, 0)
    assert apply_automorphism(2, desc, (1, 0, 1, 0)) == (0, 1, 1, 0)
    assert preserves_adjacency(2, desc, edge_array(edges(csr_spec(4, 2))))


def test_preserves_adjacency_rejects_a_non_edge():
    # the identity maps a non-adjacent pair to itself, so the scan must fail
    spec = csr_spec(4, 2)
    non_edge = [((0, 0, 0, 0), (1, 1, 1, 1))]
    assert not preserves_adjacency(2, identity_descriptor(4, 2), edge_array(edges(spec) + non_edge))


def test_apply_produces_valid_vertices_and_preserves_adjacency():
    spec = csr_spec(3, 3)
    edge_list = edge_array(edges(spec))
    samples = [
        ((2, 0, 1), 2, (1, 2, 0)),
        ((1, 2, 0), 1, (2, 2, 2)),
        ((0, 2, 1), 2, (0, 0, 0)),
    ]
    for desc in samples:
        images = {v: apply_automorphism(3, desc, v) for v in enumerate_vertices(spec)}
        assert sorted(images.values()) == enumerate_vertices(spec)  # bijective
        assert preserves_adjacency(3, desc, edge_list)


def test_euler_phi():
    assert [euler_phi(k) for k in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_group_order_values():
    assert group_order_formula(4, 4) == 3072
    assert group_order_formula(5, 5) == 300000
    assert group_order_formula(4, 2) == 192


def test_outside_hypothesis_flag():
    assert outside_hypothesis(4, 2)
    assert outside_hypothesis(3, 5)
    assert not outside_hypothesis(4, 4)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_enumeration_matches_formula(m, n):
    descriptors = list(enumerate_group(m, n))
    assert len(descriptors) == group_order_formula(m, n)
    assert len(set(descriptors)) == len(descriptors)
    for sigma, c, d in descriptors:
        # a permutation, a unit and a zero-sum offset vector of entries mod n
        assert sorted(sigma) == list(range(m))
        assert 0 <= c < n and math.gcd(c, n) == 1
        assert len(d) == m and all(0 <= x < n for x in d) and sum(d) % n == 0


def test_enumeration_order_deterministic():
    first = list(itertools.islice(enumerate_group(3, 2), 5))
    assert first[0] == identity_descriptor(3, 2)
    assert first == list(itertools.islice(enumerate_group(3, 2), 5))


def test_oracle_counts_sr():
    # coordinate permutations only for n > 3; one extra involution at n = 3
    assert oracle_aut_count(sr_spec(3, 4)) == 6
    assert oracle_aut_count(sr_spec(3, 3)) == 12


def test_oracle_count_csr42_documents_gap():
    # outside the hypothesis the parametrized maps undercount: the 8-vertex
    # graph is complete minus a perfect matching with 2^4 * 4! symmetries
    assert oracle_aut_count(csr_spec(4, 2)) == 384
    assert group_order_formula(4, 2) == 192


def test_oracle_count_matches_formula_csr33_fails_hypothesis():
    # m = 3 sits outside the guarantee too; record the actual count
    assert outside_hypothesis(3, 3)
    assert oracle_aut_count(csr_spec(3, 3)) == 1296
    assert group_order_formula(3, 3) == 108


def test_descriptor_maps_injective_small():
    spec = csr_spec(3, 2)
    verts = enumerate_vertices(spec)
    maps = set()
    for desc in enumerate_group(3, 2):
        maps.add(tuple(apply_automorphism(2, desc, v) for v in verts))
    assert len(maps) == group_order_formula(3, 2)


def test_descriptor_maps_injective_csr44():
    # inside the hypothesis the parametrization is faithful: all 3072
    # descriptors induce pairwise distinct vertex maps
    spec = csr_spec(4, 4)
    verts = enumerate_vertices(spec)
    maps = set()
    for desc in enumerate_group(4, 4):
        maps.add(tuple(apply_automorphism(4, desc, v) for v in verts))
    assert len(maps) == 3072


def test_aut_cap():
    with pytest.raises(
        CapExceededError, match=r"^CSR\(5,4\) has 256 vertices, over the automorphism search cap 128$"
    ):
        oracle_aut_count(csr_spec(5, 4))


def leaf_aut_count(spec):
    """The automorphism count as it was before orbit-stabilizer: one
    backtracking tree whose leaves are the automorphisms, counted one by one.
    Kept as the reference the orbit-stabilizer count must match."""
    verts, adj = _bit_graph(spec, spec.vertex_count)
    nv = len(verts)
    if nv == 1:
        return 1
    full = (1 << nv) - 1
    common = [[(adj[u] & adj[v]).bit_count() for v in range(nv)] for u in range(nv)]
    signature = [tuple(sorted(common[u][v] for v in _bits(adj[u]))) for u in range(nv)]
    sig_mask = {}
    for u in range(nv):
        sig_mask[signature[u]] = sig_mask.get(signature[u], 0) | (1 << u)
    order = [0]
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for w in _bits(adj[u]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    order += [u for u in range(nv) if u not in seen]
    images = [0] * nv
    count = 0

    def extend(k, used):
        nonlocal count
        if k == nv:
            count += 1
            return
        v = order[k]
        cand = sig_mask[signature[v]] & ~used & full
        for t in range(k):
            u = order[t]
            if cand == 0:
                return
            if adj[u] >> v & 1:
                cand &= adj[images[t]]
            else:
                cand &= ~adj[images[t]]
        for w in _bits(cand):
            if all(common[order[t]][v] == common[images[t]][w] for t in range(k)):
                images[k] = w
                extend(k + 1, used | (1 << w))

    extend(0, 0)
    return count


# every SR/CSR spec with m >= 3, n >= 2 and at most 36 vertices, except the
# three on which the leaf counter takes seconds to minutes (SR(7,2), SR(8,2)
# and CSR(6,2))
REFERENCE_SPECS = [
    GraphSpec(family, m, n)
    for family in (SR, CSR)
    for m in range(3, 10)
    for n in range(2, 10)
    if GraphSpec(family, m, n).vertex_count <= 36
    and (family, m, n) not in {(SR, 7, 2), (SR, 8, 2), (CSR, 6, 2)}
]


def test_reference_spec_matrix_size():
    assert len(REFERENCE_SPECS) == 20


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=[s.label() for s in REFERENCE_SPECS])
def test_oracle_count_matches_leaf_reference(spec):
    assert oracle_aut_count(spec) == leaf_aut_count(spec)


def candidate_aut_count(spec):
    """The orbit-stabilizer count as it was before generator orbits: levels
    walked first to last, one extension search for every candidate image.
    Kept as the reference the pruned count must match on graphs too large
    for the leaf counter."""
    verts, adj = _bit_graph(spec, spec.vertex_count)
    nv = len(verts)
    common = [[(adj[u] & adj[v]).bit_count() for v in range(nv)] for u in range(nv)]
    signature = [tuple(sorted(common[u][v] for v in _bits(adj[u]))) for u in range(nv)]
    sig_mask = {}
    for u in range(nv):
        sig_mask[signature[u]] = sig_mask.get(signature[u], 0) | (1 << u)
    order, seen = [0], {0}
    for u in order:
        for w in _bits(adj[u]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    order += [u for u in range(nv) if u not in seen]
    images = order.copy()

    def candidates(k, used):
        v = order[k]
        cand = sig_mask[signature[v]] & ~used
        for t in range(k):
            cand &= adj[images[t]] if adj[order[t]] >> v & 1 else ~adj[images[t]]
        for w in _bits(cand):
            if all(common[order[t]][v] == common[images[t]][w] for t in range(k)):
                yield w

    def extends(k, w, used):
        images[k] = w
        used |= 1 << w
        if k + 1 == nv:
            return True
        return any(extends(k + 1, x, used) for x in candidates(k + 1, used))

    count, used = 1, 0
    for k, v in enumerate(order):
        count *= 1 + sum(extends(k, w, used) for w in candidates(k, used) if w != v)
        images[k] = v
        used |= 1 << v
    return count


# every SR/CSR spec with m >= 3, n >= 2 and 37 to 128 vertices, except
# CSR(3, n) for n >= 8, where the candidate reference takes 3 s (n = 8) to
# minutes
CANDIDATE_SPECS = [
    GraphSpec(family, m, n)
    for family in (SR, CSR)
    for m in range(3, 16)
    for n in range(2, 16)
    if 36 < GraphSpec(family, m, n).vertex_count <= 128
    and not (family == CSR and m == 3 and n >= 8)
]


def test_candidate_spec_matrix_size():
    assert len(CANDIDATE_SPECS) == 29


@pytest.mark.parametrize("spec", CANDIDATE_SPECS, ids=[s.label() for s in CANDIDATE_SPECS])
def test_oracle_count_matches_candidate_reference(spec):
    assert oracle_aut_count(spec) == candidate_aut_count(spec)


@pytest.mark.parametrize(
    "spec,order",
    [
        (sr_spec(2, 14), math.factorial(15)),  # K_15
        (sr_spec(2, 100), math.factorial(101)),  # K_101
        (csr_spec(4, 4), 3072),
        (csr_spec(5, 3), 19440),
    ],
    ids=["SR(2,14)", "SR(2,100)", "CSR(4,4)", "CSR(5,3)"],
)
def test_oracle_count_large_groups(spec, order):
    # groups the leaf counter cannot walk in reasonable time
    assert oracle_aut_count(spec) == order
