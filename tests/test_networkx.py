"""Cross-check against networkx, a second implementation that shares no code
with rooklab: every SR/CSR graph with at most 60 vertices (m <= 14, n <= 14)
is built here from the definition and its clique number, diameter and, for
CSR, spectrum are compared with rooklab's oracle and closed forms; on those
with at most 16 vertices, VF2 self-isomorphism counts are compared with the
automorphism oracle."""

import itertools

import numpy as np
import pytest

from rooklab.automorphisms import oracle_aut_count
from rooklab.core import CSR, SR, GraphSpec
from rooklab.metrics import csr_diameter, sr_diameter
from rooklab.oracles import oracle_omega
from rooklab.spectral import csr_character_spectrum

nx = pytest.importorskip("networkx")

MAX_VERTICES = 60

SPECS = [
    GraphSpec(family, m, n)
    for family in (SR, CSR)
    for m in range(1, 15)
    for n in range(0 if family == SR else 1, 15)
    if GraphSpec(family, m, n).vertex_count <= MAX_VERTICES
]


def definition_graph(spec: GraphSpec):
    """Vertices by filtering all coordinate vectors; an edge wherever two
    vertices differ in exactly two positions."""
    m, n = spec.m, spec.n
    if spec.family == SR:
        verts = [v for v in itertools.product(range(n + 1), repeat=m) if sum(v) == n]
    else:
        verts = [v for v in itertools.product(range(n), repeat=m) if sum(v) % n == 0]
    graph = nx.Graph()
    graph.add_nodes_from(verts)
    graph.add_edges_from(
        (u, v)
        for u, v in itertools.combinations(verts, 2)
        if sum(a != b for a, b in zip(u, v)) == 2
    )
    return graph


def test_spec_matrix_size():
    assert len(SPECS) == 124


@pytest.mark.parametrize("spec", SPECS, ids=[s.label() for s in SPECS])
def test_networkx_cross_check(spec):
    graph = definition_graph(spec)
    assert graph.number_of_nodes() == spec.vertex_count
    assert all(d == spec.degree for _, d in graph.degree())

    clique, size = nx.max_weight_clique(graph, weight=None)
    assert size == len(clique) == oracle_omega(spec)[0]

    if nx.is_connected(graph):
        formula = sr_diameter if spec.family == SR else csr_diameter
        assert nx.diameter(graph) == formula(spec.m, spec.n)

    if spec.family == CSR:
        eig = np.linalg.eigvalsh(nx.to_numpy_array(graph))
        chars = csr_character_spectrum(spec.m, spec.n)
        assert np.max(np.abs(eig - chars)) <= 1e-9


VF2_VERTICES = 16
VF2_STOP = 2000


def test_networkx_automorphism_count():
    # VF2 self-isomorphisms, counted up to VF2_STOP, on every definition
    # graph with at most VF2_VERTICES vertices.  VF2 lists every map, so a
    # larger group only has to exceed the stop.  Isomorphic graphs (the
    # complete graphs SR(m,1), SR(2,n) and CSR(2,n) above all) have equal
    # counts, so VF2 counts each isomorphism class once.
    classes = []  # (graph, VF2 count) for each class met so far
    for spec in SPECS:
        if spec.vertex_count > VF2_VERTICES:
            continue
        graph = definition_graph(spec)
        count = next((c for g, c in classes if nx.is_isomorphic(g, graph)), None)
        if count is None:
            maps = nx.algorithms.isomorphism.GraphMatcher(graph, graph).isomorphisms_iter()
            count = sum(1 for _ in itertools.islice(maps, VF2_STOP))
            classes.append((graph, count))
        got = oracle_aut_count(spec)
        if count == VF2_STOP:
            assert got > VF2_STOP, spec.label()
        else:
            assert got == count, spec.label()
