"""Cross-check against networkx, a second implementation that shares no code
with rooklab: every SR/CSR graph with at most 60 vertices (m <= 14, n <= 14)
is built here from the definition and its clique number, diameter and, for
CSR, spectrum are compared with rooklab's oracle and closed forms."""

import itertools

import numpy as np
import pytest

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
