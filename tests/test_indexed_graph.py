"""IndexedGraph against the definitions it replaces: the tuple enumeration,
pairwise `adjacent`, per-vertex `neighbors`, list positions, a dense matrix
filled from `neighbors`, and a pairwise scan of every residue class."""

import itertools
import math

import numpy as np
import pytest

from rooklab.constructions import (
    default_prime,
    proper_coloring,
    residue_independent_family,
)
from rooklab.core import (
    CSR,
    SR,
    GraphSpec,
    IndexedGraph,
    _binom_table,
    adjacent,
    csr_spec,
    enumerate_vertices,
    indexed_graph,
    sr_spec,
)
from rooklab.errors import CapExceededError

from reference import iter_vertices, neighbors
from residue import residue_key

# every spec with at most 300 vertices and m, n <= 12: this takes in m = 1,
# SR n = 0 and CSR n in {1, 2}
SPECS = [
    spec
    for family in (SR, CSR)
    for m in range(1, 13)
    for n in range(0 if family == SR else 1, 13)
    if (spec := GraphSpec(family, m, n)).vertex_count <= 300
]


@pytest.mark.parametrize("spec", SPECS, ids=GraphSpec.label)
def test_graph_matches_definitions(spec):
    graph = indexed_graph(spec)
    verts = list(iter_vertices(spec))
    assert list(graph.vertices) == verts
    assert graph.rank(graph.coords).tolist() == list(range(len(verts)))
    assert graph.targets.shape == (len(verts), spec.degree)
    index = {v: i for i, v in enumerate(verts)}
    for i, v in enumerate(verts):
        assert [verts[j] for j in graph.targets[i]] == neighbors(spec, v)
        assert graph.adjacency_bits[i] == sum(1 << index[w] for w in neighbors(spec, v))
    pairs = [
        (i, j)
        for (i, u), (j, w) in itertools.combinations(enumerate(verts), 2)
        if adjacent(spec, u, w)
    ]
    src, dst = graph.edge_index()
    assert list(zip(src.tolist(), dst.tolist())) == pairs


@pytest.mark.parametrize(
    "spec",
    [
        sr_spec(8, 6), csr_spec(5, 7), sr_spec(1, 7), sr_spec(4, 0), csr_spec(3, 1), csr_spec(1, 4),
        sr_spec(14, 3), sr_spec(2, 60),
    ],
    ids=GraphSpec.label,
)
def test_coords_built_in_order(spec):
    graph = IndexedGraph(spec)
    coords = graph.coords
    assert coords.tolist() == [list(v) for v in iter_vertices(spec)]
    assert coords.shape == (spec.vertex_count, spec.m)
    assert coords.dtype == np.int64
    assert coords.flags.writeable is False
    assert graph.rank(coords).tolist() == list(range(spec.vertex_count))


@pytest.mark.parametrize("spec", SPECS, ids=GraphSpec.label)
def test_dense_matrix_bit_identical(spec):
    verts = enumerate_vertices(spec)
    index = {v: i for i, v in enumerate(verts)}
    reference = np.zeros((len(verts), len(verts)))
    for i, v in enumerate(verts):
        for w in neighbors(spec, v):
            reference[i, index[w]] = 1.0
    mat = indexed_graph(spec).dense()
    assert mat.dtype == reference.dtype and mat.tobytes() == reference.tobytes()


def test_rank_sr30_4():
    # packed base-(n+1) keys would overflow int64 here; the closed form does not
    graph = IndexedGraph(sr_spec(30, 4))
    assert graph.rank(graph.coords).tolist() == list(range(len(graph.vertices)))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 16])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_binom_table_matches_comb(m, n):
    table = _binom_table(n, m)
    assert table.shape == (n + 1, m) and table.dtype == np.int64
    assert table.tolist() == [[math.comb(r + k, k) for k in range(m)] for r in range(n + 1)]


def test_arrays_read_only_and_cached():
    spec = sr_spec(3, 2)
    graph = indexed_graph(spec)
    assert indexed_graph(spec) is graph
    assert indexed_graph(spec).adjacency_bits is graph.adjacency_bits  # built once
    for array in (graph.coords, graph.targets):
        with pytest.raises(ValueError):
            array[0, 0] = 7


def test_dense_out_of_memory_is_cap_error(monkeypatch):
    graph = IndexedGraph(sr_spec(3, 2))
    graph.targets  # built before np.zeros stops working

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(CapExceededError, match=r"dense adjacency array of shape \(6, 6\)"):
        graph.dense()


def _pairwise_scan(spec, p):
    """Per-class verdicts, the monochromatic edge count and the least such
    edge, found by testing every pair in each class with `adjacent`."""
    classes = [[] for _ in range(p)]
    for v in enumerate_vertices(spec):
        classes[residue_key(v, p)].append(v)
    independent, inside = [], []
    for cls in classes:
        found = [(u, w) for u, w in itertools.combinations(cls, 2) if adjacent(spec, u, w)]
        independent.append(not found)
        inside.extend(found)
    return classes, independent, len(inside), min(inside, default=None)


def _primes_for(spec):
    least = max(spec.m, spec.n + 1) if spec.family == SR else max(spec.m, spec.n)
    return sorted({2, 3, 5, 7, default_prime(spec)}), least


@pytest.mark.parametrize("spec", SPECS, ids=GraphSpec.label)
def test_residue_scan_matches_pairwise_reference(spec):
    primes, least = _primes_for(spec)
    for p in primes:
        classes, independent, count, first = _pairwise_scan(spec, p)
        coloring = proper_coloring(spec, p)
        assert (coloring.violations, coloring.first_violation) == (count, first), p
        assert coloring.proper == (count == 0)
        assert coloring.colors_used == sum(1 for c in classes if c), p
        if p >= least:
            family = residue_independent_family(spec, p)
            assert [family.members(t) for t in range(p)] == classes
            assert family.sizes == {t: len(c) for t, c in enumerate(classes) if c}
            assert family.independent == independent
