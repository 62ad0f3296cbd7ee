"""IndexedGraph against the definitions it replaces: the tuple enumeration,
pairwise `adjacent`, per-vertex `neighbors`, list positions, the per-move
neighbour index, a dense matrix filled from `neighbors`, the edge-list text
of `edges`, and a pairwise scan of every residue class."""

import io
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
    write_edge_list,
)
from rooklab.errors import CapExceededError

import reference
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


# beyond SPECS: up to 4,096 vertices, long and short vectors, and m = 1
LARGER = [
    sr_spec(7, 9), sr_spec(7, 7), sr_spec(12, 4), sr_spec(14, 3), sr_spec(3, 40), sr_spec(2, 60),
    sr_spec(1, 5), csr_spec(7, 4), csr_spec(4, 12), csr_spec(6, 5), csr_spec(5, 2),
    csr_spec(2, 9), csr_spec(3, 1), csr_spec(1, 4),
]


@pytest.mark.parametrize("spec", LARGER, ids=GraphSpec.label)
def test_neighbour_index_matches_per_move_builder(spec):
    graph = IndexedGraph(spec)
    assert graph.rank(graph.coords).tolist() == list(range(spec.vertex_count))
    for rows in (graph.coords, graph.coords[1::3], graph.coords[::-7]):
        expected = reference.neighbour_index(graph, rows)
        got = graph.neighbour_index(rows)
        assert got.shape == expected.shape == (len(rows), spec.degree)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "spec", [sr_spec(5, 6), sr_spec(3, 40), sr_spec(12, 4), sr_spec(2, 1)], ids=GraphSpec.label
)
def test_neighbour_index_of_moves_that_empty_a_coordinate(spec):
    # rows with all their weight in one or two coordinates: moving all of v_i
    # backwards leaves L_t = 0 after the move, which reads the r = -1 row of
    # the binomial table
    m, n = spec.m, spec.n
    corners = [[n if k == i else 0 for k in range(m)] for i in range(m)]
    pairs = [
        [a if k == 0 else n - a if k == i else 0 for k in range(m)]
        for i in range(1, m)
        for a in range(n + 1)
    ]
    rows = np.array(corners + pairs, dtype=np.int64)
    graph = IndexedGraph(spec)
    assert np.array_equal(graph.neighbour_index(rows), reference.neighbour_index(graph, rows))
    assert np.array_equal(graph.rank(rows), [graph.vertices.index(tuple(r)) for r in rows.tolist()])


@pytest.mark.parametrize("spec", SPECS, ids=GraphSpec.label)
def test_edge_list_text_matches_reference(spec):
    got, expected = io.StringIO(), io.StringIO()
    count = write_edge_list(spec, got)
    assert count == reference.write_edge_list(spec, expected)
    assert got.getvalue() == expected.getvalue()


@pytest.mark.parametrize(
    "spec", [sr_spec(1, 9), csr_spec(1, 6), sr_spec(4, 0), csr_spec(3, 1)], ids=GraphSpec.label
)
def test_edge_list_of_a_graph_without_edges(spec):
    # one vertex, whose source block is empty: the text is the header alone
    out = io.StringIO()
    assert write_edge_list(spec, out) == 0
    assert out.getvalue() == f"# family={spec.family} m={spec.m} n={spec.n}\n"


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
