"""Vertex enumeration, adjacency, and the edge-list format."""

import io
import itertools

import pytest

from rooklab.core import (
    GraphSpec,
    adjacent,
    csr_spec,
    enumerate_vertices,
    indexed_graph,
    read_edge_list,
    sr_spec,
    write_edge_list,
)
from rooklab.errors import CapExceededError

from reference import edges, neighbors

# the 6-vertex triangular board and its 12 edges
SR32_VERTICES = [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
SR32_NON_EDGES = {((0, 0, 2), (1, 1, 0)), ((0, 2, 0), (1, 0, 1)), ((0, 1, 1), (2, 0, 0))}

# the 8-vertex cyclic board: complete minus the perfect matching of complements
CSR42_VERTICES = {
    (0, 0, 0, 0), (1, 1, 1, 1), (1, 1, 0, 0), (0, 0, 1, 1),
    (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0),
}


def test_sr32_vertex_set():
    assert enumerate_vertices(sr_spec(3, 2)) == SR32_VERTICES


def test_sr32_edge_set():
    spec = sr_spec(3, 2)
    found = set(edges(spec))
    assert len(found) == 12
    all_pairs = {(u, v) for u, v in itertools.combinations(SR32_VERTICES, 2)}
    assert found == all_pairs - SR32_NON_EDGES


def test_sr42_vertex_count():
    assert sr_spec(4, 2).vertex_count == 10
    assert len(enumerate_vertices(sr_spec(4, 2))) == 10


def test_csr42_vertices_and_edges():
    spec = csr_spec(4, 2)
    verts = enumerate_vertices(spec)
    assert set(verts) == CSR42_VERTICES
    assert len(edges(spec)) == 24
    # each vertex misses exactly its coordinate-wise complement
    for v in verts:
        comp = tuple(1 - x for x in v)
        assert not adjacent(spec, v, comp)
        assert len(neighbors(spec, v)) == 6


def test_adjacency_examples():
    spec = sr_spec(3, 2)
    assert adjacent(spec, (0, 0, 2), (1, 0, 1))
    assert not adjacent(spec, (0, 1, 1), (2, 0, 0))  # three coordinates differ
    assert not adjacent(spec, (0, 1, 1), (0, 1, 1))


def test_adjacency_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        adjacent(sr_spec(3, 2), (0, 2), (1, 0, 1))


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(0, 6)])
def test_sr_enumeration_and_regularity(m, n):
    spec = sr_spec(m, n)
    verts = enumerate_vertices(spec)
    assert len(verts) == spec.vertex_count
    assert verts == sorted(set(verts))
    for v in verts:
        assert sum(v) == n and all(x >= 0 for x in v)
        assert len(neighbors(spec, v)) == spec.degree


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 5)])
def test_csr_enumeration_and_regularity(m, n):
    spec = csr_spec(m, n)
    verts = enumerate_vertices(spec)
    assert len(verts) == spec.vertex_count == n ** (m - 1)
    assert verts == sorted(set(verts))
    for v in verts:
        assert sum(v) % n == 0 and all(0 <= x < n for x in v)
        assert len(neighbors(spec, v)) == spec.degree


def test_adjacency_symmetric_irreflexive_small():
    for spec in (sr_spec(3, 3), csr_spec(3, 3)):
        verts = enumerate_vertices(spec)
        for u in verts:
            assert not adjacent(spec, u, u)
            for v in verts:
                assert adjacent(spec, u, v) == adjacent(spec, v, u)


def test_sr2_is_complete():
    spec = sr_spec(2, 3)
    assert len(edges(spec)) == 6  # K_4


def test_neighbor_lists_sorted_and_adjacent():
    spec = csr_spec(3, 4)
    for v in enumerate_vertices(spec):
        ns = neighbors(spec, v)
        assert ns == sorted(ns)
        assert all(adjacent(spec, v, w) for w in ns)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_vertices(sr_spec(6, 40), cap=100)
    with pytest.raises(CapExceededError):
        indexed_graph(csr_spec(5, 5), cap=10)


def test_degenerate_graphs():
    assert enumerate_vertices(sr_spec(1, 7)) == [(7,)]
    assert enumerate_vertices(sr_spec(4, 0)) == [(0, 0, 0, 0)]
    assert enumerate_vertices(csr_spec(3, 1)) == [(0, 0, 0)]
    assert sr_spec(1, 7).degree == 0
    assert csr_spec(3, 1).degree == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec("XX", 3, 2)
    with pytest.raises(ValueError):
        GraphSpec("SR", 0, 2)
    with pytest.raises(ValueError):
        GraphSpec("CSR", 3, 0)
    with pytest.raises(ValueError):
        GraphSpec("SR", 2, -1)


def test_edge_list_round_trip():
    spec = sr_spec(3, 2)
    buf = io.StringIO()
    count = write_edge_list(spec, buf)
    assert count == 12
    buf.seek(0)
    parsed_spec, parsed_edges = read_edge_list(buf)
    assert parsed_spec == spec
    assert parsed_edges == edges(spec)
    # endpoints canonically ordered, lines sorted
    assert all(a < b for a, b in parsed_edges)
    assert parsed_edges == sorted(parsed_edges)


def test_edge_list_header():
    buf = io.StringIO()
    write_edge_list(csr_spec(4, 2), buf)
    assert buf.getvalue().splitlines()[0] == "# family=CSR m=4 n=2"


def test_edge_list_rejects_missing_header():
    with pytest.raises(ValueError, match="header"):
        read_edge_list(io.StringIO("0,0,2;0,1,1\n"))


@pytest.mark.parametrize(
    "header,missing",
    [("# m=3 n=2", "family"), ("# family=SR n=2", "m"), ("# family=SR m=3", "n")],
)
def test_edge_list_header_missing_field(header, missing):
    with pytest.raises(ValueError, match=f"line 1: header lacks {missing}"):
        read_edge_list(io.StringIO(header + "\n0,0,2;0,1,1\n"))


@pytest.mark.parametrize(
    "line",
    [
        "0,1,1;1,0",  # the right endpoint has 2 coordinates, the spec needs 3
        "0,0,2;0,0,3",  # coordinate sum 3, not 2
        "0,0,2;-1,1,2",  # negative coordinate
        "0,0,2",  # no second endpoint
    ],
)
def test_edge_list_rejects_non_vertex_endpoints(line):
    text = "# family=SR m=3 n=2\n0,0,2;0,1,1\n" + line + "\n"
    with pytest.raises(ValueError, match="^line 3: "):
        read_edge_list(io.StringIO(text))
