"""Descriptor maps applied one vertex and one edge at a time: the reference
the tests check the parametrized CSR automorphisms against."""

from rooklab.automorphisms import AutDescriptor
from rooklab.core import GraphSpec, Vertex, adjacent, csr_spec, validate_vertex


def identity_descriptor(m: int, n: int) -> AutDescriptor:
    return AutDescriptor(n, tuple(range(m)), 1 % n, (0,) * m)


def apply_automorphism(desc: AutDescriptor, x: tuple[int, ...]) -> Vertex:
    """Image of the vertex x under the descriptor's map."""
    spec = csr_spec(len(desc.sigma), desc.n)
    x = validate_vertex(spec, x)
    return tuple((desc.c * x[desc.sigma[i]] + desc.d[i]) % desc.n for i in range(len(x)))


def preserves_adjacency(desc: AutDescriptor, spec: GraphSpec, edges) -> bool:
    """Full scan: every given edge maps to an edge.  The image of each vertex
    is computed once; adjacency of images is then a plain coordinate check."""
    images: dict[Vertex, Vertex] = {}
    sigma, c, d, n = desc.sigma, desc.c, desc.d, desc.n
    m = len(sigma)
    for a, b in edges:
        for v in (a, b):
            if v not in images:
                images[v] = tuple((c * v[sigma[i]] + d[i]) % n for i in range(m))
        if not adjacent(spec, images[a], images[b]):
            return False
    return True
