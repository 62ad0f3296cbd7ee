"""Descriptor maps applied one vertex at a time, and to every edge of an
edge array at once: the reference the tests check the parametrized CSR
automorphisms against."""

import numpy as np

from rooklab.automorphisms import AutDescriptor
from rooklab.core import Vertex, csr_spec, validate_vertex


def identity_descriptor(m: int, n: int) -> AutDescriptor:
    return AutDescriptor(n, tuple(range(m)), 1 % n, (0,) * m)


def apply_automorphism(desc: AutDescriptor, x: tuple[int, ...]) -> Vertex:
    """Image of the vertex x under the descriptor's map."""
    spec = csr_spec(len(desc.sigma), desc.n)
    x = validate_vertex(spec, x)
    return tuple((desc.c * x[desc.sigma[i]] + desc.d[i]) % desc.n for i in range(len(x)))


def edge_array(edge_list) -> np.ndarray:
    """The vertex-tuple pairs of edge_list as one (E, 2, m) int64 array, to
    build once per graph and check every descriptor against."""
    return np.array(edge_list, dtype=np.int64).reshape(len(edge_list), 2, -1)


def preserves_adjacency(desc: AutDescriptor, edges: np.ndarray) -> bool:
    """Full scan: every edge of the (E, 2, m) array maps to an edge.  Both
    ends of every edge are mapped in one array operation, and each image
    pair must differ in exactly two coordinates, the definition of
    adjacency."""
    images = (desc.c * edges[:, :, list(desc.sigma)] + np.array(desc.d)) % desc.n
    return bool(((images[:, 0] != images[:, 1]).sum(axis=1) == 2).all())
