"""Descriptor maps applied one vertex at a time, and to every edge of an
edge array at once: the reference the tests check the parametrized CSR
automorphisms against.  A descriptor is the tuple (sigma, c, d) that
`enumerate_group` yields; every helper takes the modulus n beside it."""

import numpy as np

from rooklab.core import Vertex, csr_spec, validate_vertex


def identity_descriptor(m: int, n: int) -> tuple:
    return tuple(range(m)), 1 % n, (0,) * m


def apply_automorphism(n: int, desc: tuple, x: tuple[int, ...]) -> Vertex:
    """Image of the vertex x of CSR(m, n) under the descriptor's map."""
    sigma, c, d = desc
    x = validate_vertex(csr_spec(len(sigma), n), x)
    return tuple((c * x[sigma[i]] + d[i]) % n for i in range(len(x)))


def edge_array(edge_list) -> np.ndarray:
    """The vertex-tuple pairs of edge_list as one (E, 2, m) int64 array, to
    build once per graph and check every descriptor against."""
    return np.array(edge_list, dtype=np.int64).reshape(len(edge_list), 2, -1)


def preserves_adjacency(n: int, desc: tuple, edges: np.ndarray) -> bool:
    """Full scan: every edge of the (E, 2, m) array maps to an edge.  Both
    ends of every edge are mapped in one array operation, and each image
    pair must differ in exactly two coordinates, the definition of
    adjacency."""
    sigma, c, d = desc
    images = (c * edges[:, :, list(sigma)] + np.array(d)) % n
    return bool(((images[:, 0] != images[:, 1]).sum(axis=1) == 2).all())
