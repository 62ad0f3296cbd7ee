"""CSR automorphisms from the closed-form parametrization, plus an
independent backtracking count of all adjacency-preserving bijections.

Every CSR automorphism (for m, n > 3) is: permute coordinates, scale by a
unit mod n, translate by a zero-sum vector.  The group order is therefore
m! * phi(n) * n^(m-1).  Outside that parameter range the parametrized maps
are still automorphisms but may not exhaust the group, so results carry an
outside-hypothesis flag and the oracle count documents the difference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from . import config
from .core import GraphSpec, Vertex, adjacent, check_cap, csr_spec, validate_vertex
from .oracles import _bit_graph, _bits


@dataclass(frozen=True)
class AutDescriptor:
    """One parametrized automorphism of CSR(m, n).

    Output coordinate i is c * x[sigma[i]] + d[i] mod n; sigma is a
    permutation of 0..m-1, c a unit mod n, d a zero-sum offset vector.
    """

    n: int
    sigma: tuple[int, ...]
    c: int
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.sigma)
        if sorted(self.sigma) != list(range(m)):
            raise ValueError(f"sigma={self.sigma} is not a permutation of 0..{m - 1}")
        if len(self.d) != m:
            raise ValueError(f"offset vector has length {len(self.d)}, expected {m}")
        if not 0 <= self.c < self.n or math.gcd(self.c, self.n) != 1:
            raise ValueError(f"c={self.c} is not a unit mod {self.n}")
        if any(not 0 <= x < self.n for x in self.d):
            raise ValueError(f"offset entries must lie in 0..{self.n - 1}: {self.d}")
        if sum(self.d) % self.n != 0:
            raise ValueError(f"offset vector must sum to 0 mod {self.n}: {self.d}")


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


def _units(n: int) -> list[int]:
    return [c for c in range(n) if math.gcd(c, n) == 1]


def euler_phi(n: int) -> int:
    return len(_units(n))


def group_order_formula(m: int, n: int) -> int:
    """m! * phi(n) * n^(m-1): the parametrized group's order."""
    csr_spec(m, n)
    return math.factorial(m) * euler_phi(n) * n ** (m - 1)


def outside_hypothesis(m: int, n: int) -> bool:
    """True when the closed form is not guaranteed to be the full group."""
    return not (m > 3 and n > 3)


def enumerate_group(m: int, n: int) -> Iterator[AutDescriptor]:
    """All descriptors, each exactly once, in lexicographic order of
    (sigma, c, offset prefix); the last offset entry is determined."""
    csr_spec(m, n)
    for sigma in itertools.permutations(range(m)):
        for c in _units(n):
            for prefix in itertools.product(range(n), repeat=m - 1):
                d = prefix + ((-sum(prefix)) % n,)
                yield AutDescriptor(n, sigma, c, d)


# -- independent count by backtracking -------------------------------------------


def oracle_aut_count(spec: GraphSpec, cap: int | None = None) -> int:
    """Number of adjacency-preserving bijections, counted by backtracking.

    Candidate images are pruned with bitmask adjacency constraints against
    all previously mapped vertices plus common-neighbor-count signatures
    (plain degree refinement is useless on these vertex-transitive graphs).
    """
    limit = config.aut_cap(cap)
    check_cap(spec, limit, "automorphism search")
    verts, adj = _bit_graph(spec, max(limit, spec.vertex_count))
    nv = len(verts)
    if nv == 1:
        return 1
    full = (1 << nv) - 1

    # common-neighbor counts; invariant signatures narrow initial candidates
    common = [[(adj[u] & adj[v]).bit_count() for v in range(nv)] for u in range(nv)]
    signature = []
    for u in range(nv):
        signature.append(tuple(sorted(common[u][v] for v in _bits(adj[u]))))
    sig_mask: dict[tuple, int] = {}
    for u in range(nv):
        sig_mask[signature[u]] = sig_mask.get(signature[u], 0) | (1 << u)

    # map vertices in BFS order so each new vertex is constrained by a
    # mapped neighbor as early as possible
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
    for u in range(nv):  # disconnected leftovers, if any
        if u not in seen:
            order.append(u)

    images = [0] * nv
    count = 0

    def extend(k: int, used: int) -> None:
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
        return

    extend(0, 0)
    return count
