"""Explicit constructions: the residue partition, the equal-pair dominating
set, the recursive Hamiltonian cycle and maximum CSR cliques.

One residue partition serves both the independent sets and the colouring:
its classes are the candidate independent sets, its class index the colour,
and one scan counts the edges inside each class.  The other constructions
return plain rows or tuples.  A clique is (kind, members), checked for
pairwise adjacency as it is built.  Guaranteed properties that fail their
scan raise InternalConsistencyError; family-dependent ones return a verdict.
The equal-pair dominating set D is the rows of the vertex array with equal
first two coordinates; its size and size bound are closed forms here.  It
is verified by `construct dominating-set`, which maps every vertex to its
dominator in one array pass and counts those that are not members of D
equal or adjacent to their vertex.  The recursive Hamiltonian cycle is one
read-only (N, m) array of `np.min_scalar_type(n)` (uint8 for n <= 255,
uint16 beyond) from construction to output, each slice the memoised cycle
of a smaller SR graph rotated by one row.  It is checked in that dtype by
`oracles.verify_cycle` and written a block of rows at a time by `construct
hamiltonian-cycle --out`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    CSR,
    SR,
    GraphSpec,
    Vertex,
    adjacent,
    allocate,
    check_enum_cap,
    format_vertex,
    indexed_graph,
    sr_spec,
    validate_vertex,
)
from .errors import InternalConsistencyError


def smallest_prime_at_least(k: int) -> int:
    """Least prime >= k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    candidate = max(k, 2)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


# Miller-Rabin with these bases is exact below 318665857834031151167461, about
# 3.2 * 10^23, the least strong pseudoprime to all of them (OEIS A014233); far
# above PRIME_LIMIT
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# residue keys are int64, so a prime must stay below 2^63
PRIME_LIMIT = 1 << 63


def _is_prime(p: int) -> bool:
    """Miller-Rabin over _WITNESSES, in O(log p) multiplications; exact for
    every p below 3.18 * 10^23."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _reliable_size(spec: GraphSpec) -> int:
    """Least p that gives the residue-class argument its guarantee.

    On an SR edge the two changed coordinates move by the same amount, which
    can be as large as n, so the key difference (i-j)*(a_i-b_i) is only
    guaranteed nonzero mod p when p > n as well as p >= m.  (With p = n
    prime the corner vertices n*e_i and n*e_j share a key and are adjacent.)
    CSR arithmetic already wraps mod n and carries per-class verdicts, so it
    keeps the weaker p >= max(m, n).
    """
    return max(spec.m, spec.n + 1) if spec.family == SR else max(spec.m, spec.n)


def default_prime(spec: GraphSpec) -> int:
    """Smallest prime that gives the residue-class argument its guarantee."""
    return smallest_prime_at_least(_reliable_size(spec))


# -- the residue partition: independent sets and colouring -----------------------


@dataclass
class ResidueClassFamily:
    """Partition of the vertex set into p classes by residue key, with the
    number of edges inside each class and the lexicographically least such
    edge.  A class with no inside edge is an independent set; the class
    index is a colour, proper when no class has an inside edge.

    Only the non-empty classes are stored, so the cost follows |V|, not p;
    `independent` lists all p classes for callers that print each one.
    """

    spec: GraphSpec
    p: int
    coords: np.ndarray  # the graph's (N, m) vertex rows
    keys: np.ndarray  # class index of each vertex
    sizes: dict[int, int]  # size of each non-empty class, by ascending index
    clashes: dict[int, int]  # edges inside each class that has any
    first_violation: tuple[Vertex, Vertex] | None = None

    def members(self, t: int) -> list[Vertex]:
        """The vertices of class t in canonical order."""
        return list(map(tuple, self.coords[self.keys == t].tolist()))

    @property
    def independent(self) -> list[bool]:
        return [t not in self.clashes for t in range(self.p)]

    @property
    def violations(self) -> int:
        """Number of monochromatic edges."""
        return sum(self.clashes.values())

    @property
    def proper(self) -> bool:
        return not self.clashes

    @property
    def colors_used(self) -> int:
        return len(self.sizes)

    def first_text(self) -> str:
        """' first=u;v' naming the least monochromatic edge, or ''."""
        if self.first_violation is None:
            return ""
        return " first=" + ";".join(format_vertex(v) for v in self.first_violation)

    @property
    def best_index(self) -> int:
        """Index of a largest class (smallest index on ties)."""
        return max(self.sizes, key=self.sizes.get)

    @property
    def best_size(self) -> int:
        return self.sizes[self.best_index]

    def verified_size(self) -> int | None:
        """Size of the largest class that passed the independence scan, or
        None; an empty class (size 0) passes when no other does."""
        verified = [size for t, size in self.sizes.items() if t not in self.clashes]
        if verified:
            return max(verified)
        return 0 if len(self.sizes) < self.p else None


def proper_coloring(
    spec: GraphSpec, p: int | None = None, cap: int | None = None
) -> ResidueClassFamily:
    """Colour every vertex by its residue key mod p (any prime, default per
    family) and count the edges inside each colour class.

    The scan verdict is part of the result: for SR the colouring is always
    proper with the default prime (classes are independent); for CSR, or
    below the default prime, it can fail, and the failure is reported
    rather than raised.
    """
    if p is None:
        p = default_prime(spec)
    if p >= PRIME_LIMIT:
        raise ValueError(f"--prime must be below 2^63, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    graph = indexed_graph(spec, cap)
    keys = graph.coords @ np.arange(1, spec.m + 1) % p
    src, dst = graph.edge_index()
    inside = keys[src] == keys[dst]
    first = None
    if inside.any():
        at = int(np.argmax(inside))
        first = tuple(map(tuple, graph.coords[[src[at], dst[at]]].tolist()))
    return ResidueClassFamily(
        spec, p, graph.coords, keys, _tally(keys), _tally(keys[src[inside]]), first
    )


def _tally(values: np.ndarray) -> dict[int, int]:
    """Occurrences of each distinct value, by ascending value."""
    distinct, counts = np.unique(values, return_counts=True)
    return dict(zip(distinct.tolist(), counts.tolist()))


def residue_independent_family(
    spec: GraphSpec, p: int | None = None, cap: int | None = None
) -> ResidueClassFamily:
    """The residue partition for a p that makes its classes reliable.

    SR classes must all pass the independence scan; a failure there is an
    internal-consistency error.  CSR classes get per-class verdicts.
    """
    least = _reliable_size(spec)
    if p is not None and p < least and _is_prime(p):  # proper_coloring rejects the rest
        raise ValueError(
            f"p={p} is below {least}, the least prime size that makes "
            f"the residue classes of {spec.label()} reliable"
        )
    family = proper_coloring(spec, p, cap)
    if spec.family == SR and not family.proper:
        bad = min(family.clashes)
        raise InternalConsistencyError(
            f"residue class {bad} of {spec.label()} contains an edge; "
            "this contradicts a guaranteed property of the SR family"
        )
    return family


# -- dominating set for SR -----------------------------------------------------


def equal_pair_size(m: int, n: int) -> int:
    """|D| in closed form: sum over i of C(n + m - 3 - 2i, m - 3)."""
    return sum(math.comb(n + m - 3 - 2 * i, m - 3) for i in range(n // 2 + 1))


def equal_pair_bound(m: int, n: int) -> Fraction:
    """The bound |D| <= C(n + m - 1, m - 2) / 2."""
    return Fraction(math.comb(n + m - 1, m - 2), 2)


def equal_pair_dominators(coords: np.ndarray) -> np.ndarray:
    """The dominator in D of each vertex row of coords, as a new (k, m) array:
    the row itself if it is in D, else the adjacent member of D obtained by
    lowering the larger of the first two coordinates to the smaller and
    adding the difference to the third."""
    low = coords[:, :2].min(axis=1)
    out = coords.copy()
    out[:, 2] += coords[:, :2].sum(axis=1) - 2 * low
    out[:, :2] = low[:, None]
    return out


def dominating_set_sr(m: int, n: int, cap: int | None = None) -> np.ndarray:
    """The set D of vertices of SR(m, n) whose first two coordinates are
    equal, one read-only int64 (|D|, m) row per member in lexicographic
    order."""
    if m < 3:
        raise ValueError(f"the equal-pair dominating set needs m >= 3, got m={m}")
    coords = indexed_graph(sr_spec(m, n), cap).coords
    members = coords[coords[:, 0] == coords[:, 1]]
    members.flags.writeable = False
    return members


def conjectured_dominating_set_sr3(n: int, cap: int | None = None) -> tuple[list[Vertex], bool]:
    """The diagonal candidates {(i, i, n-2i)} for SR(3, n) and whether their
    closed neighbourhoods cover the graph.  Only the candidates' neighbour
    rows are built, so the scan costs O(n^2), not the whole graph's O(n^3)
    neighbour array."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    graph = indexed_graph(sr_spec(3, n), cap)
    candidates = [(i, i, n - 2 * i) for i in range(n // 2 + 1)]
    coords = np.array(candidates, dtype=np.int64)
    covered = np.zeros(len(graph.coords), dtype=bool)
    covered[graph.rank(coords)] = True
    covered[graph.neighbour_index(coords)] = True
    return candidates, bool(covered.all())


# -- Hamiltonian cycles for SR ---------------------------------------------------


def anchor_edge(m: int, n: int) -> tuple[Vertex, Vertex]:
    """The distinguished edge the recursion maintains: the all-in-first
    vertex joined to its single-step transfer onto the second coordinate."""
    return (n,) + (0,) * (m - 1), (n - 1, 1) + (0,) * (m - 2)


def _cycle(m: int, n: int, dtype: np.dtype, memo: dict) -> np.ndarray:
    """Hamiltonian cycle of SR(m, n) for m >= 2, n >= 1 (for SR(2, 1) its one
    edge), as rows of dtype with the anchor edge at rows 0-1.

    SR(2, n) is complete and SR(m, 1) is the unit vectors; each is taken in
    order.  Otherwise, per slice of fixed first coordinate n-k the recursion
    lays down the cycle of SR(m-1, k) read from its second row round to its
    first, a Hamiltonian path between the ends of its anchor edge;
    consecutive slices join through the transfer edges between those ends,
    the all-in-first vertex closes the chain, and a final swap of
    coordinates 2 and 3 moves the closing edge onto the anchor.
    """
    if (m, n) in memo:
        return memo[m, n]
    shape = (math.comb(n + m - 1, m - 1), m)
    cycle = allocate(np.zeros, shape, dtype, "Hamiltonian cycle")
    if m == 2:
        cycle[:, 1] = np.arange(n + 1)
        cycle[:, 0] = n - cycle[:, 1]
    elif n == 1:
        np.fill_diagonal(cycle, 1)
    else:
        cycle[0, 0] = n
        start = 1
        for k in range(1, n + 1):
            sub = _cycle(m - 1, k, dtype, memo)
            end = start + len(sub)
            cycle[start:end, 0] = n - k
            cycle[start : end - 1, 1:] = sub[1:]
            cycle[end - 1, 1:] = sub[0]
            start = end
        cycle[:, [1, 2]] = cycle[:, [2, 1]]
    memo[m, n] = cycle
    return cycle


def hamiltonian_cycle_sr(m: int, n: int, cap: int | None = None) -> np.ndarray:
    """The recursive Hamiltonian cycle of SR(m, n) as an open vertex sequence
    (closure implied): one read-only (N, m) row per vertex in the narrowest
    unsigned dtype that holds n (`np.min_scalar_type(n)`), whose first two
    rows are `anchor_edge(m, n)`.

    Rejects the graphs that have no Hamiltonian cycle: m == 1 or n == 0
    (single vertex) and (m, n) == (2, 1) (a single edge); `cap` bounds the
    vertex count, checked before the recursion.
    """
    if m < 1 or n < 0:
        raise ValueError(f"invalid parameters m={m}, n={n}")
    if m == 1 or n == 0:
        raise ValueError(f"no Hamiltonian cycle: SR({m},{n}) is a single vertex")
    if (m, n) == (2, 1):
        raise ValueError("no Hamiltonian cycle: SR(2,1) is a single edge")
    check_enum_cap(sr_spec(m, n), cap)
    cycle = _cycle(m, n, np.min_scalar_type(n), {})
    cycle.flags.writeable = False
    return cycle


# -- maximum cliques in CSR ------------------------------------------------------

COSET_CLIQUE = "coset"
CORE_CLIQUE = "core"


def max_clique_csr(m: int, n: int) -> tuple[str, tuple[Vertex, ...]]:
    """A clique of size max(n, m) in CSR(m, n) as (kind, members): kind
    COSET_CLIQUE for a two-coordinate transfer line (size n), CORE_CLIQUE for
    a shifted set of unit bumps (size m), members in canonical order.

    For n >= m this takes the line through the origin moving weight between
    the first two coordinates; otherwise the base point (n-1, 0, ..., 0)
    bumped by one in each coordinate in turn.  The clique is maximum for
    n >= 3 or n >= m; for n == 2 < m the true clique number can be larger
    (left to the exact oracle).
    """
    if m < 2 or n < 2:
        raise ValueError(f"clique construction needs m >= 2 and n >= 2, got ({m},{n})")
    spec = GraphSpec(CSR, m, n)
    if n >= m:
        members = [((c % n, (-c) % n) + (0,) * (m - 2)) for c in range(n)]
        kind = COSET_CLIQUE
    else:
        base = (n - 1,) + (0,) * (m - 1)
        members = [
            tuple((base[j] + (1 if j == a else 0)) % n for j in range(m)) for a in range(m)
        ]
        kind = CORE_CLIQUE
    members.sort()
    for i in range(len(members)):
        validate_vertex(spec, members[i])
        for j in range(i + 1, len(members)):
            if not adjacent(spec, members[i], members[j]):
                raise InternalConsistencyError(
                    f"clique construction for {spec.label()} produced the "
                    f"non-adjacent pair {members[i]}, {members[j]}"
                )
    return kind, tuple(members)
