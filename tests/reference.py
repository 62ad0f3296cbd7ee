"""Tuple-at-a-time vertex enumeration, neighbour lists and edge lists,
written from the definitions, and the per-move neighbour-index builder: the
references the array builders, neighbour indices and edge-list writer of
`rooklab.core` are tested against.  Also the zero-partition checker that
`rooklab.metrics` witnesses are tested with, and the popcount-layer fill its
subset DP tables are tested against."""

from typing import IO, Iterator

import numpy as np

from rooklab.core import SR, GraphSpec, IndexedGraph, Vertex, format_vertex, validate_vertex


def iter_vertices(spec: GraphSpec) -> Iterator[Vertex]:
    """Yield all vertices in lexicographic order."""
    if spec.family == SR:
        yield from _iter_compositions(spec.m, spec.n)
    else:
        yield from _iter_csr(spec.m, spec.n)


def _iter_compositions(m: int, n: int) -> Iterator[Vertex]:
    # weak compositions of n into m parts, lexicographic
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _iter_compositions(m - 1, n - first):
            yield (first,) + rest


def _iter_csr(m: int, n: int) -> Iterator[Vertex]:
    # free choice of the first m-1 residues fixes the last; lexicographic in
    # the prefix is lexicographic in the full vector
    if m == 1:
        yield (0,)
        return
    prefix = [0] * (m - 1)
    while True:
        yield tuple(prefix) + ((-sum(prefix)) % n,)
        i = m - 2
        while i >= 0 and prefix[i] == n - 1:
            prefix[i] = 0
            i -= 1
        if i < 0:
            return
        prefix[i] += 1


def neighbors(spec: GraphSpec, v: tuple[int, ...]) -> list[Vertex]:
    """Sorted neighbour list of v: every transfer of delta from coordinate i
    to coordinate j, taken mod n for CSR and kept nonnegative for SR."""
    v = validate_vertex(spec, v)
    out: set[Vertex] = set()
    for i in range(spec.m):
        for j in range(spec.m):
            if i == j:
                continue
            for delta in range(1, spec.n + 1):
                w = list(v)
                w[i] -= delta
                w[j] += delta
                if spec.family == SR and w[i] < 0:
                    break
                if spec.family != SR:
                    w[i] %= spec.n
                    w[j] %= spec.n
                if tuple(w) != v:
                    out.add(tuple(w))
    return sorted(out)


def edges(spec: GraphSpec) -> list[tuple[Vertex, Vertex]]:
    """All edges, smaller endpoint first, sorted; each edge exactly once."""
    return sorted((v, w) for v in iter_vertices(spec) for w in neighbors(spec, v) if v < w)


def write_edge_list(spec: GraphSpec, out: IO[str]) -> int:
    """The edge-list text of `edges`, one line per edge."""
    edge_list = edges(spec)
    out.write(f"# family={spec.family} m={spec.m} n={spec.n}\n")
    for a, b in edge_list:
        out.write(f"{format_vertex(a)};{format_vertex(b)}\n")
    return len(edge_list)


def neighbour_index(graph: IndexedGraph, coords: np.ndarray) -> np.ndarray:
    """Sorted neighbour indices of the rows of coords, one move at a time.
    A move (i, j, delta) takes delta from coordinate i to coordinate j (mod
    n for CSR).  Each neighbour of v comes from exactly one move that applies
    to v: for SR the moves with delta <= v[i], for CSR all of them.  Every
    move copies the rows it applies to, moves them and ranks them over all
    m columns with `graph.rank`."""
    spec = graph.spec
    m, n = spec.m, spec.n
    if spec.family == SR:
        moves = [(i, j, d) for i in range(m) for j in range(m) if i != j for d in range(1, n + 1)]
    else:
        moves = [(i, j, d) for i in range(m) for j in range(i + 1, m) for d in range(1, n)]
    targets = np.empty((len(coords), spec.degree), dtype=np.int64)
    filled = np.zeros(len(coords), dtype=np.int64)  # columns used so far, per row
    for i, j, delta in moves:
        if spec.family == SR:
            rows = np.flatnonzero(coords[:, i] >= delta)
        else:
            rows = np.arange(len(coords))
        moved = coords[rows]
        moved[:, i] -= delta
        moved[:, j] += delta
        if spec.family != SR:
            moved %= n
        targets[rows, filled[rows]] = graph.rank(moved)
        filled[rows] += 1
    assert (filled == spec.degree).all()
    targets.sort(axis=1)
    return targets


def is_zero_partition(blocks, b: tuple[int, ...], n: int) -> bool:
    """Whether blocks (0-based index tuples) are disjoint, cover every
    coordinate of b, and each sum to 0 mod n."""
    seen: set[int] = set()
    for block in blocks:
        if any(i in seen for i in block):
            return False
        seen.update(block)
        if sum(b[i] for i in block) % n != 0:
            return False
    return seen == set(range(len(b)))


def layered_partition_tables(values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`(zero, dp)` over the index subsets S of values, each in [0, n), with
    dp[S] = [S sums to 0 mod n] + max over i in S of dp[S - {i}] filled one
    popcount layer at a time: every S of layer k gathers dp[S ^ (1 << i)]
    for all m bits i.  For a bit i not in S that index lies in layer k + 1,
    still 0, so it never wins the max."""
    m = len(values)
    sums = np.zeros(1 << m, dtype=np.min_scalar_type(2 * n))
    for i, x in enumerate(values):
        sums[1 << i : 2 << i] = (sums[: 1 << i] + x) % n
    zero = (sums == 0).view(np.uint8)
    popcount = np.zeros(1 << m, dtype=np.uint8)
    for i in range(m):
        popcount[1 << i : 2 << i] = popcount[: 1 << i] + 1
    dp = np.zeros(1 << m, dtype=np.uint8)
    for k in range(1, m + 1):
        layer = np.flatnonzero(popcount == k)
        best = dp[layer ^ 1]
        for i in range(1, m):
            np.maximum(best, dp[layer ^ (1 << i)], out=best)
        dp[layer] = best + zero[layer]
    return zero, dp
