"""Vertex arrays and adjacency for the two rook-graph families.

SR(m, n):  vertices are length-m vectors of nonnegative integers summing
to n.  CSR(m, n): vertices are length-m vectors over Z_n whose coordinate
sum is 0 mod n.  In both families two vertices are adjacent exactly when
they differ in exactly two coordinate positions (the sum constraint then
forces the two changes to cancel).

The vertices of a spec are the rows of one read-only int64 (N, m) array,
`IndexedGraph.coords`, built directly in lexicographic order; a vertex given
or printed on its own is a plain tuple of ints, and `IndexedGraph.vertices`
is the tuple view of the rows, made on first use.  A vertex's index is its
closed-form rank; a neighbour's index is its vertex's rank plus the terms
the move changes: those of the positions between the two coordinates for
SR, two base-n digits for CSR.  All functions are pure,
except that `indexed_graph` keeps the last `IndexedGraph` it built in a
one-entry cache keyed on the frozen `GraphSpec`, so the scans and oracles of
one analysis share one build.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import config
from .errors import CapExceededError

Vertex = tuple[int, ...]

SR = "SR"
CSR = "CSR"


@dataclass(frozen=True)
class GraphSpec:
    """One graph instance: family tag plus the two size parameters."""

    family: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in (SR, CSR):
            raise ValueError(f"unknown family {self.family!r}; expected 'SR' or 'CSR'")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.family == SR and self.n < 0:
            raise ValueError(f"SR requires n >= 0, got {self.n}")
        if self.family == CSR and self.n < 1:
            raise ValueError(f"CSR requires n >= 1, got {self.n}")

    @property
    def vertex_count(self) -> int:
        if self.family == SR:
            return math.comb(self.n + self.m - 1, self.n)
        return self.n ** (self.m - 1)

    @property
    def degree(self) -> int:
        """Regularity degree: n(m-1) for SR, C(m,2)(n-1) for CSR."""
        if self.family == SR:
            return self.n * (self.m - 1)
        return math.comb(self.m, 2) * (self.n - 1)

    def label(self) -> str:
        return f"{self.family}({self.m},{self.n})"


def sr_spec(m: int, n: int) -> GraphSpec:
    return GraphSpec(SR, m, n)


def csr_spec(m: int, n: int) -> GraphSpec:
    return GraphSpec(CSR, m, n)


def validate_vertex(spec: GraphSpec, v: tuple[int, ...]) -> Vertex:
    """Return v as a vertex of spec, raising ValueError with the reason if not.
    Coordinates must be integers (Python or numpy), not values that `int`
    would truncate."""
    coords = list(v)
    try:
        v = tuple(map(operator.index, coords))
    except TypeError:
        shown = ", ".join(map(str, coords))
        raise ValueError(f"vertex has a non-integer coordinate: ({shown})") from None
    if len(v) != spec.m:
        raise ValueError(f"vertex has {len(v)} coordinates, spec {spec.label()} needs {spec.m}")
    if spec.family == SR:
        if any(x < 0 for x in v):
            raise ValueError(f"SR vertex has a negative coordinate: {v}")
        if sum(v) != spec.n:
            raise ValueError(f"SR vertex coordinates sum to {sum(v)}, expected {spec.n}")
    else:
        if any(not 0 <= x < spec.n for x in v):
            raise ValueError(f"CSR vertex has a coordinate outside 0..{spec.n - 1}: {v}")
        if sum(v) % spec.n != 0:
            raise ValueError(f"CSR vertex coordinates sum to {sum(v)} != 0 mod {spec.n}")
    return v


def check_cap(spec: GraphSpec, limit: int, name: str) -> None:
    """Raise CapExceededError when spec has more than `limit` vertices."""
    if spec.vertex_count > limit:
        raise CapExceededError(
            f"{spec.label()} has {spec.vertex_count} vertices, over the {name} cap {limit}"
        )


def allocate(make, shape, dtype, what: str) -> np.ndarray:
    """make(shape, dtype=dtype), e.g. np.zeros, with a MemoryError re-raised as
    CapExceededError naming the array, so an input under the vertex caps
    whose arrays do not fit memory ends with a message, not a traceback."""
    try:
        return make(shape, dtype=dtype)
    except MemoryError:
        raise CapExceededError(
            f"the {what} array of shape {shape} does not fit in memory"
        ) from None


def check_enum_cap(spec: GraphSpec, cap: int | None = None) -> None:
    check_cap(spec, config.enum_cap(cap), "enumeration")


def _sr_rows(m: int, n: int) -> np.ndarray:
    """The weak compositions of n into m parts as rows, in lexicographic
    order.  Each pass gives every prefix one child per value 0..left of the
    next coordinate, in ascending order, where left is the weight the prefix
    has not placed; the last coordinate takes what is left.  The passes keep
    only each child's parent and value, and the columns are filled from the
    last back, so each cell of the result is written once."""
    left = np.array([n], dtype=np.int64)
    passes = []
    for _ in range(m - 1):
        parent = np.repeat(np.arange(len(left)), left + 1)
        value = np.arange(len(parent)) - (np.cumsum(left + 1) - (left + 1))[parent]
        passes.append((parent, value))
        left = left[parent] - value
    rows = np.empty((len(left), m), dtype=np.int64)
    rows[:, -1] = left
    at = np.arange(len(left))  # each row's prefix at the pass being filled
    for i in range(m - 2, -1, -1):
        parent, value = passes[i]
        rows[:, i] = value[at]
        at = parent[at]
    return rows


def _binom_table(n: int, m: int) -> np.ndarray:
    """table[r, k] = C(r + k, k), the weak compositions of r into k + 1
    parts, for r <= n and k < m.  Column k is the running sum of column
    k - 1, since C(r + k, k) = sum over j <= r of C(j + k - 1, k - 1)."""
    table = np.ones((n + 1, m), dtype=np.int64)
    for k in range(1, m):
        np.cumsum(table[:, k - 1], out=table[:, k])
    return table


def _csr_rows(m: int, n: int) -> np.ndarray:
    """Every free prefix of m - 1 residues in lexicographic order, which is
    the order of the full vectors, with the last residue it fixes."""
    prefix = np.indices((n,) * (m - 1), dtype=np.int64).reshape(m - 1, n ** (m - 1)).T
    return np.column_stack((prefix, -prefix.sum(axis=1) % n))


def adjacent(spec: GraphSpec, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """True iff u and v differ in exactly two coordinate positions."""
    if len(u) != spec.m or len(v) != spec.m:
        raise ValueError(
            f"dimension mismatch: |u|={len(u)}, |v|={len(v)}, spec {spec.label()} has m={spec.m}"
        )
    diff = 0
    for a, b in zip(u, v):
        if a != b:
            diff += 1
            if diff > 2:
                return False
    return diff == 2


class IndexedGraph:
    """The lexicographic (N, m) vertex array and each vertex's neighbours as
    sorted indices into it, derived from the closed-form `rank`.  Use
    `indexed_graph`."""

    def __init__(self, spec: GraphSpec) -> None:
        self.spec = spec
        if spec.family == SR:
            self.coords = _sr_rows(spec.m, spec.n)
            # _binom[k, L] = C(L - 1 + k, k) for L = 0..n + 1; column L = 0
            # is r = -1, zero for k >= 1
            table = _binom_table(spec.n, spec.m)
            self._binom = np.vstack((np.zeros((1, spec.m), dtype=np.int64), table)).T.copy()
        else:
            self.coords = _csr_rows(spec.m, spec.n)
        self.coords.flags.writeable = False

    def _sr_after(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(left, after), each (m, len(coords)).  left[t] = L_t, n minus a
        row's first t values.  after[t] = C(L_t - 1 + m - t, m - t) counts
        the vertices after the row that first differ from it at position
        t - 1, since they leave 0..L_t - 1 for positions t..; after[0] = 0."""
        m, n = self.spec.m, self.spec.n
        left = np.empty((m, len(coords)), dtype=np.int64)
        left[0] = n
        np.subtract(n, np.cumsum(coords[:, :-1].T, axis=0), out=left[1:])
        after = np.zeros_like(left)
        for t in range(1, m):
            after[t] = self._binom[m - t][left[t]]
        return left, after

    def rank(self, coords: np.ndarray) -> np.ndarray:
        """Lexicographic positions of the vertices given as rows of coords."""
        m, n = self.spec.m, self.spec.n
        if self.spec.family == CSR:
            # base n in the free prefix; the last coordinate is determined
            rank = np.zeros(len(coords), dtype=np.int64)
            for i in range(m - 1):
                rank = rank * n + coords[:, i]
            return rank
        # N - 1 minus the vertices that follow the row
        return len(self.coords) - 1 - self._sr_after(coords)[1].sum(axis=0)

    @functools.cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The rows of coords as tuples, for the small exact searches and
        per-vertex output."""
        return tuple(map(tuple, self.coords.tolist()))

    def neighbour_index(self, coords: np.ndarray) -> np.ndarray:
        """(len(coords), degree) array; row r lists the neighbour indices of
        the vertex coords[r] in ascending order."""
        spec = self.spec
        targets = allocate(np.empty, (len(coords), spec.degree), np.int64, "neighbour-index")
        if spec.family == SR:
            self._sr_neighbours(coords, targets)
        else:
            self._csr_neighbours(coords, targets)
        targets.sort(axis=1)
        return targets

    def _sr_neighbours(self, coords: np.ndarray, targets: np.ndarray) -> None:
        """Fill targets with the SR neighbour ranks, unsorted.  Moving delta
        from position i to position j shifts L_t by s for t in
        (min(i, j), max(i, j)], where s = delta if i < j and -delta if
        j < i, and leaves every other L_t alone.  So the rank changes by the
        sum over those t of after[t] - C(L_t + s - 1 + m - t, m - t), and
        walking j away from i adds one term per step."""
        m, n = self.spec.m, self.spec.n
        left, after = self._sr_after(coords)
        rank = len(self.coords) - 1 - after.sum(axis=0)
        out = targets.reshape(-1)
        for i in range(m):
            # one entry per move out of i: its row and delta = 1..v_i
            count = coords[:, i]
            rows = np.repeat(np.arange(len(coords)), count)
            delta = np.arange(1, len(rows) + 1) - np.repeat(np.cumsum(count) - count, count)
            # a row's moves out of positions before i fill its first
            # (n - L_i)(m - 1) columns; a move to j takes slot t - 1 of its
            # block, where t = j going up and t = j + 1 going down
            block = rows * targets.shape[1] + (m - 1) * (n - left[i][rows] + delta - 1) - 1
            for steps, shift in ((range(i + 1, m), delta), (range(i, 0, -1), -delta)):
                moved = rank[rows]
                for t in steps:
                    moved += after[t][rows]
                    moved -= self._binom[m - t][left[t][rows] + shift]
                    out[block + t] = moved

    def _csr_neighbours(self, coords: np.ndarray, targets: np.ndarray) -> None:
        """Fill targets with the CSR neighbour ranks, unsorted.  The rank is
        base n over the free prefix, so a move of delta from position i to
        position j (i < j) changes two digits mod n with no carry: it adds
        ((x_i - delta) mod n - x_i) w_i + ((x_j + delta) mod n - x_j) w_j,
        where w_i = n^(m - 2 - i) and the last position weighs 0."""
        m, n = self.spec.m, self.spec.n
        weight = np.append(n ** np.arange(m - 2, -1, -1, dtype=np.int64), 0)
        # the digit changes as tables over (x, delta - 1)
        x = np.arange(n)[:, None]
        delta = np.arange(1, n)
        down, up = (x - delta) % n - x, (x + delta) % n - x
        rank = self.rank(coords)[:, None, None]
        column = 0
        for i in range(m - 1):
            # every move out of i at once: axis 1 is j > i, axis 2 is delta
            moved = up[coords[:, i + 1:]]
            moved *= weight[i + 1:, None]
            moved += rank + down[coords[:, i]][:, None] * weight[i]
            width = (m - 1 - i) * (n - 1)
            targets[:, column:column + width] = moved.reshape(len(coords), width)
            column += width

    @functools.cached_property
    def targets(self) -> np.ndarray:
        """(N, degree) read-only `neighbour_index` of every vertex."""
        targets = self.neighbour_index(self.coords)
        targets.flags.writeable = False
        return targets

    @functools.cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """One Python-int bitmask per vertex: bit j of entry i is set iff
        vertex j is a neighbour of vertex i.  Built on first use, so the
        exact searches of one analysis share one build."""
        return tuple(sum(1 << j for j in row) for row in self.targets.tolist())

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once as index arrays (u < v), sorted by (u, v)."""
        upper = self.targets > np.arange(len(self.coords))[:, None]
        return np.nonzero(upper)[0], self.targets[upper]

    def dense(self, dtype=np.float64) -> np.ndarray:
        """A new dense 0/1 adjacency matrix in vertex order."""
        mat = allocate(np.zeros, (len(self.coords),) * 2, dtype, "dense adjacency")
        mat[np.arange(len(mat))[:, None], self.targets] = 1
        return mat


# one entry serves every caller in one analysis; more would keep earlier
# specs' arrays alive through the next spec's dense eigensolve
@functools.lru_cache(maxsize=1)
def _indexed_graph(spec: GraphSpec) -> IndexedGraph:
    return IndexedGraph(spec)


def indexed_graph(spec: GraphSpec, cap: int | None = None) -> IndexedGraph:
    """The spec's IndexedGraph, after the enumeration-cap check."""
    check_enum_cap(spec, cap)
    return _indexed_graph(spec)


def enumerate_vertices(spec: GraphSpec, cap: int | None = None) -> list[Vertex]:
    """All vertices, lexicographically sorted, each exactly once."""
    return list(indexed_graph(spec, cap).vertices)


# -- edge-list text format ----------------------------------------------------
#
# header line:  # family=SR m=3 n=2
# edge lines:   a1,a2,...,am;b1,b2,...,bm   (smaller endpoint first, sorted)


def format_vertex(v: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in v)


def parse_vertex(text: str) -> Vertex:
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse vertex {text!r}: {exc}") from None


def write_edge_list(spec: GraphSpec, out: IO[str], cap: int | None = None) -> int:
    """Write the canonical edge-list text; returns the number of edges."""
    out.write(f"# family={spec.family} m={spec.m} n={spec.n}\n")
    graph = indexed_graph(spec, cap)
    labels = [format_vertex(v) for v in graph.coords.tolist()]
    src, dst = graph.edge_index()
    # src is sorted, so each source's edges are one run of dst: one block
    dst_labels = [labels[b] for b in dst.tolist()]
    end = 0
    for a, count in enumerate(np.bincount(src, minlength=len(labels)).tolist()):
        if count:
            prefix = labels[a] + ";"
            out.write(prefix + ("\n" + prefix).join(dst_labels[end:end + count]) + "\n")
            end += count
    return len(src)


def read_edge_list(infile: IO[str]) -> tuple[GraphSpec, list[tuple[Vertex, Vertex]]]:
    """Parse the edge-list text; a bad header, or an endpoint that is not a
    vertex of the header's spec, raises ValueError naming the line."""
    header = infile.readline().strip()
    if not header.startswith("#"):
        raise ValueError("edge list must start with a '# family=... m=... n=...' header")
    fields = dict(part.split("=", 1) for part in header[1:].split() if "=" in part)
    try:
        spec = GraphSpec(fields["family"], int(fields["m"]), int(fields["n"]))
    except KeyError as exc:
        raise ValueError(f"line 1: header lacks {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    edge_list = []
    for number, line in enumerate(infile, start=2):
        line = line.strip()
        if not line:
            continue
        left, _, right = line.partition(";")
        try:
            edge_list.append(tuple(validate_vertex(spec, parse_vertex(t)) for t in (left, right)))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return spec, edge_list
