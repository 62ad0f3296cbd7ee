"""Brute-force ground truth: exact alpha, gamma, omega, chi, all-pairs BFS
distances, and the Hamiltonian-cycle checker.

Everything here is deliberately independent of the closed-form constructions
it certifies: max clique / independent set use a coloring-bound branch and
bound, domination uses iterative-deepening set cover, coloring uses
saturation-ordered backtracking, distances use plain BFS.  Gamma and chi
count k up from a lower bound and return the witness of the first k whose
search succeeds.  Vertex sets live in bitmasks (Python ints), so the
practical limit is a few hundred vertices.

The set cover prunes a node by its count bound: the `budget` largest
covers (how many uncovered vertices an available vertex's closed
neighborhood holds) must reach the number uncovered.  A node with budget 3
or more counts every vertex and hands the counts down as upper bounds.  A
node with budget 2 counts in order of those bounds and stops once the
bounds left cannot change the verdict.  A node with budget 1 intersects the
closed neighborhoods of the uncovered vertices, since one vertex must lie
in all of them.  Each decides exactly as counting every vertex would, so
the tree, its node count and the cover found stay the same.

The coloring keeps the uncolored vertices in one bitmask per saturation
level (distinct neighbor colors), so coloring a vertex moves each affected
neighbor up a level with one mask operation per level.  A vertex at level
k - 1 has one color left, and the saturation order would branch on it next
with that one choice.  So each search node first colors all of them, one
pass per color (the level k - 1 vertices that do not see c take c), and
repeats until level k - 1 is empty; it fails when a pass holds two adjacent
vertices, which is the only way a vertex can lose its last color.  These
forced moves reach the same coloring in any order, or fail in every
order, so the vertex the node then branches on, the branch tree and the
color arrays found are those of coloring one forced vertex per node.

The alpha and gamma searches branch at the root over the vertex orbits
of `IndexedGraph.generators`, coordinate maps the neighbour rows prove to be
automorphisms (Ostrowski, Linderoth, Rossi & Smriglio, Math. Program.
2011): branch i holds orbit i's lowest vertex and none of the orbits before
it.  Orbits are invariant, so an automorphism maps any solution into the
branch of the first orbit it meets; the values are the plain searches', the
witnesses may differ.

`oracle_chi` breaks the pre-colored clique's symmetry (Crawford, Ginsberg,
Luks & Roy, KR 1996) at the root too, with the checked maps x -> c * x o tau
(tau the identity or a transposition, c a unit mod n for CSR) that fix the
clique.  For the lowest vertex u of their first orbit O with more than one
vertex, the root gives u each color c < min(q + 1, k), q = |clique|, and
lets O's vertices see the colors below min(c, q).  A kept automorphism takes
any coloring to one, with the same clique colors, in which u's key (its
color below q, and q above) is no larger than any vertex of O's; the colors
from q up are interchangeable, so u's can then be q.  The colorings found
may differ from those without O.

The Hamiltonian-cycle checker reads adjacency only from its definition
(two vertices differ in exactly two positions) and tests the whole
(N, m) array at once, in the caller's integer dtype: vertex conditions per
row, repeats by sorting the rows, and the positions that differ between
each row and the next.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import config
from .core import CSR, SR, GraphSpec, IndexedGraph, Vertex, _bits, check_cap, indexed_graph
from .core import orbits, validate_vertex


def _search_graph(spec: GraphSpec) -> IndexedGraph:
    """The spec's IndexedGraph, after the check against the search cap."""
    check_cap(spec, config.SEARCH_CAP, "search")
    return indexed_graph(spec)


# -- maximum clique / independent set -----------------------------------------


def _greedy_clique(adj: list[int]) -> list[int]:
    chosen: list[int] = []
    cand = (1 << len(adj)) - 1
    for v in sorted(range(len(adj)), key=lambda u: adj[u].bit_count(), reverse=True):
        if cand >> v & 1:
            chosen.append(v)
            cand &= adj[v]
    return chosen


def _color_sort(p: int, adj: list[int]) -> tuple[list[int], list[int]]:
    # greedy color classes; a vertex in class c caps any clique through the
    # remaining candidates at c
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = p
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~(adj[v] | (1 << v))
            rest &= ~(1 << v)
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique_bits(adj: list[int], orbits=()) -> list[int]:
    """A maximum clique; with automorphism `orbits` that are not all single
    vertices, the root branches over them."""
    best = _greedy_clique(adj)
    stack: list[int] = []

    def expand(p: int) -> None:
        nonlocal best
        order, bounds = _color_sort(p, adj)
        for i in range(len(order) - 1, -1, -1):
            if len(stack) + bounds[i] <= len(best):
                return
            v = order[i]
            stack.append(v)
            nxt = p & adj[v]
            if nxt:
                expand(nxt)
            elif len(stack) > len(best):
                best = stack.copy()
            stack.pop()
            p &= ~(1 << v)

    if 0 < len(orbits) < len(adj):
        banned = 0
        for orbit in orbits:
            stack.append(orbit[0])
            expand(adj[orbit[0]] & ~banned)
            stack.pop()
            banned |= sum(1 << v for v in orbit)
    elif adj:
        expand((1 << len(adj)) - 1)
    return sorted(best)


def oracle_omega(spec: GraphSpec) -> tuple[int, list[Vertex]]:
    """Exact clique number with a witness clique."""
    graph = _search_graph(spec)
    verts, adj = graph.vertices, graph.adjacency_bits
    picked = _max_clique_bits(adj)
    return len(picked), [verts[i] for i in picked]


def oracle_alpha(spec: GraphSpec) -> tuple[int, list[Vertex]]:
    """Exact independence number: maximum clique of the complement, with
    the root branching over the vertex orbits."""
    graph = _search_graph(spec)
    verts, adj = graph.vertices, graph.adjacency_bits
    nv = len(verts)
    full = (1 << nv) - 1
    comp = [full & ~adj[i] & ~(1 << i) for i in range(nv)]
    picked = _max_clique_bits(comp, graph.orbits)
    return len(picked), [verts[i] for i in picked]


# -- minimum dominating set ----------------------------------------------------


def _cover_search(
    unc: int,
    budget: int,
    available: int,
    bounds: list[int],
    ranked: list[int],
    closed: list[int],
    nv: int,
):
    """Find <= budget available vertices whose closed neighborhoods cover unc.
    bounds[v] >= |closed[v] & unc| for every available v, and `ranked` lists
    the vertices by non-increasing bound; only a node with budget 2 reads
    them, and a node with budget 3 or more makes them exact for its
    children."""
    if unc == 0:
        return []
    if budget == 0:
        return None
    # count bound: even the `budget` largest covers cannot reach unc
    need = unc.bit_count()
    if budget == 1:
        # a vertex covers unc iff it lies in each closed neighborhood of
        # unc; the two ends of unc seldom share many, so they go first
        cands = available & closed[(unc & -unc).bit_length() - 1] & closed[unc.bit_length() - 1]
        rest = unc
        while rest and cands:
            low = rest & -rest
            rest ^= low
            cands &= closed[low.bit_length() - 1]
        if not cands:
            return None
    elif budget == 2:
        # count in bound order; stop once `bound`, taken for every vertex
        # left, could not lift the top two counts to need
        m1 = m2 = 0  # the two largest counts so far
        for v in ranked:
            if available >> v & 1:
                bound = bounds[v]
                if bound + (m1 if m1 > bound else bound) < need:
                    return None
                count = (closed[v] & unc).bit_count()
                if count > m2:
                    m1, m2 = (count, m1) if count > m1 else (m1, count)
                    if m1 + m2 >= need:
                        break
        else:
            return None
    else:
        # exact counts, which the children take as their bounds
        bounds = [(c & unc).bit_count() for c in closed]
        ranked = sorted(range(nv), key=bounds.__getitem__, reverse=True)
        top, left = 0, budget
        for v in ranked:
            if available >> v & 1:
                top += bounds[v]
                left -= 1
                if not left:
                    break
        if top < need:
            return None
    # branch on the uncovered vertex with the fewest available dominators
    pick_cands, pick_size = 0, nv + 1
    rest = unc
    while rest:
        low = rest & -rest
        rest ^= low
        cands = closed[low.bit_length() - 1] & available
        size = cands.bit_count()
        if size == 0:
            return None
        if size < pick_size:
            pick_cands, pick_size = cands, size
            if size == 1:
                break
    # branch i commits to candidate i and bans candidates tried before it,
    # so the branches partition the solution space; larger covers first,
    # ties by index (the sort is stable under reverse)
    order = sorted(_bits(pick_cands), key=lambda v: (closed[v] & unc).bit_count(), reverse=True)
    for v in order:
        available &= ~(1 << v)
        sub = _cover_search(unc & ~closed[v], budget - 1, available, bounds, ranked, closed, nv)
        if sub is not None:
            return [v] + sub
    return None


def oracle_gamma(spec: GraphSpec) -> tuple[int, list[Vertex]]:
    """Exact domination number with the cover the search finds at it: k
    counts up from ceil(N / max |N[v]|), which no smaller cover can reach,
    to the first k with a cover, which exists by k = N.  The root branches
    over the vertex orbits."""
    graph = _search_graph(spec)
    verts, adj = graph.vertices, graph.adjacency_bits
    nv = len(verts)
    closed = [adj[i] | (1 << i) for i in range(nv)]
    bounds = [c.bit_count() for c in closed]
    ranked = sorted(range(nv), key=bounds.__getitem__, reverse=True)
    full = (1 << nv) - 1
    roots = [(orbit[0], sum(1 << v for v in orbit)) for orbit in graph.orbits]
    k = -(-nv // max(bounds))
    while True:
        banned = 0
        for rep, mask in roots:
            unc, available = full & ~closed[rep], full & ~banned & ~(1 << rep)
            if (sub := _cover_search(unc, k - 1, available, bounds, ranked, closed, nv)) is not None:
                return k, sorted(verts[i] for i in [rep, *sub])
            banned |= mask
        k += 1


# -- chromatic number ----------------------------------------------------------


def _k_coloring(adj: tuple[int, ...], k: int, clique: list[int], orbit=(0, 0)):
    """A proper k-coloring of the graph with adjacency bitmasks adj, as a
    color array, or None.  The clique is pre-colored 0..q-1, q = len(clique),
    a valid symmetry break.  With `_clique_orbit`'s (u, orbit) bitmasks the
    root gives u each color c < min(q + 1, k) it does not see, and the
    orbit sees the colors below min(c, q); without them it searches once."""
    q = len(clique)
    if q > k:
        return None
    u_bit, orbit = orbit
    nv = len(adj)
    colors = [-1] * nv
    clique_sees = [0] * k  # clique_sees[c]: the neighbors of the clique's c
    uncolored = (1 << nv) - 1 ^ u_bit  # the root colors u
    for c, v in enumerate(clique):
        colors[v] = c
        clique_sees[c] = adj[v]
        uncolored ^= 1 << v

    def rec(uncolored: int, max_used: int) -> bool:
        # every vertex at level k - 1 has one color left and takes it before
        # anything branches; each pass colors the ones whose last color is
        # c, until no such vertex is left
        while level[k - 1]:
            for c in range(k):
                seen_c = sees[c]
                forced = level[k - 1] & ~seen_c
                if not forced:
                    continue
                near = 0
                rest = forced
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    colors[u] = c
                    near |= adj[u]
                    rest ^= low
                # every other vertex at level k - 1 already sees c, so the
                # pass leaves a vertex with no color only when two of its
                # own vertices are adjacent
                if near & forced:
                    return False
                level[k - 1] ^= forced
                uncolored ^= forced
                rise = near & uncolored & ~seen_c
                sees[c] = seen_c | near
                s = k - 2
                while rise:
                    moved = level[s] & rise
                    if moved:
                        level[s] ^= moved
                        level[s + 1] |= moved
                        rise ^= moved
                    s -= 1
                if c > max_used:
                    max_used = c
        if not uncolored:
            return True
        # saturation order: most distinct neighbor colors first, lowest index
        top = k - 2
        while not level[top]:
            top -= 1
        bit = level[top] & -level[top]
        v = bit.bit_length() - 1
        level[top] ^= bit
        uncolored ^= bit
        near = adj[v] & uncolored
        # one snapshot serves every branch: a failed child leaves the levels
        # and sees of its own forced passes behind
        saved_level = level.copy()
        saved_sees = sees.copy()
        limit = max_used + 2 if max_used + 2 < k else k  # at most one brand-new color
        for c in range(limit):
            seen_c = sees[c]
            if seen_c & bit:
                continue
            # every uncolored neighbor new to color c rises one level; none
            # reaches level k, since level k - 1 is empty here
            rise = near & ~seen_c
            s = top  # no uncolored vertex sits above top
            while rise:
                moved = level[s] & rise
                if moved:
                    level[s] ^= moved
                    level[s + 1] |= moved
                    rise ^= moved
                s -= 1
            colors[v] = c
            sees[c] = seen_c | near
            if rec(uncolored, c if c > max_used else max_used):
                return True
            level[:] = saved_level
            sees[:] = saved_sees
        return False

    u = u_bit.bit_length() - 1
    # without an orbit, one root, max_used the clique's top color q - 1
    for c in range(min(q + 1, k)) if u_bit else [q - 1]:
        sees = clique_sees.copy()  # sees[c]: the vertices with a neighbor colored c
        if u_bit:
            if sees[c] & u_bit:
                continue
            colors[u] = c
            sees[c] |= adj[u]
            for d in range(min(c, q)):
                sees[d] |= orbit
        # level[s]: the uncolored vertices with saturation (distinct neighbor
        # colors) s; a vertex at level k sees every color and has none left
        level = [0] * (k + 1)
        for w in _bits(uncolored):
            level[sum(seen >> w & 1 for seen in sees)] |= 1 << w
        if not level[k] and rec(uncolored, max(c, q - 1)):
            return colors
    return None


def _clique_orbit(graph: IndexedGraph, clique: list[int]) -> tuple[int, int]:
    """(bit of u, bits of u's other images) for `_k_coloring`, or (0, 0),
    under the checked maps x -> c * x o tau (tau the identity or a
    transposition) that fix the clique: u is the lowest vertex of the first
    orbit with more than one vertex."""
    fixed = graph.coords[clique]
    swaps = [(0, 0), *itertools.combinations(range(graph.spec.m), 2)]
    fixing = (x for x in graph.scaled_swaps(swaps) if np.array_equal(x[clique], fixed))
    for u, *rest in orbits(len(graph.coords), graph.checked_maps(fixing)):
        if rest:
            return 1 << u, sum(1 << v for v in rest)
    return 0, 0


def oracle_chi(
    spec: GraphSpec, alpha: int | None = None, clique: list[Vertex] | None = None
) -> tuple[int, dict[Vertex, int]]:
    """Exact chromatic number with the coloring the search finds at it: k
    counts up from max(omega, ceil(N / alpha)), since a maximum clique needs
    omega colors and each color class is independent, to the first k with a
    coloring, which exists by k = N.  `alpha` is the exact independence
    number and `clique` the witness of `oracle_omega` when the caller has
    them; without them `oracle_alpha` and the clique search run."""
    graph = _search_graph(spec)
    verts, adj = graph.vertices, graph.adjacency_bits
    if clique is None:
        picked = _max_clique_bits(adj)
    else:
        picked = [verts.index(v) for v in clique]
    if alpha is None:
        alpha = oracle_alpha(spec)[0]
    k = max(len(picked), -(-len(verts) // alpha))
    orbit = _clique_orbit(graph, picked)
    while (colors := _k_coloring(adj, k, picked, orbit)) is None:
        k += 1
    return k, dict(zip(verts, colors))


# -- distances -----------------------------------------------------------------


def all_pairs_distances(spec: GraphSpec) -> tuple[list[Vertex], np.ndarray]:
    """Full distance matrix by simultaneous BFS (boolean matrix levels).

    Unreached pairs keep -1.  Quadratic memory; guarded by the matrix cap.
    """
    check_cap(spec, config.MATRIX_CAP, "matrix")
    graph = indexed_graph(spec)
    nv = len(graph.coords)
    adjm = graph.dense(np.float32)
    dist = np.full((nv, nv), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(nv, dtype=bool)
    frontier = reached.copy()
    d = 0
    while frontier.any():
        d += 1
        step = (frontier.astype(np.float32) @ adjm) > 0.5
        frontier = step & ~reached
        dist[frontier] = d
        reached |= frontier
    return list(graph.vertices), dist


# -- cycle checking ------------------------------------------------------------


def verify_cycle(
    spec: GraphSpec,
    cycle: list[tuple[int, ...]] | np.ndarray,
    required_edge: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> str | None:
    """Check a vertex sequence, a list of tuples or an (N, m) integer array,
    as a Hamiltonian cycle of spec: None when it is one, else the reason.

    Valid iff: every entry is a vertex, each graph vertex appears exactly
    once, consecutive entries (including the wrap pair) differ in exactly
    two positions, and the required edge (if given) appears as a
    consecutive pair.  Each test runs on the whole array at once; the
    reason names the first failing position, as a scan would.
    """
    if len(cycle) < 3:
        return f"cycle has {len(cycle)} vertices, needs at least 3"
    rows = _cycle_rows(spec, cycle)
    if isinstance(rows, str):
        return rows
    if _has_repeat(rows):
        return "duplicate vertex"
    if len(rows) != spec.vertex_count:
        return f"cycle covers {len(rows)} of {spec.vertex_count} vertices"
    # position i is the step from row i to row i + 1; the last is the wrap
    apart = np.flatnonzero(np.count_nonzero(rows[1:] != rows[:-1], axis=1) != 2)
    if len(apart) or np.count_nonzero(rows[-1] != rows[0]) != 2:
        at = int(apart[0]) if len(apart) else len(rows) - 1
        return f"consecutive vertices not adjacent at position {at}"
    if required_edge is not None:
        a, b = (_row_of(rows, v) for v in required_edge)
        if a < 0 or b < 0 or (b - a) % len(rows) not in (1, len(rows) - 1):
            return "required edge missing from cycle"
    return None


def _cycle_rows(spec: GraphSpec, cycle) -> np.ndarray | str:
    """The entries as an (N, m) integer array, in the caller's dtype when they
    already form one, or the reason naming the first entry that is not a
    vertex, with `validate_vertex`'s message.  Entries that do not form an
    integer array (ragged, non-integer) are checked one by one."""
    try:
        rows = np.asarray(cycle)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.dtype.kind not in "biu" or rows.shape[1:] != (spec.m,):
        seq = []
        for pos, v in enumerate(cycle):
            try:
                seq.append(validate_vertex(spec, v))
            except (TypeError, ValueError) as exc:
                return f"invalid vertex at position {pos}: {exc}"
        return np.array(seq, dtype=np.int64)
    n = spec.n
    if spec.family == SR:  # coordinates within 0..n keep the row sums exact
        bad = ((rows < 0) | (rows > n)).any(axis=1) | (rows.sum(axis=1) != n)
    else:
        bad = ((rows < 0) | (rows >= n)).any(axis=1) | (rows.sum(axis=1) % n != 0)
    if bad.any():
        pos = int(np.argmax(bad))
        try:  # the first flagged entry raises with the reason a scan gives
            validate_vertex(spec, cycle[pos])
        except ValueError as exc:
            return f"invalid vertex at position {pos}: {exc}"
    return rows


def _has_repeat(rows: np.ndarray) -> bool:
    """Whether two rows are equal, found by sorting the rows and comparing
    each with the next one column at a time."""
    ordered = rows[np.lexsort(rows.T)]
    same = np.ones(len(rows) - 1, dtype=bool)
    for column in ordered.T:
        same &= column[1:] == column[:-1]
    return bool(same.any())


def _row_of(rows: np.ndarray, v: tuple[int, ...]) -> int:
    """Index of the row equal to v, or -1."""
    v = tuple(v)
    if len(v) != rows.shape[1]:
        return -1
    hit = np.flatnonzero((rows == v).all(axis=1))
    return int(hit[0]) if len(hit) else -1
