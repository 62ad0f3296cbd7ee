"""CSR automorphisms from the closed-form parametrization, plus an
independent count of all adjacency-preserving bijections.

Every CSR automorphism (for m, n > 3) is: permute coordinates, scale by a
unit mod n, translate by a zero-sum vector.  `enumerate_group` yields each
such map as a plain descriptor tuple (sigma, c, d).  The group order is
therefore m! * phi(n) * n^(m-1).  Outside that parameter range the
parametrized maps are still automorphisms but may not exhaust the group, so
results carry an outside-hypothesis flag and the oracle count documents the
difference.

The oracle counts by orbit-stabilizer along a stabilizer chain (the idea
behind nauty): with G_(B_k) the automorphisms fixing v_0..v_{k-1} pointwise,
|G_(B_k)| = |v_k^{G_(B_k)}| * |G_(B_{k+1})|.  Each orbit is found by asking,
for a candidate image w of v_k, whether one adjacency-preserving extension
exists, so the search never walks the whole group.  The levels are walked
from the deepest up, and every extension found is a full automorphism that
fixes B_k, so it also lies in every shallower G_(B_j).  A union-find over the
vertices joins each point to its image under every automorphism found (the
orbit pruning of McKay & Piperno, "Practical graph isomorphism, II", 2014):
a candidate already in v_k's class is in its orbit without a search, and one
in the class of a candidate whose search failed is outside it.  It reads
only adjacency, never the parametrization it checks.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Iterator

from . import config
from .core import GraphSpec, csr_spec


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


def enumerate_group(m: int, n: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """All descriptors (sigma, c, d), each exactly once, in lexicographic
    order of (sigma, c, offset prefix); the last offset entry is determined.
    The map sends coordinate i to c * x[sigma[i]] + d[i] mod n: sigma
    permutes 0..m-1, c is a unit mod n and d is a zero-sum offset vector."""
    csr_spec(m, n)
    for sigma in itertools.permutations(range(m)):
        for c in _units(n):
            for prefix in itertools.product(range(n), repeat=m - 1):
                d = prefix + ((-sum(prefix)) % n,)
                yield sigma, c, d


# -- independent count by orbit-stabilizer -----------------------------------


def oracle_aut_count(spec: GraphSpec) -> int:
    """Number of adjacency-preserving bijections, by orbit-stabilizer along
    the BFS order with generator-orbit pruning (see the module docstring).
    Candidate images are pruned by adjacency to the mapped vertices and by
    common-neighbor counts (degrees alone cannot tell vertices of these
    vertex-transitive graphs apart).
    """
    # here, not at module level: the descriptor walk alone loads no search
    from .oracles import _bit_graph, _bits

    verts, adj = _bit_graph(spec, config.AUT_CAP, "automorphism search")
    nv = len(verts)

    # common-neighbor counts; invariant signatures narrow initial candidates
    common = [[(adj[u] & adj[v]).bit_count() for v in range(nv)] for u in range(nv)]
    signature = [tuple(sorted(common[u][v] for v in _bits(adj[u]))) for u in range(nv)]
    sig_mask: defaultdict[tuple, int] = defaultdict(int)
    for u, sig in enumerate(signature):
        sig_mask[sig] |= 1 << u

    # map vertices in BFS order so each new vertex is constrained by a
    # mapped neighbor as early as possible
    order, seen = [0], {0}
    for u in order:  # the list grows as it is read: it is its own BFS queue
        for w in _bits(adj[u]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    order += [u for u in range(nv) if u not in seen]  # disconnected leftovers

    images = order.copy()  # the identity on the fixed prefix

    def candidates(k: int, used: int) -> Iterator[int]:
        # lazy, so a search that stops at its first extension checks no more
        # candidates than it tries; images[:k] stays fixed while it is read
        v = order[k]
        cand = sig_mask[signature[v]] & ~used
        for t in range(k):
            cand &= adj[images[t]] if adj[order[t]] >> v & 1 else ~adj[images[t]]
        for w in _bits(cand):
            if all(common[order[t]][v] == common[images[t]][w] for t in range(k)):
                yield w

    def extends(k: int, w: int, used: int) -> bool:
        """Whether images[:k] plus v_k -> w extends to an automorphism; the
        search stops at the first extension found."""
        images[k] = w
        used |= 1 << w
        if k + 1 == nv:
            return True
        for x in candidates(k + 1, used):
            if extends(k + 1, x, used):
                return True
        return False

    # union-find over vertices: the orbits of the automorphisms found so far
    parent = list(range(nv))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    # deepest level first: every automorphism found so far fixes B_k
    # pointwise, so v_k's class is part of its orbit under G_(B_k)
    count, used = 1, (1 << nv) - 1
    for k in range(nv - 1, -1, -1):
        v = order[k]
        used ^= 1 << v  # B_k = order[:k], fixed by images[:k]
        orbit = 0
        outside: set[int] = set()  # roots of classes with a failed search
        for w in candidates(k, used):
            root = find(w)
            if root == find(v):
                orbit += 1
            elif root in outside:
                continue
            elif extends(k, w, used):
                orbit += 1
                for t in range(k, nv):
                    parent[find(order[t])] = find(images[t])
                outside = {find(r) for r in outside}
            else:
                outside.add(root)
        count *= orbit
    return count
