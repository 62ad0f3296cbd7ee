"""Zero partitionings, CSR distances and diameters, and the closed-form
bounds table for both families: `bounds_report` returns the list of bound
records that `analyze` prints and reads its verdict bounds from.

The zero-partitioning number of a CSR vertex b is the maximum number of
blocks in a partition of the coordinate indices such that every block's
coordinate sum is 0 mod n; the distance from the origin to b is then
m minus that number, and distances between arbitrary vertices reduce to
the origin case by translating (the graph is a Cayley graph on the
zero-sum subgroup of Z_n^m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .constructions import default_prime, equal_pair_bound
from .core import CSR, SR, GraphSpec, Vertex, allocate, csr_spec, validate_vertex
from .errors import CapExceededError
from .spectral import sr_least_eigenvalue


def zero_partition_number(
    b: tuple[int, ...], n: int, mask_cap: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Maximum block count over all zero partitionings of b, with a witness:
    `(count, blocks)`, where blocks is a tuple of disjoint 0-based index
    tuples covering every coordinate, each summing to 0 mod n, in order of
    first index.

    Each zero coordinate is a block of its own: split off from its block, it
    leaves that block zero-sum and adds one block, and the witness below
    takes its singleton, the smallest candidate.  So the DP runs over the m
    nonzero coordinates only, and the mask limit bounds m; two CSR vertices
    at distance d differ in at most 2d places.

    Prefix-ordering dynamic program over index subsets S:

        dp[S] = [sum of S = 0 mod n] + max over i in S of dp[S - {i}],

    the most zero-sum prefixes over all orderings of S.  For zero-sum S the
    segments between consecutive zero-sum prefixes are zero-sum blocks, so
    dp[S] is the best block count of S.  dp is monotone under inclusion: an
    ordering of T followed by the rest of S keeps T's zero-sum prefixes.  So
    each A_r = {S : dp[S] >= r} is up-closed, A_0 holds every subset, and

        A_{r+1} = up-closure(Z & {S : S - {i} in A_r for some i in S})

    with Z the nonempty zero-sum sets: a set in A_{r+1} either is such a
    zero-sum set or loses an element and stays in A_{r+1}.  Every block of
    nonzero coordinates holds at least two of them, so A_{floor(m/2)+1} is
    empty and the DP runs at most floor(m/2) + 1 rounds (`_partition_tables`).
    A family is one Python int with bit S set for each member S.  Round r
    closes its seeds upward one index at a time, m shift/AND/OR steps on
    2^m-bit ints; the same shifts give the sets strictly above a seed, and
    their zero-sum members seed round r + 1.  With the subset sums built by
    doubling that is O(2^m * m) time and O(2^m * m) bits of memory: the
    rounds and the families without[i] of the sets that miss index i.

    Witness: from R = all indices, repeatedly remove the block with the
    numerically smallest mask that holds R's lowest index, sums to 0 mod n
    and leaves dp[R - block] = dp[R] - 1.  The rounds give it directly:
      - R is always zero-sum, and dp[R] = d starts at the number of nonempty
        rounds, since every nonempty up-closed family holds the full set;
        each block lowers d by one.
      - A zero-sum T strictly inside R has dp[T] <= d - 1: T's best ordering
        followed by the zero-sum R - T gains the prefix R.  So for the
        zero-sum rest T = R - block, dp[T] = d - 1 is the same as T in A_{d-1}.
      - For T within R the mask R - T is the number R - T, so the smallest
        block leaves the largest T.  That T is the highest set bit of the
        sets within R, without R's lowest index, in Z or empty, and in
        A_{d-1}: one AND of bitsets, with no A_0 term since A_0 holds every
        set (d = 1 leaves the empty set, and the walk ends).
    Each block costs a few ANDs of 2^m-bit ints, and the sets within R are
    kept as one int that loses without[i] for each index i a block takes.
    No such block holds a zero coordinate beside others, so the blocks of
    the nonzero coordinates, sorted in with the singletons by first index,
    are that walk's blocks.
    """
    if n < 1:
        raise ValueError(f"modulus n must be >= 1, got {n}")
    b = tuple(x % n for x in b)
    if sum(b) % n != 0:
        raise ValueError(f"not a CSR vertex: coordinates sum to {sum(b)} != 0 mod {n}")
    spots = [i for i, x in enumerate(b) if x]
    m = len(spots)
    limit = config.mask_limit(mask_cap)
    if m > limit:
        raise CapExceededError(f"{m} nonzero coordinates mod {n}, over the subset-mask limit {limit}")

    zero_sets, without, rounds = _partition_tables([b[spot] for spot in spots], n)

    blocks = [(i,) for i, x in enumerate(b) if not x]
    rest, inside = (1 << m) - 1, (1 << (1 << m)) - 1  # inside: the sets within rest
    for d in range(len(rounds), 0, -1):  # d = dp[rest]
        low = (rest & -rest).bit_length() - 1
        fits = inside & without[low] & zero_sets
        if d > 1:
            fits &= rounds[d - 2]  # A_{d-1}
        keep = fits.bit_length() - 1
        block = rest ^ keep
        taken = [i for i in range(m) if block >> i & 1]
        blocks.append(tuple(spots[i] for i in taken))
        for i in taken:
            inside &= without[i]
        rest = keep
    blocks.sort()  # disjoint ascending blocks: by first index
    return len(blocks), tuple(blocks)


def _partition_tables(values: list[int], n: int) -> tuple[int, list[int], list[int]]:
    """`(zero_sets, without, rounds)` over the index subsets S of values,
    each in [0, n), as 2^m-bit ints with bit S set for each member S:
    zero_sets holds the sets that sum to 0 mod n, without[i] the sets that
    miss index i, and rounds[r - 1] the family A_r of `zero_partition_number`
    for each r >= 1 with A_r nonempty."""
    m = len(values)
    # the smallest dtype holding 2(n - 1); past uint64 it is exact Python ints
    sums = allocate(np.zeros, 1 << m, np.min_scalar_type(2 * n), "subset-sum")
    for i, x in enumerate(values):
        sums[1 << i : 2 << i] = (sums[: 1 << i] + x) % n
    try:
        zero_sets = int.from_bytes(np.packbits(sums == 0, bitorder="little").tobytes(), "little")
        del sums
        without = []  # without[i]: the sets without index i, built by doubling
        for k in range(m):
            without = [w | w << (1 << k) for w in without] + [(1 << (1 << k)) - 1]
        rounds = []
        seeds = zero_sets & ~1  # every nonempty set has a member of A_0 below it
        while seeds:
            reach, strict = seeds, 0  # grow to A_r and to the sets strictly above a seed
            for i, w in enumerate(without):
                reach |= (grown := (reach & w) << (1 << i))
                strict |= grown
            rounds.append(reach)
            seeds = strict & zero_sets  # the sets of Z with a member of A_r one index below
        return zero_sets, without, rounds
    except MemoryError:
        raise CapExceededError(f"the subset bitsets of shape {1 << m} do not fit in memory") from None


def csr_distance_witness(
    spec: GraphSpec, u: tuple[int, ...], v: tuple[int, ...], mask_cap: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """`(distance, blocks)` in CSR(m, n): the blocks of the zero partitioning
    of v - u behind the distance, as `zero_partition_number` returns them."""
    if spec.family != CSR:
        raise ValueError(f"distance formula applies to CSR only, got {spec.label()}")
    u = validate_vertex(spec, u)
    v = validate_vertex(spec, v)
    diff = tuple((x - y) % spec.n for x, y in zip(v, u))
    count, blocks = zero_partition_number(diff, spec.n, mask_cap)
    return spec.m - count, blocks


def csr_diameter(m: int, n: int) -> int:
    """Closed form m - floor((m-1)/n) - 1."""
    csr_spec(m, n)  # parameter validation
    return m - (m - 1) // n - 1


def csr_eccentric_vertex(m: int, n: int) -> Vertex:
    """A vertex at distance exactly the diameter from the origin: as much
    weight as possible spread into single 1s."""
    return ((n - (m - 1)) % n,) + (1 % n,) * (m - 1)


def sr_diameter(m: int, n: int) -> int:
    """Closed form min(m - 1, n)."""
    GraphSpec(SR, m, n)  # parameter validation
    return min(m - 1, n)


# -- closed-form bounds ----------------------------------------------------------


@dataclass(frozen=True)
class BoundRecord:
    quantity: str  # alpha | gamma | chi | omega | diameter
    side: str  # lower | upper | exact
    value: int
    formula: str  # evaluated formula, for reports


def bounds_report(spec: GraphSpec) -> list[BoundRecord]:
    """The family's closed-form bounds in exact integer arithmetic, as the
    record list `analyze` prints: alpha, gamma and chi lower/upper, then
    omega and the diameter.  Floor/ceiling is applied only where the
    quantity is an integer.

    SR: alpha in [ceil(N/p), floor(N/m)] for N = C(n+m-1, n) and the default
    prime p; gamma in [ceil(N/(degree+1)), floor(C(n+m-1, m-2)/2)] (the upper
    bound needs the m >= 3 construction); diameter min(m-1, n).
    CSR: chi in [m, p] (n >= 2), omega = max(n, m) (m, n >= 2), and the
    diameter closed form.
    """
    m, n = spec.m, spec.n
    p = default_prime(spec)
    out: list[BoundRecord] = []
    if spec.family == SR:
        total = spec.vertex_count
        out.append(BoundRecord("alpha", "lower", -(-total // p), f"ceil(C({n+m-1},{n})/{p})"))
        # the spectral bound total/m needs edges; edgeless graphs have alpha = |V|
        if spec.degree > 0:
            out.append(BoundRecord("alpha", "upper", total // m, f"floor(C({n+m-1},{n})/{m})"))
        else:
            out.append(BoundRecord("alpha", "upper", total, "|V| (edgeless)"))
        lower = -(-total // (spec.degree + 1))
        out.append(BoundRecord("gamma", "lower", lower, f"ceil(C({n+m-1},{m-1})/{n*(m-1)+1})"))
        if m >= 3:
            upper = math.floor(equal_pair_bound(m, n))
            out.append(BoundRecord("gamma", "upper", upper, f"floor(C({n+m-1},{m-2})/2)"))
        out.append(BoundRecord("diameter", "exact", sr_diameter(m, n), f"min({m-1},{n})"))
    else:
        if n >= 2:
            out.append(BoundRecord("chi", "lower", m, f"m={m}"))
            out.append(BoundRecord("chi", "upper", p, f"p={p}"))
        if m >= 2 and n >= 2:
            out.append(BoundRecord("omega", "exact", max(n, m), f"max({n},{m})"))
        diam = csr_diameter(m, n)
        out.append(BoundRecord("diameter", "exact", diam, f"{m}-floor({m-1}/{n})-1"))
    return out


def hoffman_alpha_bound(m: int, n: int) -> Fraction:
    """Spectral independence bound for SR(m, n) as an exact rational,
    using the known least eigenvalue `sr_least_eigenvalue`."""
    spec = GraphSpec(SR, m, n)
    r = spec.degree
    lam = sr_least_eigenvalue(m, n)
    if r == 0 or lam == 0:
        return Fraction(spec.vertex_count)  # edgeless: every vertex fits
    return Fraction(-lam, r - lam) * spec.vertex_count

