"""Zero partitionings, CSR distances, diameters, closed-form bounds."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from rooklab import config, metrics
from rooklab.constructions import equal_pair_bound, equal_pair_size
from rooklab.core import csr_spec, enumerate_vertices, sr_spec
from rooklab.errors import CapExceededError
from rooklab.metrics import (
    bounds_report,
    csr_diameter,
    csr_distance_witness,
    csr_eccentric_vertex,
    hoffman_alpha_bound,
    sr_diameter,
    zero_partition_number,
)
from rooklab.oracles import oracle_alpha

from bfs import oracle_distances
from reference import is_zero_partition, layered_partition_tables


def brute_zero_partition_number(b, n):
    """Independent oracle: exhaust all set partitions of the index set."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    best = 0
    for part in partitions(list(range(len(b)))):
        if all(sum(b[i] for i in blk) % n == 0 for blk in part):
            best = max(best, len(part))
    return best


def submask_zero_partition(b, n):
    """Reference oracle: the O(3^m) submask DP.  t[S] is the best block
    count of the index subset S over zero-sum blocks holding S's lowest
    index; ties go to the numerically smallest block mask."""
    m = len(b)
    full = (1 << m) - 1
    sums = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        sums[mask] = (sums[mask ^ low] + b[low.bit_length() - 1]) % n

    best = [-1] * (full + 1)  # -1: subset has no zero partitioning
    choice = [0] * (full + 1)
    best[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        top = -1
        pick = 0
        sub = rest
        while True:
            block = sub | low
            if sums[block] == 0 and best[mask ^ block] >= 0:
                cand = 1 + best[mask ^ block]
                if cand > top or (cand == top and block < pick):
                    top, pick = cand, block
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask], choice[mask] = top, pick

    blocks = []
    mask = full
    while mask:
        block = choice[mask]
        blocks.append(tuple(i for i in range(m) if block >> i & 1))
        mask ^= block
    return best[full], tuple(blocks)


def walk_zero_partition(b, n):
    """Reference: the O(2^m * m) layer DP with a witness search that walks
    the candidate submasks one by one in Python."""
    m = len(b)
    zero, dp = layered_partition_tables(tuple(x % n for x in b), n)

    blocks = []
    rest = (1 << m) - 1
    while rest:
        low = rest & -rest
        others = rest ^ low
        target = dp[rest] - 1
        sub = 0
        while not (zero[sub | low] and dp[others ^ sub] == target):
            sub = (sub - others) & others
        block = sub | low
        blocks.append(tuple(i for i in range(m) if block >> i & 1))
        rest ^= block
    return int(dp[-1]), tuple(blocks)


def _random_csr_vertex(rng, m, n):
    coords = [rng.randrange(n) for _ in range(m - 1)]
    coords.append((-sum(coords)) % n)
    return tuple(coords)


def test_zero_partition_matches_submask_oracle():
    rng = random.Random(20211)
    cases = [(1, 1), (1, 7), (5, 1), (12, 1)]
    cases += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(496)]
    for m, n in cases:
        b = _random_csr_vertex(rng, m, n)
        assert zero_partition_number(b, n) == submask_zero_partition(b, n), (b, n)


@pytest.mark.parametrize("seed_offset", [0, 3, 256])
def test_zero_partition_witness_matches_walk(seed_offset):
    # three independent batches of 300 random vertices; offset 0 is the first batch
    rng = random.Random(20261018 + seed_offset)
    for _ in range(300):
        m, n = rng.randint(1, 13), rng.choice([2, 3, 5, 12, 40, 1000])
        b = _random_csr_vertex(rng, m, n)
        assert zero_partition_number(b, n) == walk_zero_partition(b, n), (b, n)


def test_zero_partition_witness_matches_walk_up_to_16_coordinates():
    # 1,000 random vertices, m <= 16, some with zero coordinates or a modulus past uint64
    rng = random.Random(20261020)
    for _ in range(1000):
        m, n = rng.randint(1, 16), rng.choice([2, 3, 5, 12, 40, 1000, 10**20])
        b = [0 if rng.random() < 0.2 else x for x in _random_csr_vertex(rng, m, n)]
        b[-1] = (-sum(b[:-1])) % n
        assert zero_partition_number(b, n) == walk_zero_partition(b, n), (b, n)


@pytest.mark.parametrize("m", range(2, 19))
def test_zero_partition_single_block_matches_walk(m):
    # the whole index set is the only zero-sum block: the walk visits all
    # 2^(m-1) candidates
    n = 1000
    b = (1,) * (m - 1) + (n - m + 1,)
    assert zero_partition_number(b, n) == walk_zero_partition(b, n) == (1, (tuple(range(m)),))


@pytest.mark.parametrize("m", range(19, config.DEFAULT_MASK_LIMIT + 1))
def test_zero_partition_single_block_up_to_mask_limit(m):
    # as above, up to the default mask limit, where the walk reference is too slow
    n = 1000
    assert zero_partition_number((1,) * (m - 1) + (n - m + 1,), n) == (1, (tuple(range(m)),))


def test_zero_partition_huge_modulus():
    # past int64 the subset sums are exact Python integers
    n = 10**20
    b = (n - 1, 1, 5, n - 5, 7, n - 3, n - 4)
    count, blocks = zero_partition_number(b, n)
    assert (count, blocks) == submask_zero_partition(b, n)
    assert count == 3 and is_zero_partition(blocks, b, n)


def test_zero_partition_mask_limit_reachable():
    b = (1,) * 20
    count, blocks = zero_partition_number(b, 4)
    assert count == 5
    assert is_zero_partition(blocks, b, 4)
    assert blocks[0] == (0, 1, 2, 3)


def test_zero_partition_out_of_memory_is_cap_error(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(CapExceededError, match="subset-sum array of shape 64"):
        zero_partition_number((1,) * 6, 2)


def _members(bitset, size):
    """The 0/1 uint8 array with bit S of bitset at index S, S < size."""
    assert bitset >> size == 0
    packed = np.frombuffer(bitset.to_bytes(max(1, size // 8), "little"), np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little")


def _assert_tables_match_layered(values, n):
    zero_sets, without, rounds = metrics._partition_tables(list(values), n)
    ref_zero, ref_dp = layered_partition_tables(values, n)
    size = 1 << len(values)
    assert len(without) == len(values)
    for i, w in enumerate(without):
        assert np.array_equal(_members(w, size), np.arange(size) >> i & 1 ^ 1), (values, n, i)
    assert _members(zero_sets, size).tobytes() == ref_zero.tobytes(), (values, n)
    # dp[S] is the number of rounds that hold S
    dp = sum((_members(r, size) for r in rounds), np.zeros(size, np.uint8))
    assert all(rounds) and dp.tobytes() == ref_dp.tobytes(), (values, n)


def test_partition_tables_match_layered_fill():
    # 1,000 random nonzero coordinate lists, m <= 12, as zero_partition_number passes them
    rng = random.Random(2021_26)
    for _ in range(1000):
        m, n = rng.randint(0, 12), rng.randint(2, 40)
        _assert_tables_match_layered(tuple(rng.randrange(1, n) for _ in range(m)), n)


def test_partition_tables_match_layered_fill_with_zero_coordinates():
    # zero coordinates are zero-sum singletons, so dp passes the floor(m/2) of nonzero
    # coordinates: on twelve zeros it reaches 12, in 13 rounds
    rng = random.Random(2021_27)
    for m in range(1, 13):
        n = rng.randint(2, 9)
        values = tuple(rng.choice((0, rng.randrange(n))) for _ in range(m))
        _assert_tables_match_layered(values, n)
    _assert_tables_match_layered((0,) * 12, 5)


def test_partition_tables_match_layered_fill_modulus_one():
    # every subset sums to 0 mod 1: dp[S] = |S|
    for m in range(13):
        _assert_tables_match_layered((0,) * m, 1)


def test_partition_tables_match_layered_fill_huge_modulus():
    # past uint64 both fills sum in object dtype
    n = 10**20
    rng = random.Random(2021_28)
    for m in range(1, 13):
        # pairs x, n - x, so that dp counts several blocks, and one odd value out
        values = [rng.randrange(1, n) for _ in range(m // 2 + m % 2)]
        values += [n - x for x in values[: m // 2]]
        rng.shuffle(values)
        _assert_tables_match_layered(tuple(values), n)


def test_zero_partition_default_mask_limit_worst_rounds():
    # 22 ones mod 2 at the default mask limit: A_1..A_11 are nonempty and the
    # twelfth round finds none, the most rounds any 22 nonzero coordinates take
    count, blocks = zero_partition_number((1,) * 22, 2)
    assert count == 11
    assert blocks == tuple((i, i + 1) for i in range(0, 22, 2))
    assert len(metrics._partition_tables([1] * 22, 2)[2]) == 11


def test_zero_partition_bitset_out_of_memory_is_cap_error(monkeypatch):
    # a MemoryError inside the rounds: where round 1 starts to grow its seeds
    def enumerate_out_of_memory(items, *args):
        if items is sys._getframe(1).f_locals.get("without"):
            raise MemoryError
        return enumerate(items, *args)

    monkeypatch.setattr(metrics, "enumerate", enumerate_out_of_memory, raising=False)
    with pytest.raises(CapExceededError, match="the subset bitsets of shape 64 do not fit in memory"):
        zero_partition_number((1,) * 6, 2)


def test_zero_partition_worked_example():
    count, blocks = zero_partition_number((2, 2, 1, 0, 2, 2), 3)
    assert count == 3
    assert len(blocks) == 3
    assert is_zero_partition(blocks, (2, 2, 1, 0, 2, 2), 3)


def test_is_zero_partition_rejects_bad_blocks():
    b = (2, 2, 1, 0, 2, 2)
    assert is_zero_partition(((0, 1, 4), (2, 5), (3,)), b, 3)
    assert not is_zero_partition(((0, 1, 4), (2, 5), (3, 5)), b, 3)  # 5 twice
    assert not is_zero_partition(((0, 1, 4), (2, 5)), b, 3)  # misses 3
    assert not is_zero_partition(((0, 1), (2, 4, 5), (3,)), b, 3)  # 2 + 2 = 1 mod 3


def test_zero_partition_trivial_cases():
    assert zero_partition_number((0,) * 6, 4)[0] == 6
    count, blocks = zero_partition_number((1, 1, 1, 1), 2)
    assert count == 2 == brute_zero_partition_number((1, 1, 1, 1), 2)
    assert blocks == ((0, 1), (2, 3))


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3), (4, 3), (5, 2), (5, 3), (4, 4), (2, 5)])
def test_zero_partition_matches_brute_force(m, n):
    for v in enumerate_vertices(csr_spec(m, n)):
        count, blocks = zero_partition_number(v, n)
        assert count == brute_zero_partition_number(v, n)
        assert len(blocks) == count and is_zero_partition(blocks, v, n)


def test_zero_partition_permutation_invariant():
    rng = random.Random(1723)
    for _ in range(25):
        n = rng.randint(2, 5)
        m = rng.randint(2, 7)
        coords = [rng.randrange(n) for _ in range(m - 1)]
        coords.append((-sum(coords)) % n)
        base = zero_partition_number(tuple(coords), n)[0]
        perm = coords[:]
        rng.shuffle(perm)
        assert zero_partition_number(tuple(perm), n)[0] == base


def test_zero_partition_unit_scaling_invariant():
    import math

    rng = random.Random(97)
    for _ in range(25):
        n = rng.choice([2, 3, 4, 5, 6])
        units = [c for c in range(1, n) if math.gcd(c, n) == 1]
        m = rng.randint(2, 6)
        coords = [rng.randrange(n) for _ in range(m - 1)]
        coords.append((-sum(coords)) % n)
        base = zero_partition_number(tuple(coords), n)[0]
        c = rng.choice(units)
        scaled = tuple(c * x % n for x in coords)
        assert zero_partition_number(scaled, n)[0] == base


def test_zero_partition_mask_limit_counts_nonzero_coordinates():
    # zero coordinates are singleton blocks outside the DP, so only the
    # nonzero ones count against the mask limit
    count, blocks = zero_partition_number((0,) * 30, 2)
    assert count == 30 and blocks == tuple((i,) for i in range(30))
    b = (0, 4, 0, 1, 1, 1, 1, 1, 1, 1, 3) + (0,) * 29
    count, blocks = zero_partition_number(b, 7)
    assert count == 33 and is_zero_partition(blocks, b, 7)
    assert blocks == ((0,), (1, 3, 4, 5), (2,), (6, 7, 8, 9, 10)) + tuple(
        (i,) for i in range(11, 40)
    )
    dist, _ = csr_distance_witness(csr_spec(40, 7), (0,) * 40, b)
    assert dist == 7
    with pytest.raises(CapExceededError, match="28 nonzero coordinates mod 7"):
        zero_partition_number((1,) * 28 + (0,) * 12, 7)
    # the witness is the one the DP over every coordinate gives
    rng = random.Random(40)
    for _ in range(200):
        m, n = rng.randint(1, 12), rng.choice([2, 3, 5, 12])
        b = tuple(0 if rng.random() < 0.5 else x for x in _random_csr_vertex(rng, m, n))
        b = b[:-1] + ((-sum(b[:-1])) % n,)
        assert zero_partition_number(b, n) == walk_zero_partition(b, n), (b, n)


def test_zero_partition_validation():
    with pytest.raises(ValueError, match="sum"):
        zero_partition_number((1, 0, 0), 2)
    with pytest.raises(CapExceededError, match="24 nonzero coordinates mod 2"):
        zero_partition_number((1,) * 24, 2)
    with pytest.raises(ValueError):
        zero_partition_number((0, 0), 0)


# -- distances ---------------------------------------------------------------------


def test_csr_distance_examples():
    spec = csr_spec(4, 2)
    assert csr_distance_witness(spec, (0, 0, 0, 0), (1, 1, 1, 1))[0] == 2
    assert oracle_distances(spec, (0, 0, 0, 0))[(1, 1, 1, 1)] == 2
    assert csr_distance_witness(spec, (1, 1, 0, 0), (1, 1, 0, 0))[0] == 0

    spec33 = csr_spec(3, 3)
    assert csr_distance_witness(spec33, (0, 0, 0), (2, 2, 2))[0] == 2
    assert oracle_distances(spec33, (0, 0, 0))[(2, 2, 2)] == 2


def test_csr_distance_witness_revalidates():
    spec = csr_spec(5, 3)
    u, v = (1, 2, 0, 0, 0), (0, 1, 1, 0, 1)
    dist, blocks = csr_distance_witness(spec, u, v)
    diff = tuple((b - a) % 3 for a, b in zip(u, v))
    assert is_zero_partition(blocks, diff, 3)
    assert dist == 5 - len(blocks)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_csr_distance_equals_bfs_all_pairs(m, n):
    spec = csr_spec(m, n)
    verts = enumerate_vertices(spec)
    for u in verts:
        bfs = oracle_distances(spec, u)
        for v in verts:
            assert csr_distance_witness(spec, u, v)[0] == bfs[v]


def test_csr_distance_rejects_sr():
    with pytest.raises(ValueError, match="CSR only"):
        csr_distance_witness(sr_spec(3, 2), (0, 0, 2), (1, 1, 0))


def test_csr_distance_large_instance_spot_check():
    # one full BFS on the biggest desk-scale instance the invariants name
    spec = csr_spec(7, 5)
    source = (0,) * 7
    bfs = oracle_distances(spec, source)
    rng = random.Random(41)
    targets = rng.sample(sorted(bfs), 60)
    for v in targets:
        assert csr_distance_witness(spec, source, v)[0] == bfs[v]


# -- diameters ---------------------------------------------------------------------


def test_diameter_formulas():
    assert csr_diameter(4, 2) == 2
    assert csr_diameter(6, 3) == 4
    assert sr_diameter(3, 2) == 2
    assert sr_diameter(5, 1) == 1
    assert sr_diameter(1, 4) == 0
    assert csr_diameter(3, 1) == 0


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 5)])
def test_csr_diameter_against_bfs_and_witness(m, n):
    spec = csr_spec(m, n)
    diam = csr_diameter(m, n)
    ecc = {}
    for v in enumerate_vertices(spec):
        ecc[v] = max(oracle_distances(spec, v).values())
    assert max(ecc.values()) == diam
    witness = csr_eccentric_vertex(m, n)
    assert csr_distance_witness(spec, (0,) * m, witness)[0] == diam
    # minimum block count over all vertices pins the diameter from below
    assert min(
        zero_partition_number(v, n)[0] for v in enumerate_vertices(spec)
    ) == 1 + (m - 1) // n


@pytest.mark.parametrize("m,n", [(2, 4), (3, 2), (3, 4), (4, 2), (4, 3)])
def test_sr_diameter_against_bfs(m, n):
    spec = sr_spec(m, n)
    diam = max(
        max(oracle_distances(spec, v).values()) for v in enumerate_vertices(spec)
    )
    assert diam == sr_diameter(m, n)


# -- bounds ------------------------------------------------------------------------


def bound_values(spec):
    return {(b.quantity, b.side): b.value for b in bounds_report(spec)}


def test_bounds_sr32():
    report = bound_values(sr_spec(3, 2))
    assert report["alpha", "lower"] == 2 and report["alpha", "upper"] == 2
    assert oracle_alpha(sr_spec(3, 2))[0] == 2
    assert report["gamma", "lower"] == 2 and report["gamma", "upper"] == 2
    assert report["diameter", "exact"] == 2


def test_bounds_sr34_gamma():
    report = bound_values(sr_spec(3, 4))
    assert report["gamma", "lower"] == 2  # ceil(15/9)
    assert report["gamma", "upper"] == 3  # floor(C(6,1)/2), met by gamma = 3


def test_bounds_sr36():
    report = bound_values(sr_spec(3, 6))
    assert bounds_report(sr_spec(3, 6))[0].formula == "ceil(C(8,6)/7)"  # p = 7
    assert report["alpha", "lower"] == 4  # ceil(28/7)
    assert report["alpha", "upper"] == 9  # floor(28/3)
    assert oracle_alpha(sr_spec(3, 6))[0] == 5


def test_bounds_csr45():
    report = bound_values(csr_spec(4, 5))
    assert report["chi", "lower"] == 4 and report["chi", "upper"] == 5
    assert report["omega", "exact"] == 5
    assert ("alpha", "lower") not in report and ("gamma", "lower") not in report


def test_bounds_edgeless_sr():
    report = bound_values(sr_spec(3, 0))
    assert report["alpha", "upper"] == 1  # spectral bound does not apply without edges


def test_bounds_gamma_upper_is_equal_pair_bound():
    # the closed forms checked against each other beyond the enumerated range
    for m in range(3, 8):
        for n in range(11):
            upper = bound_values(sr_spec(m, n))["gamma", "upper"]
            assert upper == math.floor(equal_pair_bound(m, n)), (m, n)
            assert upper >= equal_pair_size(m, n), (m, n)


def test_hoffman_bound_values():
    assert hoffman_alpha_bound(3, 6) == Fraction(28, 5)
    assert hoffman_alpha_bound(3, 2) == Fraction(2)  # n <= C(m,2): collapses to |V|/m
    assert hoffman_alpha_bound(1, 4) == 1


@pytest.mark.parametrize("m,n", [(3, n) for n in range(1, 8)] + [(4, n) for n in range(1, 5)])
def test_hoffman_dominates_oracle_alpha(m, n):
    assert hoffman_alpha_bound(m, n) >= oracle_alpha(sr_spec(m, n))[0]

