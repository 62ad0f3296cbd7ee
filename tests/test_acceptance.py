"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Stated runtime budgets are asserted with time.monotonic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from rooklab.automorphisms import (
    enumerate_group,
    group_order_formula,
    oracle_aut_count,
)
from rooklab.cli import main
from rooklab.constructions import (
    anchor_edge,
    dominating_set_sr,
    hamiltonian_cycle_sr,
    residue_independent_family,
)
from rooklab.core import csr_spec, sr_spec
from rooklab.hardness import ThreePartitionInstance, run_reduction
from rooklab.metrics import (
    bounds_report,
    csr_diameter,
    zero_partition_number,
)
from rooklab.oracles import (
    all_pairs_distances,
    oracle_alpha,
    oracle_gamma,
    verify_cycle,
)
from rooklab.spectral import eigenvalues, integer_deviation, lambda_min_check

from descriptors import edge_array, preserves_adjacency
from reference import edges


def _gate(num: int, description: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}"


def test_c01_alpha_sr3_closed_form():
    start = time.monotonic()
    ok = True
    for n in range(0, 13):
        spec = sr_spec(3, n)
        alpha = oracle_alpha(spec)[0]
        ok &= alpha == 1 + (2 * n) // 3
        fam = residue_independent_family(spec)
        total = spec.vertex_count
        ok &= fam.best_size >= -(-total // fam.p)
        if n >= 1:
            ok &= total // 3 >= alpha  # the spectral upper bound, floor applied
        bounds = {(b.quantity, b.side): b.value for b in bounds_report(spec)}
        ok &= bounds["alpha", "upper"] >= alpha  # edgeless n=0 falls back to |V|
    elapsed = time.monotonic() - start
    _gate(1, "alpha(SR(3,n)) = 1 + floor(2n/3) for n <= 12 with class and spectral bounds", ok and elapsed < 60, elapsed)


def test_c02_hamiltonian_sweep():
    start = time.monotonic()
    ok = True
    for m in range(2, 6):
        for n in range(1, 6):
            if (m, n) == (2, 1):
                continue
            cycle = hamiltonian_cycle_sr(m, n)
            verdict = verify_cycle(sr_spec(m, n), cycle.tolist(), anchor_edge(m, n))
            ok &= verdict.valid
    elapsed = time.monotonic() - start
    _gate(2, "Hamiltonian cycles pass the checker for 2<=m<=5, 1<=n<=5 minus (2,1)", ok and elapsed < 10, elapsed)


def test_c03_csr_distance_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for m in range(1, 7):
        for n in range(1, 5):
            spec = csr_spec(m, n)
            verts, bfs = all_pairs_distances(spec)
            weights = np.array([n**i for i in range(m)], dtype=np.int64)
            tau_by_code = np.full(n**m, -1, dtype=np.int64)
            for v in verts:
                code = int(np.dot(np.array(v, dtype=np.int64), weights))
                tau_by_code[code] = zero_partition_number(v, n)[0]
            coords = np.array(verts, dtype=np.int64).reshape(len(verts), m)
            diff = (coords[None, :, :] - coords[:, None, :]) % n
            predicted = m - tau_by_code[diff @ weights]
            ok &= bool((predicted == bfs).all())
            ok &= int(bfs.max()) == csr_diameter(m, n) == m - (m - 1) // n - 1
    elapsed = time.monotonic() - start
    _gate(3, "formula distance = BFS for every pair, CSR m<=6 n<=4; eccentricity = diameter", ok and elapsed < 120, elapsed)


def test_c04_zero_partition_worked_example():
    vertex = (2, 2, 1, 0, 2, 2)
    count, witness = zero_partition_number(vertex, 3)
    ok = count == 3 and witness.size == 3 and witness.check(vertex)
    _gate(4, "zero partitioning number of (2,2,1,0,2,2) mod 3 is 3 with a re-validating witness", ok)


def test_c05_sr_spectral_integrality():
    start = time.monotonic()
    ok = True
    for m in range(1, 9):
        for n in range(0, 9):
            spec = sr_spec(m, n)
            if spec.vertex_count > 500:
                continue
            eig = eigenvalues(spec)
            ok &= integer_deviation(eig) <= 1e-6
            chk = lambda_min_check(spec, eig, tolerance=1e-6)
            ok &= chk.ok
    elapsed = time.monotonic() - start
    _gate(5, "SR spectra integral and least eigenvalue max(-n,-C(m,2)) within 1e-6 (<=500 vertices, m,n<=8)", ok and elapsed < 120, elapsed)


def test_c06_csr44_automorphism_group():
    start = time.monotonic()
    spec = csr_spec(4, 4)
    expected = group_order_formula(4, 4)
    ok = expected == 3072
    edge_list = edge_array(edges(spec))
    count = 0
    for desc in enumerate_group(4, 4):
        count += 1
        ok &= preserves_adjacency(desc, edge_list)
    ok &= count == expected
    ok &= oracle_aut_count(spec) == expected
    elapsed = time.monotonic() - start
    _gate(6, "Aut(CSR(4,4)) has order 3072 by enumeration, full scan, and backtracking", ok and elapsed < 300, elapsed)


def test_c07_sr_automorphism_counts():
    ok = oracle_aut_count(sr_spec(3, 4)) == 6
    ok &= oracle_aut_count(sr_spec(3, 3)) == 12
    _gate(7, "automorphism counts 6 for SR(3,4) and 12 for SR(3,3)", ok)


def test_c08_domination_sandwich():
    start = time.monotonic()
    ok = True
    for m in (3, 4):
        n = 0
        while sr_spec(m, n).vertex_count <= 120:
            spec = sr_spec(m, n)
            gamma = oracle_gamma(spec)[0]
            dom = dominating_set_sr(m, n)
            lower = -(-spec.vertex_count // (spec.degree + 1))
            ok &= lower <= gamma <= dom.size
            ok &= dom.size == sum(
                math.comb(n + m - 3 - 2 * i, m - 3) for i in range(n // 2 + 1)
            )
            ok &= Fraction(dom.size) <= Fraction(math.comb(n + m - 1, m - 2), 2)
            n += 1
    elapsed = time.monotonic() - start
    _gate(8, "degree bound <= gamma <= |D| with |D| matching its sum formula and half-binomial cap", ok, elapsed)


def _random_instance(rng: random.Random) -> ThreePartitionInstance | None:
    # k >= 2 dominates the draw; k = 1 instances are always yes-instances
    k = rng.choice((1, 2, 2, 3, 3))
    s = rng.randint(4, 20)
    lo, hi = s // 4 + 1, (s - 1) // 2
    if lo > hi:
        return None
    values = [rng.randint(lo, hi) for _ in range(3 * k)]
    for _ in range(200):
        delta = k * s - sum(values)
        if delta == 0:
            break
        i = rng.randrange(3 * k)
        if delta > 0 and values[i] < hi:
            values[i] += 1
        elif delta < 0 and values[i] > lo:
            values[i] -= 1
    if sum(values) != k * s:
        return None
    return ThreePartitionInstance(k, s, tuple(values))


def test_c09_reduction_agrees_with_solver():
    rng = random.Random(20260810)
    results = []
    attempts = 0
    while attempts < 3000 and (
        len(results) < 20
        or sum(1 for r in results if r.solver_answer) < 8
        or sum(1 for r in results if not r.solver_answer) < 8
    ):
        attempts += 1
        inst = _random_instance(rng)
        if inst is None:
            continue
        results.append(run_reduction(inst))
    yes = sum(1 for r in results if r.solver_answer)
    no = len(results) - yes
    ok = len(results) >= 20 and yes >= 8 and no >= 8
    ok &= all(r.agree for r in results)
    _gate(9, f"decode(distance) = solver answer on {len(results)} instances ({yes} yes / {no} no)", ok)


def test_c10_strict_analyze_surfaces_csr32_gaps(capsys):
    code = main(["analyze", "--family", "csr", "-m", "3", "-n", "2", "--oracle", "all", "--strict"])
    out = capsys.readouterr().out
    ok = code != 0
    ok &= "oracle 4 != formula 3" in out
    ok &= "proper=False" in out
    with capsys.disabled():
        _gate(10, "strict analyze of CSR(3,2) exits nonzero, reporting omega 4 vs 3 and the improper coloring", ok)
