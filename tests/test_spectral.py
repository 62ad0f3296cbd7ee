"""Dense spectra, integrality, the SR least eigenvalue, the closed-form CSR
spectrum."""

import math
import random

import numpy as np
import pytest

from rooklab.core import csr_spec, enumerate_vertices, indexed_graph, sr_spec
from rooklab.errors import CapExceededError
from rooklab.metrics import hoffman_alpha_bound
from rooklab.oracles import oracle_alpha
from rooklab.spectral import (
    csr_character_spectrum,
    eigenvalues,
    integer_deviation,
    sr_least_eigenvalue,
)

from reference import neighbors


def complete_graph_spectrum(k):
    """K_k adjacency spectrum, ascending: -1 with multiplicity k-1, then k-1."""
    return [-1] * (k - 1) + [k - 1]


def test_sr32_spectrum():
    eig = eigenvalues(sr_spec(3, 2))
    assert len(eig) == 6
    assert abs(eig[-1] - 4) < 1e-9  # regularity degree
    assert integer_deviation(eig) < 1e-9
    assert abs(eig.sum()) < 1e-9  # zero trace


@pytest.mark.parametrize("n", range(1, 7))
def test_sr2_complete_graph_spectrum(n):
    eig = eigenvalues(sr_spec(2, n))
    assert np.allclose(eig, complete_graph_spectrum(n + 1), atol=1e-9)


def test_csr32_is_k4():
    assert np.round(eigenvalues(csr_spec(3, 2))).tolist() == [-1, -1, -1, 3]


def test_integer_deviation():
    assert integer_deviation(np.array([2.0, -1.25, 0.5, 3.0])) == 0.5
    assert integer_deviation(np.array([0.5, -1.25, 2.0, 3.0])) == 0.5  # order-free
    assert integer_deviation(np.array([-1.0, 4.0])) == 0.0
    assert integer_deviation(np.array([])) == 0.0


@pytest.mark.parametrize(
    "m,n,expected",
    [(3, 2, -2), (3, 4, -3), (2, 5, -1)],
)
def test_lambda_min_examples(m, n, expected):
    assert sr_least_eigenvalue(m, n) == expected == max(-n, -math.comb(m, 2))
    assert abs(eigenvalues(sr_spec(m, n))[0] - expected) <= 1e-6


def test_character_spectrum_matches_dense():
    checked = 0
    for m in range(1, 7):
        for n in range(1, 9):
            spec = csr_spec(m, n)
            if spec.vertex_count > 256:
                continue
            deviation = np.max(np.abs(eigenvalues(spec) - csr_character_spectrum(m, n)))
            assert deviation <= 1e-6, (m, n)
            checked += 1
    assert checked >= 30


def test_character_spectrum_complete_graph():
    # CSR(2, n) is complete on n vertices
    for n in range(2, 8):
        assert csr_character_spectrum(2, n).tolist() == complete_graph_spectrum(n)


def test_character_spectrum_csr33():
    assert csr_character_spectrum(3, 3).tolist() == [-3, -3] + [0] * 6 + [6]



@pytest.mark.parametrize("k", range(1, 7))
def test_character_spectrum_single_vertex(k):
    # CSR(m, 1) and CSR(1, n) have one vertex and no edges
    assert csr_character_spectrum(k, 1).tolist() == [0]
    assert csr_character_spectrum(1, k).tolist() == [0]


def test_character_spectrum_is_exact_integer():
    chars = csr_character_spectrum(4, 5)
    assert chars.dtype == np.int64
    assert chars.tolist() == sorted(chars.tolist())
    assert chars[-1] == csr_spec(4, 5).degree  # the trivial character


def test_character_spectrum_cap():
    with pytest.raises(CapExceededError, match="enumeration cap 26"):
        csr_character_spectrum(4, 3, cap=26)
    assert len(csr_character_spectrum(4, 3, cap=27)) == 27

def test_spectrum_invariant_under_relabeling():
    spec = sr_spec(3, 3)
    base = np.sort(np.linalg.eigvalsh(indexed_graph(spec).dense()))
    verts = enumerate_vertices(spec)
    rng = random.Random(7)
    perm = list(range(len(verts)))
    rng.shuffle(perm)
    index = {v: i for i, v in enumerate(verts)}
    shuffled = np.zeros((len(verts), len(verts)))
    for v in verts:
        for w in neighbors(spec, v):
            shuffled[perm[index[v]], perm[index[w]]] = 1.0
    assert np.allclose(np.sort(np.linalg.eigvalsh(shuffled)), base)


def test_hoffman_bound_from_spectrum():
    # recompute the bound from the measured least eigenvalue and compare
    for m, n in [(3, 2), (3, 5), (4, 3)]:
        spec = sr_spec(m, n)
        eig = np.linalg.eigvalsh(indexed_graph(spec).dense())
        lam = eig[0]
        r = spec.degree
        measured = (-lam / (r - lam)) * spec.vertex_count
        assert abs(measured - float(hoffman_alpha_bound(m, n))) < 1e-6
        assert oracle_alpha(spec)[0] <= measured + 1e-9


def test_eigensolver_cap():
    with pytest.raises(CapExceededError):
        eigenvalues(sr_spec(6, 30), cap=50)
