"""Adjacency spectra: the dense eigensolve, integrality verdicts, the SR
least eigenvalue formula, and the closed-form CSR spectrum.

`eigenvalues` is the package's one eigensolve.  CSR(m, n) is a Cayley graph
on the zero-sum subgroup H of Z_n^m with connection set
S = {a(e_i - e_j) : i < j, a != 0}, so its spectrum also has a closed form
with no matrix (Babai, "Spectra of Cayley graphs", JCTB 1979).  The
characters of H are x -> w^<y, x> with w = exp(2 pi i / n), one per coset
y + <(1, ..., 1)>, and the eigenvalue at y is the character sum over S:

    lambda(y) = sum_{i<j} sum_{a=1}^{n-1} w^(a (y_i - y_j))
              = sum_{i<j} (n [y_i = y_j] - 1) = n E(y) - C(m, 2),

where E(y) counts the pairs i < j with y_i = y_j.  The two routes must
agree, which is one of the package's cross-checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import config
from .core import GraphSpec, check_cap, csr_spec, indexed_graph


def eigenvalues(spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the dense adjacency matrix, as eigvalsh gives
    them, after the eigensolver-cap check."""
    check_cap(spec, config.eig_cap(cap), "eigensolver")
    return np.linalg.eigvalsh(indexed_graph(spec).dense())


def integer_deviation(eig: np.ndarray) -> float:
    """Largest distance from an eigenvalue to the nearest integer, 0 for none."""
    return float(np.max(np.abs(eig - np.round(eig)))) if len(eig) else 0.0


def sr_least_eigenvalue(m: int, n: int) -> int:
    """The least adjacency eigenvalue of SR(m, n), max(-n, -C(m, 2))
    (Martin & Wagner, Graphs Combin. 2015)."""
    return max(-n, -math.comb(m, 2))


def csr_character_spectrum(m: int, n: int, cap: int | None = None) -> np.ndarray:
    """Ascending int64 CSR(m, n) spectrum n E(y) - C(m, 2), exact.

    y runs over the coset representatives with last coordinate 0, that is
    the vertices with their last coordinate set to 0; `cap` is the
    enumeration cap.
    """
    y = indexed_graph(csr_spec(m, n), cap).coords.copy()
    y[:, -1] = 0
    equal = np.zeros(len(y), dtype=np.int64)
    for i, j in itertools.combinations(range(m), 2):
        equal += y[:, i] == y[:, j]
    return np.sort(n * equal - math.comb(m, 2))

