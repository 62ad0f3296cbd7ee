"""Adjacency spectra: the dense eigensolve, integrality verdicts, least
eigenvalue checks, and the closed-form CSR spectrum.

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
from dataclasses import dataclass

import numpy as np

from . import config
from .core import SR, GraphSpec, check_cap, csr_spec, indexed_graph


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending with multiplicities merged at 1e-8."""

    size: int
    pairs: tuple[tuple[float, int], ...]
    integral: bool
    max_integer_deviation: float

    def values(self) -> list[float]:
        """Expanded eigenvalue list, descending."""
        return [value for value, mult in self.pairs for _ in range(mult)]

    def to_records(self) -> dict:
        """Serializable form: one {value, multiplicity} record per distinct
        eigenvalue plus the verdict fields."""
        return {
            "size": self.size,
            "eigenvalues": [
                {"value": value, "multiplicity": mult} for value, mult in self.pairs
            ],
            "integral": self.integral,
            "max_integer_deviation": self.max_integer_deviation,
        }

    @property
    def largest(self) -> float:
        return self.pairs[0][0]


def adjacency_matrix(spec: GraphSpec) -> np.ndarray:
    """Dense 0/1 adjacency in canonical vertex order."""
    return indexed_graph(spec).dense()


def eigenvalues(spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the dense adjacency matrix, as eigvalsh gives
    them, after the eigensolver-cap check."""
    check_cap(spec, config.eig_cap(cap), "eigensolver")
    return np.linalg.eigvalsh(adjacency_matrix(spec))


def spectrum(eig: np.ndarray, tolerance: float | None = None) -> Spectrum:
    """The eigenvalues from `eigenvalues`, grouped, with an integrality verdict."""
    ordered = np.sort(eig)[::-1]
    pairs: list[tuple[float, int]] = []
    group: list[float] = []
    for x in ordered:
        if group and abs(group[0] - x) > config.EIG_MERGE_TOL:
            pairs.append((float(np.mean(group)), len(group)))
            group = []
        group.append(float(x))
    if group:
        pairs.append((float(np.mean(group)), len(group)))
    deviation = float(np.max(np.abs(ordered - np.round(ordered)))) if len(ordered) else 0.0
    return Spectrum(len(ordered), tuple(pairs), deviation <= config.tol(tolerance), deviation)


@dataclass(frozen=True)
class LambdaMinCheck:
    computed: float
    predicted: int
    ok: bool


def lambda_min_check(
    spec: GraphSpec, eig: np.ndarray, tolerance: float | None = None
) -> LambdaMinCheck:
    """Compare the least eigenvalue eig[0] of an SR graph (not a Spectrum's
    group mean), from `eigenvalues`, against the known max(-n, -C(m, 2))."""
    if spec.family != SR:
        raise ValueError(f"least-eigenvalue formula applies to SR only, got {spec.label()}")
    predicted = max(-spec.n, -math.comb(spec.m, 2))
    computed = float(eig[0])
    return LambdaMinCheck(computed, predicted, abs(computed - predicted) <= config.tol(tolerance))


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


def complete_graph_spectrum(k: int) -> list[float]:
    """K_k adjacency spectrum: k-1 once, -1 with multiplicity k-1."""
    return [float(k - 1)] + [-1.0] * (k - 1)
