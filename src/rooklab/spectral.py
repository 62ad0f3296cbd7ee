"""Adjacency spectra: dense eigensolves, integrality verdicts, least
eigenvalue checks, and the character-sum spectrum for CSR.

CSR(m, n) is a Cayley graph on the zero-sum subgroup of Z_n^m (isomorphic
to Z_n^(m-1)), so its spectrum is also computable without forming a matrix:
one character sum over the connection set per group element.  The two
routes must agree, which is one of the package's cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .core import SR, GraphSpec, check_cap, csr_spec, indexed_graph
from .errors import CapExceededError


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


def _make_spectrum(values: np.ndarray, tolerance: float) -> Spectrum:
    ordered = np.sort(values)[::-1]
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
    return Spectrum(len(ordered), tuple(pairs), deviation <= tolerance, deviation)


def adjacency_matrix(spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Dense 0/1 adjacency in canonical vertex order."""
    check_cap(spec, config.eig_cap(cap), "eigensolver")
    return indexed_graph(spec).dense()


def eigenvalues(spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the dense adjacency matrix, as eigvalsh gives them."""
    return np.linalg.eigvalsh(adjacency_matrix(spec, cap))


def spectrum(
    spec: GraphSpec,
    cap: int | None = None,
    tolerance: float | None = None,
    eig: np.ndarray | None = None,
) -> Spectrum:
    """Dense symmetric eigendecomposition with an integrality verdict; pass
    `eig` from `eigenvalues` to reuse one eigensolve."""
    eig = eigenvalues(spec, cap) if eig is None else eig
    return _make_spectrum(eig, config.tol(tolerance))


@dataclass(frozen=True)
class LambdaMinCheck:
    computed: float
    predicted: int
    ok: bool


def lambda_min_check(
    spec: GraphSpec,
    cap: int | None = None,
    tolerance: float | None = None,
    eig: np.ndarray | None = None,
) -> LambdaMinCheck:
    """Compare the least eigenvalue eig[0] of an SR graph (not a Spectrum's
    group mean) against the known max(-n, -C(m, 2)); pass `eig` from
    `eigenvalues` to reuse one eigensolve."""
    if spec.family != SR:
        raise ValueError(f"least-eigenvalue formula applies to SR only, got {spec.label()}")
    eig = eigenvalues(spec, cap) if eig is None else eig
    predicted = max(-spec.n, -math.comb(spec.m, 2))
    computed = float(eig[0])
    return LambdaMinCheck(computed, predicted, abs(computed - predicted) <= config.tol(tolerance))


def csr_character_spectrum(
    m: int, n: int, cap: int | None = None, tolerance: float | None = None
) -> Spectrum:
    """CSR spectrum via character sums over Z_n^(m-1), no matrix formed.

    The connection set, written in the free coordinates (the last coordinate
    of a vertex is determined), is every nonzero multiple of f_i - f_j for
    i < j plus every nonzero multiple of each f_i alone.  The eigenvalue at
    group element y is the sum of exp(2*pi*i*<y, s>/n) over the connection
    set; symmetry of the set forces real values.
    """
    spec = csr_spec(m, n)
    limit = config.enum_cap(cap)
    count = spec.vertex_count
    if count > limit:
        raise CapExceededError(
            f"{spec.label()} has {count} group elements, over the enumeration cap {limit}"
        )
    free = m - 1
    if free == 0 or n == 1:
        return _make_spectrum(np.zeros(count), config.tol(tolerance))

    conn: list[list[int]] = []
    for i in range(free):
        for alpha in range(1, n):
            row = [0] * free
            row[i] = alpha
            conn.append(row)
    for i in range(free):
        for j in range(i + 1, free):
            for alpha in range(1, n):
                row = [0] * free
                row[i] = alpha
                row[j] = (-alpha) % n
                conn.append(row)
    sset = np.array(conn, dtype=np.int64)  # (C(m,2)(n-1), free)

    eigenvalues = np.empty(count)
    chunk = 4096
    shape = (n,) * free
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count))
        block = np.stack(np.unravel_index(idx, shape), axis=1).astype(np.int64)
        phases = np.exp(2j * np.pi * (block @ sset.T % n) / n).sum(axis=1)
        if np.max(np.abs(phases.imag)) > 1e-9:
            raise AssertionError("character sums produced a non-real eigenvalue")
        eigenvalues[start : start + len(block)] = phases.real
    return _make_spectrum(eigenvalues, config.tol(tolerance))


def spectra_match(a: Spectrum, b: Spectrum, tolerance: float | None = None) -> bool:
    """Multiset equality of two spectra within tolerance."""
    if a.size != b.size:
        return False
    va, vb = a.values(), b.values()
    tol = config.tol(tolerance)
    return all(abs(x - y) <= tol for x, y in zip(va, vb))


def complete_graph_spectrum(k: int) -> list[float]:
    """K_k adjacency spectrum: k-1 once, -1 with multiplicity k-1."""
    return [float(k - 1)] + [-1.0] * (k - 1)
