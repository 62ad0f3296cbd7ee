"""Analysis reports: one record per graph quantity, combining constructed
values, closed-form bounds, and optional oracle runs into a verdict.

Verdicts: 'certified' (oracle ran, every claim holds), 'discrepancy'
(some claim fails against the oracle or against another claim),
'bound-consistent' (no oracle, claims mutually consistent),
'oracle-skipped' (nothing to check).  Discrepancies are reported with both
values, never clamped or hidden.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import config
from .constructions import (
    default_prime,
    equal_pair_size,
    max_clique_csr,
    residue_independent_family,
)
from .core import CSR, SR, GraphSpec, format_vertex
from .metrics import (
    BoundRecord,
    bounds_report,
    csr_distance,
    csr_eccentric_vertex,
)

ORACLE_QUANTITIES = ("alpha", "gamma", "omega", "chi", "diameter")

CERTIFIED = "certified"
BOUND_CONSISTENT = "bound-consistent"
DISCREPANCY = "discrepancy"
ORACLE_SKIPPED = "oracle-skipped"


@dataclass
class QuantityRecord:
    name: str
    kind: str  # 'max': constructed value is a lower witness; 'min': an upper witness
    constructed: int | None = None
    construction: str | None = None
    lower: int | None = None
    upper: int | None = None
    exact: int | None = None
    oracle: int | None = None
    verdict: str = ORACLE_SKIPPED
    problems: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def evaluate(self) -> None:
        """Check the oracle value, or without an oracle the constructed value,
        against the formula and bounds, then the constructed witness against
        the oracle, and set the verdict.  Problems already recorded are kept
        and force a discrepancy."""
        problems = list(self.problems)
        if self.oracle is not None:
            source, value = "oracle", self.oracle
        else:
            source, value = "constructed", self.constructed
        if value is not None:
            if self.exact is not None and value != self.exact:
                problems.append(f"{source} {value} != formula {self.exact}")
            if self.lower is not None and value < self.lower:
                problems.append(f"{source} {value} below lower bound {self.lower}")
            if self.upper is not None and value > self.upper:
                problems.append(f"{source} {value} above upper bound {self.upper}")
        if self.oracle is not None and self.constructed is not None:
            witness = f"constructed witness {self.constructed}"
            if self.kind == "max" and self.constructed > self.oracle:
                problems.append(f"{witness} exceeds oracle {self.oracle}")
            if self.kind == "min" and self.constructed < self.oracle:
                problems.append(f"{witness} below oracle {self.oracle}")
        self.problems = tuple(problems)
        if problems:
            self.verdict = DISCREPANCY
        elif self.oracle is not None:
            self.verdict = CERTIFIED
        elif value is not None and (self.exact, self.lower, self.upper) != (None, None, None):
            self.verdict = BOUND_CONSISTENT
        else:
            self.verdict = ORACLE_SKIPPED


@dataclass
class CheckRecord:
    name: str
    claimed: bool  # True: a failure is a genuine discrepancy, not just information
    passed: bool | None  # None: skipped
    detail: str


@dataclass
class AnalysisReport:
    spec: GraphSpec
    p: int
    records: list[QuantityRecord] = field(default_factory=list)
    checks: list[CheckRecord] = field(default_factory=list)
    bounds: list[BoundRecord] = field(default_factory=list)

    @property
    def has_discrepancy(self) -> bool:
        if any(r.verdict == DISCREPANCY for r in self.records):
            return True
        return any(c.claimed and c.passed is False for c in self.checks)

    def to_lines(self) -> list[str]:
        lines = [
            f"spec family={self.spec.family} m={self.spec.m} n={self.spec.n} "
            f"vertices={self.spec.vertex_count} degree={self.spec.degree} p={self.p}"
        ]
        for b in self.bounds:
            lines.append(f"bound quantity={b.quantity} side={b.side} value={b.value} formula={b.formula}")
        for r in self.records:
            lines.append(
                f"quantity name={r.name} kind={r.kind}"
                f" constructed={_opt(r.constructed)} lower={_opt(r.lower)}"
                f" upper={_opt(r.upper)} exact={_opt(r.exact)} oracle={_opt(r.oracle)}"
                f" verdict={r.verdict}"
            )
            for prob in r.problems:
                lines.append(f"problem quantity={r.name} detail={prob}")
            for note in r.notes:
                lines.append(f"note quantity={r.name} detail={note}")
        for c in self.checks:
            passed = "-" if c.passed is None else ("yes" if c.passed else "no")
            claimed = "yes" if c.claimed else "no"
            lines.append(f"check name={c.name} claimed={claimed} passed={passed} detail={c.detail}")
        lines.append(f"summary discrepancy={'yes' if self.has_discrepancy else 'no'}")
        return lines

    def to_json(self) -> dict:
        return {
            "spec": {
                "family": self.spec.family,
                "m": self.spec.m,
                "n": self.spec.n,
                "vertices": self.spec.vertex_count,
                "degree": self.spec.degree,
            },
            "p": self.p,
            "bounds": [asdict(b) for b in self.bounds],
            "quantities": [asdict(r) for r in self.records],
            "checks": [asdict(c) for c in self.checks],
            "discrepancy": self.has_discrepancy,
        }


def _opt(x) -> str:
    return "-" if x is None else str(x)


def parse_oracle_selection(text: str) -> frozenset[str]:
    """--oracle argument: 'all', 'none', or a comma list of quantity names."""
    if text == "all":
        return frozenset(ORACLE_QUANTITIES)
    if text == "none":
        return frozenset()
    names = frozenset(tok.strip() for tok in text.split(",") if tok.strip())
    unknown = names - set(ORACLE_QUANTITIES)
    if unknown:
        raise ValueError(
            f"unknown oracle names {sorted(unknown)}; expected from {list(ORACLE_QUANTITIES)}"
        )
    return names


def build_report(
    spec: GraphSpec,
    oracle_names: frozenset[str] = frozenset(),
    enum_cap: int | None = None,
    eig_cap: int | None = None,
    mask_cap: int | None = None,
    tolerance: float | None = None,
) -> AnalysisReport:
    """Full analysis of one graph: alpha, gamma, omega, chi, diameter, and
    the spectral/coloring checks, with oracles run for the named quantities."""
    from . import oracles, spectral

    report = AnalysisReport(spec, default_prime(spec), bounds=bounds_report(spec))
    bound = {(b.quantity, b.side): b.value for b in report.bounds}

    def quantity(name: str, kind: str) -> QuantityRecord:
        """A new record carrying every bound the table holds for `name`."""
        sides = {side: bound.get((name, side)) for side in ("lower", "upper", "exact")}
        report.records.append(QuantityRecord(name, kind, **sides))
        return report.records[-1]

    # one residue partition: its classes bound alpha, its colouring chi; its
    # scan also holds the graph to the enumeration cap
    residues = residue_independent_family(spec, cap=enum_cap)

    alpha = quantity("alpha", "max")
    if spec.family == SR:
        alpha.constructed = residues.best_size
        alpha.construction = "largest residue class (independent for SR)"
    else:
        verified = residues.verified_size()
        if verified is not None:
            alpha.constructed = verified
            alpha.construction = "largest residue class passing the independence scan"
    if "alpha" in oracle_names:
        alpha.oracle = oracles.oracle_alpha(spec)[0]

    gamma = quantity("gamma", "min")
    if spec.family == SR and spec.m >= 3:
        gamma.constructed = equal_pair_size(spec.m, spec.n)
        gamma.construction = "equal-first-two-coordinates dominating set"
    if "gamma" in oracle_names:
        gamma.oracle = oracles.oracle_gamma(spec)[0]

    omega = quantity("omega", "max")
    if spec.family == CSR and spec.m >= 2 and spec.n >= 2:
        kind, members = max_clique_csr(spec.m, spec.n)
        omega.constructed = len(members)
        omega.construction = f"{kind}-type clique"
    if "omega" in oracle_names:
        omega.oracle = oracles.oracle_omega(spec)[0]

    # chi, with the residue coloring scan as a check record
    report.checks.append(
        CheckRecord(
            "residue-coloring",
            claimed=True,
            passed=residues.proper,
            detail=f"p={residues.p} proper={residues.proper} violations={residues.violations}"
            + residues.first_text(),
        )
    )
    chi = quantity("chi", "min")
    if residues.proper:
        chi.constructed = residues.p
        chi.construction = "residue coloring (scan passed)"
    if "chi" in oracle_names:
        chi.oracle = oracles.oracle_chi(spec)[0]

    diam = quantity("diameter", "exact")
    if spec.family == CSR:
        witness = csr_eccentric_vertex(spec.m, spec.n)
        wdist = csr_distance(spec, (0,) * spec.m, witness, mask_cap)
        diam.notes = (f"eccentric vertex {format_vertex(witness)} at origin distance {wdist}",)
        if wdist != diam.exact:
            diam.problems = (f"witness distance {wdist} != formula {diam.exact}",)
    if "diameter" in oracle_names:
        _, dist = oracles.all_pairs_distances(spec)
        diam.oracle = int(dist.max())
    for record in report.records:
        record.evaluate()

    # spectral checks
    if spec.vertex_count <= config.eig_cap(eig_cap):
        eig = spectral.eigenvalues(spec, eig_cap)
        deviation = spectral.integer_deviation(eig)
        report.checks.append(
            CheckRecord(
                "spectral-integrality",
                claimed=spec.family == SR,
                passed=deviation <= config.tol(tolerance),
                detail=f"max integer deviation {deviation:.3e}",
            )
        )
        if spec.family == SR:
            computed = float(eig[0])
            predicted = spectral.sr_least_eigenvalue(spec.m, spec.n)
            report.checks.append(
                CheckRecord(
                    "lambda-min",
                    claimed=True,
                    passed=abs(computed - predicted) <= config.tol(tolerance),
                    detail=f"computed {computed:.6f} predicted {predicted}",
                )
            )
        else:
            chars = spectral.csr_character_spectrum(spec.m, spec.n, enum_cap)
            report.checks.append(
                CheckRecord(
                    "character-spectrum-match",
                    claimed=True,
                    passed=bool(abs(eig - chars).max() <= config.tol(tolerance)),
                    detail="character sums vs dense eigensolve",
                )
            )
    else:
        report.checks.append(
            CheckRecord(
                "spectral-integrality",
                claimed=False,
                passed=None,
                detail="skipped: vertex count over eigensolver cap",
            )
        )
    return report
