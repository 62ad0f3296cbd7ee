"""Analysis reports: one record per graph quantity, combining constructed
values, closed-form bounds, and optional oracle runs into a verdict.

`build_report` makes one pass over QUANTITIES, the (name, kind) table that
also names the `--oracle` choices.  Each record takes its bounds from
`bounds_report`, its constructed value from one name -> construction map and
its oracle value from one name -> search map; the coloring and spectral
checks follow.

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

# every quantity `analyze` reports, in report order, with its kind: 'max'
# (a construction is a lower witness), 'min' (an upper witness) or 'exact'
QUANTITIES = (
    ("alpha", "max"),
    ("gamma", "min"),
    ("omega", "max"),
    ("chi", "min"),
    ("diameter", "exact"),
)
ORACLE_QUANTITIES = tuple(name for name, _ in QUANTITIES)

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
    """Full analysis of one graph: one record per row of QUANTITIES, then the
    coloring and spectral checks, with oracles run for the named quantities."""
    from . import spectral

    if oracle_names:
        from . import oracles

    # one residue partition: its classes bound alpha, its colouring chi; its
    # scan also holds the graph to the enumeration cap
    residues = residue_independent_family(spec, cap=enum_cap)
    report = AnalysisReport(spec, residues.p, bounds=bounds_report(spec))
    bound = {(b.quantity, b.side): b.value for b in report.bounds}

    def check(name: str, claimed: bool, passed: bool | None, detail: str) -> None:
        report.checks.append(CheckRecord(name, claimed, passed, detail))

    # name -> (constructed value, construction), where a construction applies
    built: dict[str, tuple[int, str]] = {}
    if spec.family == SR:
        built["alpha"] = residues.best_size, "largest residue class (independent for SR)"
    elif (verified := residues.verified_size()) is not None:
        built["alpha"] = verified, "largest residue class passing the independence scan"
    if spec.family == SR and spec.m >= 3:
        size = equal_pair_size(spec.m, spec.n)
        built["gamma"] = size, "equal-first-two-coordinates dominating set"
    if spec.family == CSR and spec.m >= 2 and spec.n >= 2:
        shape, clique = max_clique_csr(spec.m, spec.n)
        built["omega"] = len(clique), f"{shape}-type clique"
    if residues.proper:
        built["chi"] = residues.p, "residue coloring (scan passed)"

    # each oracle's (value, witness) so far; chi starts from alpha's value
    # and pre-colors omega's clique
    found: dict[str, tuple] = {}
    unfound = (None, None)
    search = {
        "alpha": lambda: oracles.oracle_alpha(spec),
        "gamma": lambda: oracles.oracle_gamma(spec),
        "omega": lambda: oracles.oracle_omega(spec),
        "chi": lambda: oracles.oracle_chi(
            spec, found.get("alpha", unfound)[0], found.get("omega", unfound)[1]
        ),
        "diameter": lambda: (int(oracles.all_pairs_distances(spec)[1].max()), None),
    }
    for name, kind in QUANTITIES:
        sides = {side: bound.get((name, side)) for side in ("lower", "upper", "exact")}
        record = QuantityRecord(name, kind, *built.get(name, (None, None)), **sides)
        if name == "diameter" and spec.family == CSR:
            witness = csr_eccentric_vertex(spec.m, spec.n)
            wdist = csr_distance(spec, (0,) * spec.m, witness, mask_cap)
            note = f"eccentric vertex {format_vertex(witness)} at origin distance {wdist}"
            record.notes = (note,)
            if wdist != record.exact:
                record.problems = (f"witness distance {wdist} != formula {record.exact}",)
        if name in oracle_names:
            found[name] = search[name]()
            record.oracle = found[name][0]
        record.evaluate()
        report.records.append(record)

    detail = f"p={residues.p} proper={residues.proper} violations={residues.violations}"
    check("residue-coloring", True, residues.proper, detail + residues.first_text())
    if spec.vertex_count > config.eig_cap(eig_cap):
        check("spectral-integrality", False, None, "skipped: vertex count over eigensolver cap")
        return report
    eig = spectral.eigenvalues(spec, eig_cap)
    tol = config.tol(tolerance)  # read only once there is a spectrum to check
    deviation = spectral.integer_deviation(eig)
    detail = f"max integer deviation {deviation:.3e}"
    check("spectral-integrality", spec.family == SR, deviation <= tol, detail)
    if spec.family == SR:
        computed = float(eig[0])
        predicted = spectral.sr_least_eigenvalue(spec.m, spec.n)
        detail = f"computed {computed:.6f} predicted {predicted}"
        check("lambda-min", True, abs(computed - predicted) <= tol, detail)
    else:
        chars = spectral.csr_character_spectrum(spec.m, spec.n, enum_cap)
        passed = bool(abs(eig - chars).max() <= tol)
        check("character-spectrum-match", True, passed, "character sums vs dense eigensolve")
    return report
