"""Workload job lists for the rooklab benchmark.

A job is one `rooklab` command line.  Four workloads are fixed lists whose
expected exit codes and output digests are recorded in `expected.json`; the
`distance` workload draws its queries and 3-Partition instances from the
seed and is checked by certificate instead.  Each workload's reason for
existing is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# argv placeholders the runner replaces with per-job paths in its work directory
OUT = "{out}"
INSTANCE = "{instance}"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    family: str  # graph the job touches, for per-vertex ratios
    m: int
    n: int
    check: str = "digest"  # 'digest', 'distance' or 'reduce'
    facts: dict = field(default_factory=dict, compare=False, hash=False)
    instance: str | None = None  # 3-Partition instance file text

    @property
    def key(self) -> str:
        """Stable identity, used for expected digests and per-job records."""
        text = " ".join(self.argv)
        return text if self.instance is None else f"{text} <{self.instance.strip()}>"

    @property
    def vertex_count(self) -> int:
        if self.family == "SR":
            return math.comb(self.n + self.m - 1, self.n)
        return self.n ** (self.m - 1)


def _cmd(text: str, family: str, m: int, n: int) -> Job:
    return Job(tuple(text.split()), family, m, n)


def _analyze(family: str, m: int, n: int, extra: str = "") -> Job:
    return _cmd(f"analyze --family {family.lower()} -m {m} -n {n} {extra}", family, m, n)


# Every pass is kept to a few seconds so that a 40 s run holds eight or more
# passes and reports their median; README.md says why and lists the larger jobs
# left out.

# Graphs on both sides of the 2000-vertex eigensolver cap.  Above it (SR(7,9),
# CSR(7,4)) `spectral` is skipped and enumeration and the residue-class and
# colouring scans take the time; just under it dense adjacency matrices and
# eigvalsh dominate, with the CSR character-sum route beside them.  One edge
# list streams the same adjacency out instead of scanning it.
ANALYZE = tuple(
    [
        _analyze(f, m, n)
        for f, m, n in [
            ("SR", 7, 9),
            ("CSR", 7, 4),
            ("SR", 7, 7),
            ("CSR", 5, 6),
            ("CSR", 4, 12),
            ("CSR", 6, 4),
        ]
    ]
    + [_cmd(f"generate --family csr -m 6 -n 5 --edges-out {OUT}", "CSR", 6, 5)]
)

# Exact searches and verifiers: every oracle, the conjectured dominating set
# against exact gamma, the backtracking automorphism count, the SR
# Hamiltonian cycle checked edge by edge, and the two recorded discrepancy
# cases, which must keep exiting 3 under --strict.
CERTIFY = tuple(
    [
        _analyze(f, m, n, "--oracle all")
        for f, m, n in [
            ("SR", 3, 6),
            ("SR", 3, 9),
            ("SR", 4, 4),
            ("SR", 4, 5),
            ("CSR", 3, 5),
            ("CSR", 3, 7),
            ("CSR", 4, 3),
            ("CSR", 4, 4),
        ]
    ]
    + [
        _cmd("construct dominating-set -m 3 -n 10 --conjectured --oracle", "SR", 3, 10),
        _cmd("aut -m 4 -n 3 --count-only --oracle", "CSR", 4, 3),
        _cmd("aut -m 3 -n 6 --count-only --oracle", "CSR", 3, 6),
        _cmd(f"construct hamiltonian-cycle -m 8 -n 10 --out {OUT}", "SR", 8, 10),
        _analyze("CSR", 3, 2, "--oracle all --strict"),
        _analyze("CSR", 5, 2, "--oracle all --strict"),
    ]
)

# (m, n) of the seeded distance queries.  The subset DP costs O(3^m) whatever
# the coordinates are, so fixing (m, n) keeps the work the same on every seed.
DISTANCE_SHAPES = ((14, 4), (14, 9), (13, 6), (13, 11), (12, 2), (12, 8))
# (k, answer) of the seeded 3-Partition instances; each encodes as CSR(3k, s).
REDUCTION_SHAPES = ((4, True), (4, False), (5, True), (5, False))

FIXED = {"analyze": ANALYZE, "certify": CERTIFY}
WORKLOADS = ("analyze", "certify", "distance")


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    if workload in FIXED:
        return list(FIXED[workload])
    if workload == "distance":
        return distance_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _csr_vertex(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    prefix = [rng.randrange(n) for _ in range(m - 1)]
    return tuple(prefix + [(-sum(prefix)) % n])


def _vertex_text(v) -> str:
    return ",".join(str(x) for x in v)


def distance_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    out = []
    for m, n in DISTANCE_SHAPES:
        u, v = _csr_vertex(rng, m, n), _csr_vertex(rng, m, n)
        argv = f"distance -m {m} -n {n} --from {_vertex_text(u)} --to {_vertex_text(v)}"
        out.append(
            Job(tuple(argv.split()), "CSR", m, n, "distance", {"from": u, "to": v})
        )
    for k, answer in REDUCTION_SHAPES:
        s, values = three_partition_instance(rng, k, answer)
        text = f"{k} {s}\n{' '.join(map(str, values))}\n"
        out.append(
            Job(
                ("reduce-3partition", "--instance", INSTANCE),
                "CSR",
                3 * k,
                s,
                "reduce",
                {"k": k, "s": s, "values": values, "answer": answer},
                text,
            )
        )
    return out


def _in_range(a: int, s: int) -> bool:
    return 4 * a > s and 2 * a < s


def three_partition_instance(rng: random.Random, k: int, answer: bool) -> tuple[int, tuple[int, ...]]:
    """A valid instance (s/4 < a_i < s/2, sum k*s) whose answer is known by
    construction.

    Yes: k random triples, each summing to s, shuffled together.
    No: s is not a multiple of k and every value is, so no triple sums to s.
    """
    while True:
        s = rng.randrange(40, 100)
        if answer:
            values = []
            for _ in range(k):
                while True:
                    a, b = rng.randrange(s // 4 + 1, (s + 1) // 2), rng.randrange(s // 4 + 1, (s + 1) // 2)
                    c = s - a - b
                    if _in_range(a, s) and _in_range(b, s) and _in_range(c, s):
                        values += [a, b, c]
                        break
            rng.shuffle(values)
            return s, tuple(values)
        if s % k == 0:
            continue
        allowed = [a for a in range(k, s, k) if _in_range(a, s)]
        if len(allowed) < 2 or not allowed[0] * 3 * k <= k * s <= allowed[-1] * 3 * k:
            continue
        values = [rng.choice(allowed) for _ in range(3 * k)]
        # walk the total to k*s one step of k at a time, staying in range
        while sum(values) != k * s:
            i = rng.randrange(3 * k)
            step = k if sum(values) < k * s else -k
            if _in_range(values[i] + step, s):
                values[i] += step
        return s, tuple(values)
