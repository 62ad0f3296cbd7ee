"""The analyze report builder and the command-line surface end to end."""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import rooklab
from rooklab import cli, constructions, report, spectral
from rooklab.cli import main
from rooklab.core import _indexed_graph, csr_spec, sr_spec
from rooklab.metrics import csr_diameter
from rooklab.report import build_report, parse_oracle_selection


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report builder ----------------------------------------------------------------


def test_report_sr32_all_certified():
    report = build_report(sr_spec(3, 2), parse_oracle_selection("all"))
    verdicts = {r.name: r.verdict for r in report.records}
    assert verdicts == {q: "certified" for q in ("alpha", "gamma", "omega", "chi", "diameter")}
    assert not report.has_discrepancy
    by_name = {r.name: r for r in report.records}
    assert by_name["alpha"].oracle == 2 and by_name["alpha"].constructed == 2
    assert by_name["gamma"].constructed == 2
    checks = {c.name: c for c in report.checks}
    assert checks["spectral-integrality"].passed
    assert checks["lambda-min"].passed
    assert checks["residue-coloring"].passed


def test_report_csr32_surfaces_gaps():
    report = build_report(csr_spec(3, 2), parse_oracle_selection("all"))
    assert report.has_discrepancy
    by_name = {r.name: r for r in report.records}
    assert by_name["omega"].verdict == "discrepancy"
    assert by_name["omega"].oracle == 4 and by_name["omega"].exact == 3
    assert by_name["chi"].verdict == "discrepancy"  # oracle 4 over the claimed p = 3
    checks = {c.name: c for c in report.checks}
    assert checks["residue-coloring"].passed is False
    assert checks["residue-coloring"].claimed


def test_report_without_oracles():
    report = build_report(sr_spec(3, 4), frozenset())
    by_name = {r.name: r for r in report.records}
    assert by_name["alpha"].verdict == "bound-consistent"
    assert by_name["alpha"].oracle is None
    assert by_name["omega"].verdict == "oracle-skipped"


def _off_by_one_distance(monkeypatch):
    """Make the CSR eccentric-vertex distance miss the diameter formula."""
    monkeypatch.setattr(
        report,
        "csr_distance_witness",
        lambda spec, u, v, cap=None: (csr_diameter(spec.m, spec.n) + 1, ()),
    )


def test_report_keeps_witness_problem(monkeypatch):
    _off_by_one_distance(monkeypatch)
    for oracle_names in (frozenset(), parse_oracle_selection("diameter")):
        rep = build_report(csr_spec(3, 3), oracle_names)
        diam = {r.name: r for r in rep.records}["diameter"]
        assert diam.problems[0] == "witness distance 3 != formula 2"
        assert diam.verdict == "discrepancy"
        assert rep.has_discrepancy


def test_cli_analyze_strict_witness_problem_exit(monkeypatch, capsys):
    _off_by_one_distance(monkeypatch)
    code, out, _ = run_cli(capsys, "analyze", "--family", "csr", "-m", "3", "-n", "3", "--strict")
    assert code == 3
    assert "problem quantity=diameter detail=witness distance 3 != formula 2" in out
    assert "verdict=discrepancy" in out



def _shifted_character_spectrum(monkeypatch):
    """Make the closed-form CSR spectrum disagree with the eigensolve by 1."""
    exact = spectral.csr_character_spectrum
    monkeypatch.setattr(
        spectral, "csr_character_spectrum", lambda m, n, cap=None: exact(m, n, cap) + 1
    )


def test_report_character_spectrum_mismatch(monkeypatch):
    assert not build_report(csr_spec(3, 3)).has_discrepancy
    _shifted_character_spectrum(monkeypatch)
    rep = build_report(csr_spec(3, 3))
    check = {c.name: c for c in rep.checks}["character-spectrum-match"]
    assert check.claimed and check.passed is False
    assert rep.has_discrepancy


def test_cli_analyze_strict_character_spectrum_exit(monkeypatch, capsys):
    argv = ("analyze", "--family", "csr", "-m", "3", "-n", "3", "--strict")
    assert run_cli(capsys, *argv)[0] == 0
    _shifted_character_spectrum(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    assert (
        "check name=character-spectrum-match claimed=yes passed=no"
        " detail=character sums vs dense eigensolve"
    ) in out

EVALUATE_CASES = [
    # the oracle value against one formula or bound per record
    (dict(exact=3, oracle=4), ("oracle 4 != formula 3",), "discrepancy"),
    (dict(lower=3, oracle=2), ("oracle 2 below lower bound 3",), "discrepancy"),
    (dict(upper=3, oracle=4), ("oracle 4 above upper bound 3",), "discrepancy"),
    (dict(exact=3, oracle=3), (), "certified"),
    (dict(lower=2, oracle=2), (), "certified"),
    (dict(upper=3, oracle=3), (), "certified"),
    # without an oracle, the constructed value against the same
    (dict(constructed=3, exact=4), ("constructed 3 != formula 4",), "discrepancy"),
    (dict(constructed=1, lower=2), ("constructed 1 below lower bound 2",), "discrepancy"),
    (dict(constructed=5, upper=4), ("constructed 5 above upper bound 4",), "discrepancy"),
    (dict(constructed=4, exact=4), (), "bound-consistent"),
    (dict(constructed=2, lower=2), (), "bound-consistent"),
    (dict(constructed=4, upper=4), (), "bound-consistent"),
    # with an oracle the constructed value is checked against it, not the bounds
    (dict(constructed=1, lower=2, oracle=2), (), "certified"),
    (dict(constructed=6, upper=5, oracle=5), ("constructed witness 6 exceeds oracle 5",), "discrepancy"),
    # the witness against the oracle, by kind
    (dict(kind="max", constructed=5, oracle=4), ("constructed witness 5 exceeds oracle 4",), "discrepancy"),
    (dict(kind="min", constructed=3, oracle=4), ("constructed witness 3 below oracle 4",), "discrepancy"),
    (dict(kind="max", constructed=3, oracle=4), (), "certified"),
    (dict(kind="min", constructed=5, oracle=4), (), "certified"),
    (
        dict(kind="max", constructed=3, lower=5, oracle=4),
        ("oracle 4 below lower bound 5",),
        "discrepancy",
    ),
    (
        dict(kind="min", constructed=3, upper=3, oracle=4),
        ("oracle 4 above upper bound 3", "constructed witness 3 below oracle 4"),
        "discrepancy",
    ),
    # problems already recorded are kept first and force a discrepancy
    (
        dict(exact=2, problems=("witness distance 3 != formula 2",)),
        ("witness distance 3 != formula 2",),
        "discrepancy",
    ),
    (
        dict(exact=2, oracle=3, problems=("witness distance 3 != formula 2",)),
        ("witness distance 3 != formula 2", "oracle 3 != formula 2"),
        "discrepancy",
    ),
    # nothing to check against
    (dict(), (), "oracle-skipped"),
    (dict(lower=2, upper=5), (), "oracle-skipped"),
    (dict(exact=2), (), "oracle-skipped"),
    (dict(constructed=3), (), "oracle-skipped"),
    (dict(oracle=3), (), "certified"),
]


@pytest.mark.parametrize("fields,problems,verdict", EVALUATE_CASES)
def test_quantity_record_evaluate(fields, problems, verdict):
    fields = {"kind": "max", **fields}
    record = report.QuantityRecord("q", **fields)
    record.evaluate()
    assert record.problems == problems
    assert record.verdict == verdict


def test_oracle_selection_parsing():
    assert parse_oracle_selection("none") == frozenset()
    assert parse_oracle_selection("alpha,chi") == {"alpha", "chi"}
    assert len(parse_oracle_selection("all")) == 5
    with pytest.raises(ValueError, match="unknown oracle"):
        parse_oracle_selection("alpha,beta")


# -- CLI ---------------------------------------------------------------------------


def test_cli_generate_matches_edges(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "sr", "-m", "3", "-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# family=SR m=3 n=2"
    assert len(lines) == 13
    assert lines[1] == "0,0,2;0,1,1"


def test_cli_generate_to_file(tmp_path, capsys):
    target = tmp_path / "edges.txt"
    code, out, _ = run_cli(
        capsys, "generate", "--family", "csr", "-m", "4", "-n", "2", "--edges-out", str(target)
    )
    assert code == 0
    content = target.read_text().splitlines()
    assert content[0] == "# family=CSR m=4 n=2"
    assert len(content) == 25


def test_cli_analyze_certified(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "sr", "-m", "3", "-n", "2", "--oracle", "all"
    )
    assert code == 0
    assert "quantity name=alpha" in out and "verdict=certified" in out
    assert "summary discrepancy=no" in out


def test_cli_analyze_strict_discrepancy_exit(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "csr", "-m", "3", "-n", "2", "--oracle", "all", "--strict"
    )
    assert code == 3
    assert "oracle 4 != formula 3" in out
    assert "proper=False" in out


# Known discrepancies: the table claims chi(CSR(m,n)) <= p, the least prime
# >= max(m, n), but the proof covers only p = n.  Each row stays reported.
@pytest.mark.parametrize(
    "m,n,chi,p",
    [
        (3, 2, 4, 3),
        (3, 4, 6, 5),
        (3, 6, 8, 7),
        (4, 3, 7, 5),
        (4, 4, 7, 5),
        (5, 2, 8, 5),
        (5, 3, 8, 5),
        (6, 2, 8, 7),
        (7, 2, 8, 7),
        (3, 10, 12, 11),
    ],
)
def test_cli_analyze_reports_chi_above_prime_bound(m, n, chi, p, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "csr", "-m", str(m), "-n", str(n), "--oracle", "chi"
    )
    assert code == 0
    lines = out.splitlines()
    assert f"problem quantity=chi detail=oracle {chi} above upper bound {p}" in lines
    assert lines[-1] == "summary discrepancy=yes"


def test_cli_analyze_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "sr", "-m", "3", "-n", "2", "--json", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["spec"] == {"family": "SR", "m": 3, "n": 2, "vertices": 6, "degree": 4}
    assert doc["discrepancy"] is False
    names = [q["name"] for q in doc["quantities"]]
    assert names == ["alpha", "gamma", "omega", "chi", "diameter"]


def test_cli_analyze_unwritable_json_prints_nothing(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "analyze", "--family", "sr", "-m", "3", "-n", "2", "--json", str(path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_cli_deterministic_output(capsys):
    first = run_cli(capsys, "analyze", "--family", "csr", "-m", "4", "-n", "3", "--oracle", "all")
    second = run_cli(capsys, "analyze", "--family", "csr", "-m", "4", "-n", "3", "--oracle", "all")
    assert first == second


def test_cli_distance_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--family", "csr", "-m", "4", "-n", "2",
        "--from", "0,0,0,0", "--to", "1,1,1,1",
    )
    assert code == 0
    assert "value=2" in out
    assert "blocks={1,2},{3,4}" in out


def test_cli_construct_hamiltonian_rejects(capsys):
    code, _, err = run_cli(capsys, "construct", "hamiltonian-cycle", "-m", "2", "-n", "1")
    assert code == 1
    assert "no Hamiltonian cycle" in err


def test_cli_construct_hamiltonian_enum_cap(capsys):
    code, out, err = run_cli(
        capsys, "construct", "hamiltonian-cycle", "-m", "3", "-n", "4", "--enum-cap", "2"
    )
    assert code == 2
    assert out == ""
    assert err == "error: SR(3,4) has 15 vertices, over the enumeration cap 2\n"


def test_cli_construct_hamiltonian_export(tmp_path, capsys):
    path = tmp_path / "cycle.txt"
    code, out, _ = run_cli(
        capsys, "construct", "hamiltonian-cycle", "-m", "3", "-n", "2", "--out", str(path)
    )
    assert code == 0
    assert "verdict valid=yes" in out
    assert len(path.read_text().splitlines()) == 6


def test_cli_hamiltonian_unwritable_out_prints_nothing(tmp_path, capsys):
    path = tmp_path / "missing" / "cycle.txt"
    code, out, err = run_cli(
        capsys, "construct", "hamiltonian-cycle", "-m", "3", "-n", "2", "--out", str(path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_cli_hamiltonian_invalid_cycle_prints_reason(monkeypatch, capsys):
    # a cycle whose last row repeats its first: the checker's reason is printed
    cycle = constructions.hamiltonian_cycle_sr(3, 2).copy()
    cycle[-1] = cycle[0]
    monkeypatch.setattr(constructions, "hamiltonian_cycle_sr", lambda m, n, cap=None: cycle)
    for flags, expected in (((), 1), (("--strict",), 3)):
        code, out, err = run_cli(capsys, "construct", "hamiltonian-cycle", "-m", "3", "-n", "2", *flags)
        assert (code, err) == (expected, "")
        assert out.splitlines()[1] == "verdict valid=no reason=duplicate vertex"


@pytest.mark.parametrize("m,n", [(5, 12), (2, 4095), (2, 4096), (8, 10), (3, 200)])
def test_cli_hamiltonian_blocks_match_one_shot_text(tmp_path, capsys, m, n):
    # 1,820 rows; exactly one block; one row past it, as uint16; 19,448 rows;
    # three-digit values in uint8
    assert cli.CYCLE_BLOCK_ROWS == 4096
    path = tmp_path / "cycle.txt"
    code, out, _ = run_cli(
        capsys, "construct", "hamiltonian-cycle", "-m", str(m), "-n", str(n), "--out", str(path)
    )
    assert code == 0
    assert out.splitlines()[1:] == ["verdict valid=yes", f"wrote cycle path={path}"]
    cycle = constructions.hamiltonian_cycle_sr(m, n)
    assert cycle.dtype == np.min_scalar_type(n)
    line = ",".join(["%d"] * m) + "\n"
    one_shot = (line * len(cycle)) % tuple(cycle.ravel().tolist())
    assert path.read_bytes() == one_shot.encode()


def test_cli_hamiltonian_memory(tmp_path, capsys):
    # build, check and write SR(10,10)'s 92,378 rows: about 2.9 MB traced as
    # uint8 rows in blocks, about 25 MB as int64 rows written in one piece
    path = tmp_path / "cycle.txt"
    argv = ["construct", "hamiltonian-cycle", "-m", "10", "-n", "10", "--out", str(path)]
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "verdict valid=yes\n" in out
    assert path.read_text().count("\n") == 92378
    assert peak < 8_000_000


def test_cli_hamiltonian_out_of_memory_exits_2(capsys, monkeypatch):
    # a cycle under the enumeration cap whose array does not fit
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", no_memory)
    code, out, err = run_cli(capsys, "construct", "hamiltonian-cycle", "-m", "3", "-n", "4")
    assert code == 2
    assert out == ""
    assert err == "error: the Hamiltonian cycle array of shape (15, 3) does not fit in memory\n"


def test_cli_construct_coloring_strict(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "coloring", "--family", "csr", "-m", "3", "-n", "2", "--strict"
    )
    assert code == 3
    assert "proper=no" in out


def test_cli_construct_coloring_large_prime_costs_vertices_not_p(capsys):
    # 6 vertices and p = 1000003: the colouring stores its 5 non-empty
    # classes, not p class lists and a length-p count
    argv = "construct coloring --family sr -m 3 -n 2 --prime 1000003".split()
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == (
        "coloring family=SR m=3 n=2 p=1000003 colors-used=5\n"
        "verdict proper=yes violations=0\n"
    )
    assert peak < 4_000_000


def test_cli_construct_independent_set_prints_every_class(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "independent-set", "--family", "sr", "-m", "3", "-n", "2",
        "--prime", "13",
    )
    assert code == 0
    lines = out.splitlines()
    sizes = [1 if t in (2, 3, 5, 6) else 2 if t == 4 else 0 for t in range(13)]
    assert lines[1:14] == [f"class index={t} size={s} independent=yes" for t, s in enumerate(sizes)]
    assert lines[14:] == [
        "best index=4 size=2",
        "vertex 0,2,0",
        "vertex 1,0,1",
        "verdict proper-partition=yes failing-classes=0",
    ]


def test_cli_construct_independent_set(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "independent-set", "--family", "sr", "-m", "3", "-n", "2"
    )
    assert code == 0
    assert "best index=0 size=2" in out
    assert "verdict proper-partition=yes" in out


@pytest.mark.parametrize(
    "argv,err",
    [
        (
            "construct independent-set --family csr -m 3 -n 3 --prime 2",
            "error: p=2 is below 3, the least prime size that makes "
            "the residue classes of CSR(3,3) reliable\n",
        ),
        (
            "construct independent-set --family csr -m 3 -n 3 --prime 4",
            "error: p=4 is not prime\n",
        ),
        ("construct coloring --family csr -m 3 -n 3 --prime 4", "error: p=4 is not prime\n"),
        # int64 residue keys bound the prime
        (
            "construct coloring --family csr -m 3 -n 3 --prime 9223372036854775837",
            "error: --prime must be below 2^63, got 9223372036854775837\n",
        ),
        (
            "construct independent-set --family sr -m 3 -n 2 --prime 9223372036854775808",
            "error: --prime must be below 2^63, got 9223372036854775808\n",
        ),
    ],
)
def test_cli_construct_rejects_prime(argv, err, capsys):
    assert run_cli(capsys, *argv.split()) == (1, "", err)


@pytest.mark.parametrize(
    "family,m,n,prime,colors",
    [
        ("sr", 3, 2, 9999999999999937, 5),  # seconds by trial division
        ("csr", 3, 3, 9223372036854775783, 7),  # the largest prime below 2^63
    ],
)
def test_cli_construct_coloring_large_prime_is_fast(family, m, n, prime, colors, capsys):
    argv = f"construct coloring --family {family} -m {m} -n {n} --prime {prime}".split()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out == (
        f"coloring family={family.upper()} m={m} n={n} p={prime} colors-used={colors}\n"
        "verdict proper=yes violations=0\n"
    )


def test_cli_independent_set_prime_over_enum_cap_exits_fast(capsys):
    # one line is printed per residue class, so p is held to the enumeration
    # cap before the classes are listed
    argv = "construct independent-set --family sr -m 3 -n 2 --prime 9999999999999937".split()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: p=9999999999999937 is over the enumeration cap 10000000"
        " (one line per residue class)\n"
    )


def test_cli_independent_set_prime_cap_names_p_not_vertices(capsys):
    # SR(3,2) has 6 vertices, within --enum-cap 6; p = 7 is not
    code, out, err = run_cli(
        capsys, "construct", "independent-set", "--family", "sr", "-m", "3", "-n", "2",
        "--prime", "7", "--enum-cap", "6",
    )
    assert (code, out) == (2, "")
    assert err == "error: p=7 is over the enumeration cap 6 (one line per residue class)\n"


def test_cli_construct_dominating_set(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "dominating-set", "-m", "3", "-n", "4", "--oracle"
    )
    assert code == 0
    assert "size=3" in out and "verdict dominates=yes" in out and "oracle gamma=3" in out


@pytest.mark.parametrize("conjectured", [(), ("--conjectured",)])
def test_cli_dominating_set_enum_cap(conjectured, capsys):
    code, _, err = run_cli(
        capsys, "construct", "dominating-set", "-m", "3", "-n", "2", *conjectured,
        "--oracle", "--enum-cap", "5",
    )
    assert code == 2
    assert err == "error: SR(3,2) has 6 vertices, over the enumeration cap 5\n"


def test_cli_conjectured_enum_cap_keeps_search_cap(capsys):
    # a large --enum-cap must not lift the exact-gamma search cap
    code, _, err = run_cli(
        capsys, "construct", "dominating-set", "-m", "3", "-n", "20", "--conjectured",
        "--oracle", "--enum-cap", "300",
    )
    assert code == 2
    assert err == "error: SR(3,20) has 231 vertices, over the search cap 200\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (
            "construct dominating-set -m 4 -n 10 --oracle",
            "error: SR(4,10) has 286 vertices, over the search cap 200\n",
        ),
        (
            "aut -m 3 -n 12 --count-only --oracle",
            "error: CSR(3,12) has 144 vertices, over the automorphism search cap 128\n",
        ),
        (
            "aut -m 8 -n 8 --count-only",
            "error: CSR(8,8) has 338228674560 automorphism descriptors,"
            " over the enumeration cap 10000000\n",
        ),
        (
            "aut -m 4 -n 3 --count-only --enum-cap 1295",
            "error: CSR(4,3) has 1296 automorphism descriptors, over the enumeration cap 1295\n",
        ),
    ],
)
def test_cli_oracle_over_cap_prints_no_report(argv, err, capsys):
    assert run_cli(capsys, *argv.split()) == (2, "", err)


# SR(4,4) has 35 vertices and |D| = 9; each witness map below breaks one
# condition of the check: membership of D, equal-or-adjacent, being a vertex
@pytest.mark.parametrize(
    "witness,failures",
    [
        (lambda coords: coords, 35 - 9),
        # (0,0,0,4) itself and its 12 neighbours pass
        (
            lambda coords: np.broadcast_to(constructions.dominating_set_sr(4, 4)[0], coords.shape),
            35 - 13,
        ),
        # only the 5 vertices (0,0,a,4-a) keep their coordinate sum
        (lambda coords: np.column_stack((0 * coords[:, :2], coords[:, 2:])), 35 - 5),
    ],
    ids=["identity", "first-member", "zeroed-pair"],
)
def test_cli_dominating_set_counts_witness_failures(witness, failures, monkeypatch, capsys):
    monkeypatch.setattr(constructions, "equal_pair_dominators", witness)
    argv = ("construct", "dominating-set", "-m", "4", "-n", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == f"verdict dominates=no witness-failures={failures}"
    assert run_cli(capsys, *argv, "--strict")[0] == 3


def test_cli_aut_descriptors_at_the_enum_cap(capsys):
    # 4! * phi(3) * 3^3 = 1296 descriptors, exactly the cap
    argv = "aut -m 4 -n 3 --count-only --enum-cap 1296".split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "enumerated count=1296 matches-formula=yes"


def test_cli_aut_count_only(capsys):
    code, out, _ = run_cli(capsys, "aut", "-m", "3", "-n", "2", "--count-only", "--oracle")
    assert code == 0
    assert "formula-order=24" in out
    assert "enumerated count=24" in out
    assert "descriptor" not in out
    assert "oracle count=24" in out


def test_cli_aut_dumps_descriptors(capsys):
    code, out, _ = run_cli(capsys, "aut", "-m", "2", "-n", "2")
    assert code == 0
    assert out.count("descriptor ") == 4


def test_cli_reduce_3partition(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("2 10\n4 4 3 3 3 3\n")
    code, out, _ = run_cli(capsys, "reduce-3partition", "--instance", str(path))
    assert code == 0
    assert "distance value=4 target=4" in out
    assert "agree=yes" in out


def test_cli_reduce_3partition_trailing_junk_exits_1(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("1 10\n3 3 4\nextra\n")
    code, out, err = run_cli(capsys, "reduce-3partition", "--instance", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid literal for int()")


def test_cli_aut_mismatch_outside_hypothesis_not_strict_failure(capsys):
    # CSR(4,2) has more symmetries than the parametrized maps; with m or n
    # at most 3 that is documented, not a discrepancy
    code, out, _ = run_cli(
        capsys, "aut", "-m", "4", "-n", "2", "--count-only", "--oracle", "--strict"
    )
    assert code == 0
    assert "formula-order=192" in out
    assert "oracle count=384" in out
    assert "outside-hypothesis=yes" in out


def test_cli_cap_exceeded_exit(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--family", "sr", "-m", "6", "-n", "40", "--enum-cap", "100"
    )
    assert code == 2
    assert "cap" in err


def test_cli_out_of_memory_exits_2(capsys, monkeypatch):
    # an input under every vertex cap whose neighbour array does not fit
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", no_memory)
    _indexed_graph.cache_clear()
    code, out, err = run_cli(capsys, "analyze", "--family", "csr", "-m", "3", "-n", "5")
    assert code == 2
    assert out == ""
    assert err == "error: the neighbour-index array of shape (25, 12) does not fit in memory\n"


def test_cli_requested_oracle_over_cap_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--family", "sr", "-m", "4", "-n", "20", "--oracle", "alpha"
    )
    assert code == 2
    assert "search cap" in err


def test_cli_env_fallback_for_caps(capsys, monkeypatch):
    monkeypatch.setenv("ROOKLAB_ENUM_CAP", "100")
    code, _, err = run_cli(capsys, "generate", "--family", "sr", "-m", "6", "-n", "40")
    assert code == 2
    assert "cap 100" in err
    # an explicit flag wins over the environment
    monkeypatch.setenv("ROOKLAB_ENUM_CAP", "1")
    code, out, _ = run_cli(
        capsys, "generate", "--family", "sr", "-m", "3", "-n", "2", "--enum-cap", "50"
    )
    assert code == 0



@pytest.mark.parametrize(
    "name,noun",
    [
        ("ROOKLAB_ENUM_CAP", "an integer"),
        ("ROOKLAB_EIG_CAP", "an integer"),
        ("ROOKLAB_MASK_LIMIT", "an integer"),
        ("ROOKLAB_TOL", "a number"),
    ],
)
def test_cli_malformed_env_names_variable(name, noun, capsys, monkeypatch):
    monkeypatch.setenv(name, "abc")
    code, out, err = run_cli(capsys, "analyze", "--family", "csr", "-m", "3", "-n", "3")
    assert code == 1
    assert err == f"error: {name}='abc' is not {noun}\n"


@pytest.mark.parametrize(
    "name,argv",
    [  # no eigensolve runs, so the tolerance is never read
        ("ROOKLAB_TOL", "analyze --family sr -m 7 -n 9"),
        ("ROOKLAB_TOL", "analyze --family csr -m 3 -n 3 --eig-cap 0"),
        # SR has no diameter witness, so the mask limit is never read (the CSR
        # witness reads it: test_cli_malformed_env_names_variable)
        ("ROOKLAB_MASK_LIMIT", "analyze --family sr -m 3 -n 3"),
    ],
)
def test_cli_unread_env_limit_is_not_parsed(name, argv, capsys, monkeypatch):
    monkeypatch.setenv(name, "abc")
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.endswith("summary discrepancy=no\n")


@pytest.mark.parametrize(
    "flag,value,shown",
    [
        ("--enum-cap", "-1", "-1"),
        ("--eig-cap", "-5", "-5"),
        ("--mask-limit", "-1", "-1"),
        ("--tol", "-0.5", "-0.5"),
        ("--tol", "nan", "nan"),
    ],
)
def test_cli_negative_flag_names_it(flag, value, shown, capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--family", "csr", "-m", "3", "-n", "3", flag, value
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be 0 or more, got {shown}\n"


@pytest.mark.parametrize(
    "argv,flag,shown",
    [
        ("analyze --family csr -m 3 -n 3 --eig-cap 0 --tol -1", "--tol", "-1.0"),
        ("generate --family sr -m 3 -n 2 --mask-limit -3", "--mask-limit", "-3"),
        ("aut -m 3 -n 3 --count-only --enum-cap -4", "--enum-cap", "-4"),
        ("construct clique -m 3 -n 3 --enum-cap -4", "--enum-cap", "-4"),
    ],
)
def test_cli_negative_flag_checked_when_unread(argv, flag, shown, capsys):
    # the command never reads the flag, yet a negative value is still refused
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be 0 or more, got {shown}\n"


@pytest.mark.parametrize(
    "name,shown",
    [
        ("ROOKLAB_ENUM_CAP", "-1"),
        ("ROOKLAB_EIG_CAP", "-1"),
        ("ROOKLAB_MASK_LIMIT", "-1"),
        ("ROOKLAB_TOL", "-1.0"),
    ],
)
def test_cli_negative_env_names_variable(name, shown, capsys, monkeypatch):
    monkeypatch.setenv(name, "-1")
    code, out, err = run_cli(capsys, "analyze", "--family", "csr", "-m", "3", "-n", "3")
    assert code == 1
    assert out == ""
    assert err == f"error: {name} must be 0 or more, got {shown}\n"


def test_cli_zero_caps_accepted(capsys):
    # 0 is a cap like any other: the spectral checks are skipped, not refused
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "csr", "-m", "3", "-n", "3", "--eig-cap", "0"
    )
    assert code == 0
    assert "detail=skipped: vertex count over eigensolver cap" in out


def test_cli_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "xx", "-m", "3", "-n", "2"])
    assert exc.value.code == 1


def test_cli_unknown_oracle_name_exit(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--family", "sr", "-m", "3", "-n", "2", "--oracle", "beta"
    )
    assert code == 1
    assert "unknown oracle" in err



# every subcommand that takes --family/-m/-n: (its path, a family it
# accepts, its other required arguments)
SPEC_SUBCOMMANDS = [
    ("generate", "sr", ""),
    ("analyze", "sr", ""),
    ("construct independent-set", "sr", ""),
    ("construct dominating-set", "sr", ""),
    ("construct hamiltonian-cycle", "sr", ""),
    ("construct clique", "csr", ""),
    ("construct coloring", "sr", ""),
    ("distance", "csr", "--from 0,0 --to 0,0"),
]


@pytest.mark.parametrize("command,family,extra", SPEC_SUBCOMMANDS)
def test_cli_missing_m_exits_1(command, family, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(f"{command} --family {family} -n 2 {extra}".split())
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rooklab {command} ")
    assert err.endswith(f"rooklab {command}: error: the following arguments are required: -m\n")


@pytest.mark.parametrize("command,family,extra", SPEC_SUBCOMMANDS)
def test_cli_bad_family_exits_1(command, family, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(f"{command} --family xyz -m 2 -n 2 {extra}".split())
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rooklab {command} ")
    assert f"rooklab {command}: error: argument --family: invalid choice: 'xyz'" in err


# -- one parser per process ---------------------------------------------------------


def _first_call_in_fresh_process(argv):
    """(exit code, stdout, stderr) of argv as the first call in a new interpreter."""
    src = os.path.dirname(os.path.dirname(rooklab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "rooklab.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_reused_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    # one cached parser per first word: each command's own, and the full one
    for command in (None, *cli.COMMANDS):
        assert cli._build_parser(command) is cli._build_parser(command)
    assert list(cli._build_parser("distance")._actions[-1].choices) == ["distance"]
    assert list(cli._build_parser()._actions[-1].choices) == list(cli.COMMANDS)
    instance = tmp_path / "inst.txt"
    instance.write_text("2 10\n4 4 3 3 3 3\n")
    monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at the terminal width
    monkeypatch.delenv("ROOKLAB_MASK_LIMIT", raising=False)
    distance = "distance -m 4 -n 3 --from 0,1,2,0 --to 2,2,1,1"
    steps = [
        (distance, 0, None),
        ("generate --family xx -m 3 -n 2", 1, None),
        ("analyze --family csr -m 3 -n 2 --oracle all --strict", 3, None),
        (distance, 2, "3"),  # a variable set between calls is read by this call
        (f"reduce-3partition --instance {instance}", 0, None),
        (distance, 0, None),
        ("bogus", 1, None),
        (distance + " extra", 1, None),
        ("distance --help", 0, None),
    ]
    for text, expected_code, mask_limit in steps:
        if mask_limit is None:
            monkeypatch.delenv("ROOKLAB_MASK_LIMIT", raising=False)
        else:
            monkeypatch.setenv("ROOKLAB_MASK_LIMIT", mask_limit)
        argv = text.split()
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
        captured = capsys.readouterr()
        assert code == expected_code, text
        assert (code, captured.out, captured.err) == _first_call_in_fresh_process(argv), text


# Every usage error and help text of the one-command parser main builds for
# its first word, against the full parser: per command -h, a bad --family
# (aut and reduce-3partition have none, so it is trailing junk there), a
# missing required flag and trailing junk, which prints the top-level usage.
PARSER_CASES = [
    "generate -h",
    "generate --family xyz -m 2 -n 2",
    "generate --family sr -n 2",
    "generate --family sr -m 3 -n 2 extra",
    "analyze -h",
    "analyze --family xyz -m 2 -n 2",
    "analyze --family sr -m 3",
    "analyze --family sr -m 3 -n 2 extra",
    "construct -h",
    "construct coloring --family xyz -m 2 -n 2",
    "construct clique -m 3",
    "construct clique -m 3 -n 2 extra",
    "distance -h",
    "distance --family xyz -m 3 -n 2 --from 0,0,0 --to 0,0,0",
    "distance -m 3 -n 2 --from 0,0,0",
    "distance -m 3 -n 2 --from 0,0,0 --to 0,0,0 extra",
    "aut -h",
    "aut --family csr -m 3 -n 2",
    "aut -m 3",
    "aut -m 3 -n 2 extra",
    "reduce-3partition -h",
    "reduce-3partition --family csr --instance x",
    "reduce-3partition",
    "reduce-3partition --instance x extra",
    "",
    "bogus",
    "construct",
    "construct hamiltonian-cycle -h",
]


@pytest.mark.parametrize("text", PARSER_CASES)
def test_cli_one_command_parser_matches_full_parser(text, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at the terminal width
    argv = text.split()
    outcomes = []
    for parse in (main, cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if "-h" in argv else 1)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "the following arguments are required: command"),
        ("bogus", "argument command: invalid choice: 'bogus'"),
    ],
)
def test_cli_top_level_errors_name_the_command_argument(text, message, capsys):
    # the full parser keeps the subparsers' metavar unset, so these errors
    # name the argument 'command'
    with pytest.raises(SystemExit) as exc:
        main(text.split())
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.splitlines()[-1].startswith(f"rooklab: error: {message}")


def test_cli_import_leaves_search_and_report_modules_unloaded():
    # a fresh interpreter: importing the CLI loads what distance and
    # reduce-3partition run, and the commands that need more load it
    script = """
import sys
import rooklab.cli
lazy = ("rooklab.report", "rooklab.oracles", "rooklab.automorphisms", "json")
print(" ".join(name for name in lazy if name in sys.modules) or "none")
main = rooklab.cli.main
print(main("analyze --family csr -m 3 -n 2 --oracle all".split()))
print(main("aut -m 3 -n 2 --count-only --oracle".split()))
"""
    src = os.path.dirname(os.path.dirname(rooklab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "none"
    end = lines.index("summary discrepancy=yes")  # chi(CSR(3,2)) = 4 above p = 3
    assert lines[end + 1] == "0"
    assert lines[-2:] == ["oracle count=24 matches-formula=yes", "0"]


def test_cli_aut_without_oracle_leaves_search_modules_unloaded():
    # a fresh interpreter: the descriptor walk alone needs no search module
    script = """
import sys
from rooklab.cli import main
code = main(["aut", "-m", "3", "-n", "2", "--count-only"])
print(code, "rooklab.oracles" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(rooklab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cli_aut_oracle_leaves_search_modules_unloaded():
    # a fresh interpreter: the orbit-stabilizer count reads the adjacency
    # bitmasks from core, not through the search module
    script = """
import sys
from rooklab.cli import main
code = main(["aut", "-m", "4", "-n", "3", "--count-only", "--oracle"])
print(code, "rooklab.oracles" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(rooklab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["oracle count=1296 matches-formula=yes", "0 False"]
