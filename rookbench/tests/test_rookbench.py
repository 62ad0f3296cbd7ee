"""The benchmark's own checks: tracing changes no output and its counts
repeat, a wrong output counts as a failed job, seeded inputs repeat, and the
benchmark refuses to run without the program."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs as joblib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from rooklab.hardness import ThreePartitionInstance, solve_3partition  # noqa: E402


def _job(text: str, family: str, m: int, n: int) -> joblib.Job:
    return joblib.Job(tuple(text.split()), family, m, n)


# small jobs that between them enter every layer; the seeded ones are the
# cheap end of the distance workload
SMALL = [
    _job("analyze --family sr -m 3 -n 4 --oracle all", "SR", 3, 4),
    _job("analyze --family csr -m 3 -n 3 --oracle all --json {out}", "CSR", 3, 3),
    _job("generate --family csr -m 3 -n 4 --edges-out {out}", "CSR", 3, 4),
    _job("aut -m 3 -n 3 --oracle", "CSR", 3, 3),
    _job("construct hamiltonian-cycle -m 4 -n 3 --out {out}", "SR", 4, 3),
    _job("construct coloring --family sr -m 3 -n 3", "SR", 3, 3),
    _job("analyze --family csr -m 3 -n 2 --strict", "CSR", 3, 2),
] + [job for job in joblib.distance_jobs(seed=3) if job.m <= 12]


def test_traced_outputs_match_untraced_and_counts_repeat(tmp_path):
    plain = run.run_pass(SMALL, tmp_path / "plain")
    first = run.run_pass(SMALL, tmp_path / "traced1", trace_path=tmp_path / "s1.jsonl")
    second = run.run_pass(SMALL, tmp_path / "traced2", trace_path=tmp_path / "s2.jsonl")
    want = [verify.digests(r) for r in plain["jobs"]]
    assert [verify.digests(r) for r in first["jobs"]] == want
    assert [verify.digests(r) for r in second["jobs"]] == want
    assert [r["exit"] for r in plain["jobs"]][:7] == [0, 0, 0, 0, 0, 0, 3]

    counts = first["trace"]["counts"]
    assert counts == second["trace"]["counts"]
    assert first["trace"]["job_counts"] == second["trace"]["job_counts"]
    for layer in tracer.LAYERS:
        assert any(k.startswith(layer + ".") and v for k, v in counts.items()), layer
    assert counts["cli.main.calls"] == len(SMALL)
    assert counts["spectral.eigvalsh.calls"] > 0

    spans = [json.loads(line) for line in (tmp_path / "s1.jsonl").read_text().splitlines()]
    jobs = [s for s in spans if s["kind"] == "job"]
    assert len(jobs) == len(SMALL) and all(s["parent"] == -1 for s in jobs)
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        if span["parent"] != -1:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["job"] == span["job"]


def test_wrong_output_counts_in_fail_ratio(tmp_path):
    job_list = SMALL[:2]
    result = run.run_pass(job_list, tmp_path)
    expected = {job.key: verify.digests(r) for job, r in zip(job_list, result["jobs"])}
    assert run.check_pass(job_list, result, expected) == []

    expected[job_list[0].key]["stdout"] = "0" * 64
    failures = run.check_pass(job_list, result, expected)
    assert len(failures) == 1 and "stdout" in failures[0]

    measured = run.measure(job_list, expected, 0.0, tmp_path)
    attempted = measured["attempted"]
    assert measured["metrics"]["verified_ratio"][0] == (attempted - attempted // 2) / attempted


def test_certificate_checks_reject_tampered_output(tmp_path):
    job_list = [job for job in joblib.distance_jobs(seed=4) if job.m <= 12]
    result = run.run_pass(job_list, tmp_path)
    assert run.check_pass(job_list, result, {}) == []
    # a certified output that differs from the untraced pass's still fails
    other = {"jobs": [dict(r) for r in result["jobs"]]}
    other["jobs"][0]["stdout"] = "0" * 64
    assert len(run.check_pass(job_list, result, {}, reference=other)) == 1
    for job, record in zip(job_list, result["jobs"]):
        text = record["stdout_text"]
        value = text.split(" value=")[1].split()[0]
        wrong_value = text.replace(f" value={value}", f" value={int(value) + 1}", 1)
        wrong_answer = text.replace("agree=yes", "agree=no")
        for tampered in {wrong_value, wrong_answer} - {text}:
            assert verify.check(job, {**record, "stdout_text": tampered}, {}) is not None
        assert verify.check(job, {**record, "exit": 1}, {}) is not None
    lying = replace(job_list[-1], facts={**job_list[-1].facts, "answer": not job_list[-1].facts["answer"]})
    assert verify.check(lying, result["jobs"][-1], {}) is not None


def _coarser(text: str) -> str | None:
    """The output with its first two witness blocks merged and the value
    raised to match: still a partition into zero-sum blocks, but one block
    short of the best.  None when the witness has a single block."""
    head, rest = text.split("witness blocks=", 1)
    blocks, tail = rest.split(" size=", 1)
    parts = re.findall(r"\{([^}]*)\}", blocks)
    if len(parts) < 2:
        return None
    value = int(head.split(" value=")[1].split()[0])
    merged = ",".join("{%s}" % p for p in [parts[0] + "," + parts[1], *parts[2:]])
    size, after = tail.split(None, 1) if " " in tail.strip() else (tail.strip(), "")
    head = head.replace(f" value={value}", f" value={value + 1}", 1)
    return f"{head}witness blocks={merged} size={int(size) - 1}\n{after}"


def test_suboptimal_witness_fails(tmp_path):
    job_list = [job for job in joblib.distance_jobs(seed=4) if job.m <= 12]
    result = run.run_pass(job_list, tmp_path)
    coarsened = 0
    for job, record in zip(job_list, result["jobs"]):
        assert verify.check(job, record, {}) is None
        text = _coarser(record["stdout_text"])
        if text is None:
            continue
        reason = verify.check(job, {**record, "stdout_text": text}, {})
        if job.check == "reduce" and job.facts["answer"]:
            assert reason is not None, job.key  # a yes-instance's distance is 2k
        else:
            # caught only by the exact DP, as the witness itself is valid
            assert reason is not None and "exact distance" in reason, (job.key, reason)
            coarsened += 1
    assert coarsened >= 2


def test_seed_fixes_generated_inputs():
    assert joblib.build("distance", 5) == joblib.build("distance", 5)
    assert joblib.build("distance", 5) != joblib.build("distance", 6)
    for seed in range(6):
        for job in joblib.distance_jobs(seed):
            if job.check == "reduce":
                facts = job.facts
                inst = ThreePartitionInstance(facts["k"], facts["s"], facts["values"])
                assert solve_3partition(inst)[0] == facts["answer"]


def test_every_fixed_job_has_expected_outputs():
    expected = verify.load_expected()
    for workload, job_list in joblib.FIXED.items():
        for job in job_list:
            assert job.key in expected, (workload, job.key)
    strict = [k for k in expected if "--strict" in k]
    assert len(strict) == 2 and all(expected[k]["exit"] == 3 for k in strict)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "rookbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "rookbench/run.py", "--workload", "distance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "src/rooklab" in proc.stderr
