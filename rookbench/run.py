"""rooklab benchmark: runs one workload's job list through the real CLI entry
point, verifies every output, and prints the metrics.

    python3 rookbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rookbench/run.py --workload all --seed N     # every workload, summary lines

It benchmarks the checkout it sits in, and writes only under that
checkout's .rookbench/ directory.  Each pass runs the whole job list,
one job after another, in a fresh child process (child.py) with BLAS
pinned to one thread; load comes from that single process.

--trace 0 measures the end-to-end metrics.  After one warm-up child that
only imports `rooklab.cli`, it repeats passes while another pass fits in
--seconds (at least one), and reports medians over passes:
  wall_s          seconds to run the job list, outputs written
  setup_s         child process start to `rooklab.cli` imported and ready
  peak_rss_mb     peak resident memory of a pass's child process
  verified_ratio  jobs whose exit code and outputs verified / jobs attempted
fail_ratio (1 - verified_ratio) is printed with the summary lines.

--trace 1 runs one untraced pass and one traced pass (tracer.py) and
reports the per-layer metrics of BENCHMARK.json, including
trace.overhead_ratio, the traced wall time over the untraced one.  The
two passes must write byte-identical outputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Results with per-job times and the
environment are also written under .rookbench/results/, and the traced
pass's spans to a .spans.jsonl file beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblib
import verify
from tracer import LAYERS

ROOT = Path(__file__).resolve().parents[1]  # the checkout holding src/rooklab
CHILD = ROOT / "rookbench" / "child.py"
STATE = ROOT / ".rookbench"
# a pass takes seconds; two timed-out passes still end a run within 180 s
CHILD_TIMEOUT_S = 80

PER_LAYER_COUNTS = (
    "cli.main.calls",
    "core.enumerate_vertices.calls",
    "core.neighbors.calls",
    "core.adjacent.calls",
    "core.validate_vertex.calls",
    "core.format_vertex.calls",
    "core.iter_vertices.items",
    "constructions.residue_key.calls",
    "spectral.adjacency_matrix.calls",
    "spectral.eigvalsh.calls",
    "metrics.csr_distance_witness.calls",
    "metrics.zero_partition_number.calls",
    "automorphisms.enumerate_group.items",
    "hardness.run_reduction.calls",
)
PER_LAYER_SELF_S = (
    "cli.main",
    "report.build_report",
    "core.neighbors",
    "core.edges",
    "core.write_edge_list",
    "constructions.residue_independent_family",
    "constructions.proper_coloring",
    "constructions.dominating_set_sr",
    "constructions.hamiltonian_cycle_sr",
    "spectral.adjacency_matrix",
    "spectral.eigvalsh",
    "spectral.spectrum",
    "spectral.lambda_min_check",
    "spectral.csr_character_spectrum",
    "oracles.oracle_alpha",
    "oracles.oracle_gamma",
    "oracles.oracle_omega",
    "oracles.oracle_chi",
    "oracles.all_pairs_distances",
    "oracles.verify_cycle",
    "metrics.zero_partition_number",
    "automorphisms.oracle_aut_count",
    "automorphisms.enumerate_group",
    "hardness.solve_3partition",
)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def warm_up() -> None:
    """Import rooklab once in a child, so that the first timed child finds
    the page cache and bytecode as warm as repeat CLI calls do."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--import-only"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"warm-up child failed: {proc.stderr.strip()}")


def run_pass(job_list, workdir: Path, trace_path: Path | None = None) -> dict:
    """Run the job list once in a fresh child; returns the child's result
    with `setup_s` and `wall_s` added.  Raises RuntimeError when the child
    itself fails or times out (a job that fails does not fail the child)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    specs = []
    for i, job in enumerate(job_list):
        files, argv = {}, []
        for arg in job.argv:
            if arg == joblib.OUT:
                arg = files["out"] = f"job{i}.out"
            elif arg == joblib.INSTANCE:
                arg = f"job{i}.instance"
                (workdir / arg).write_text(job.instance)
            argv.append(arg)
        specs.append(
            {"argv": argv, "stdout": f"job{i}.stdout", "stderr": f"job{i}.stderr",
             "files": files, "keep_stdout": job.check != "digest"}
        )
    (workdir / "jobs.json").write_text(json.dumps(specs))
    command = [sys.executable, str(CHILD), "jobs.json", "result.json"]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    start = _clock()
    try:
        proc = subprocess.run(
            command, cwd=workdir, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        failure = None if proc.returncode == 0 else f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        failure = f"child timed out after {CHILD_TIMEOUT_S} s"
    if failure is not None:
        raise RuntimeError(failure)
    result = json.loads((workdir / "result.json").read_text())
    result["setup_s"] = result["ready"] - start
    result["wall_s"] = sum(record["seconds"] for record in result["jobs"])
    return result


def check_pass(job_list, result: dict, expected: dict, reference: dict | None = None) -> list[str]:
    """Failure reasons, one per failed job, as 'job key: reason'.  With a
    reference pass, a job whose outputs differ from it fails too."""
    failures = []
    for i, (job, record) in enumerate(zip(job_list, result["jobs"])):
        reason = verify.check(job, record, expected)
        if reason is None and reference is not None:
            if verify.digests(record) != verify.digests(reference["jobs"][i]):
                reason = "traced outputs differ from untraced outputs"
        if reason is not None:
            failures.append(f"{job.key}: {reason}")
    return failures


def measure(job_list, expected: dict, seconds: float, workdir: Path) -> dict:
    """Untraced passes: the end-to-end metrics."""
    warm_up()
    for job in job_list:
        verify.reference(job)  # the certificate checks' exact DP, outside the time budget
    passes, failures = [], []
    begin = _clock()
    while True:
        result = run_pass(job_list, workdir)
        passes.append(result)
        failures += check_pass(job_list, result, expected)
        spent = _clock() - begin
        if spent + spent / len(passes) > seconds:
            break
    attempted = len(job_list) * len(passes)
    return {
        "passes": passes,
        "failures": failures,
        "attempted": attempted,
        "metrics": {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024 for p in passes), "MB"),
            "verified_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        },
    }


def per_vertex(job_list, job_counts) -> float:
    """core.neighbors calls over the vertex count of the graphs whose jobs
    called it: how many times each vertex's adjacency was rebuilt."""
    calls = vertices = 0
    for job, counts in zip(job_list, job_counts):
        made = counts.get("core.neighbors.calls", 0)
        if made:
            calls += made
            vertices += job.vertex_count
    return calls / vertices if vertices else 0.0


def trace(job_list, expected: dict, workdir: Path, spans_path: Path) -> dict:
    """One untraced and one traced pass: the per-layer metrics."""
    plain = run_pass(job_list, workdir)
    traced = run_pass(job_list, workdir, trace_path=spans_path)
    failures = check_pass(job_list, plain, expected)
    failures += check_pass(job_list, traced, expected, reference=plain)
    summary = traced["trace"]
    counts, self_s = summary["counts"], summary["self_s"]
    metrics = {name: (counts.get(name, 0), "count") for name in PER_LAYER_COUNTS}
    metrics["core.neighbors.per_vertex"] = (per_vertex(job_list, summary["job_counts"]), "ratio")
    for name in PER_LAYER_SELF_S:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (total, "s")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    return {
        "passes": [plain, traced],
        "failures": failures,
        "attempted": 2 * len(job_list),
        "metrics": metrics,
    }


def _environment(result: dict, seed: int) -> str:
    env = result["passes"][0]["env"]
    return " ".join(f"{k}={v}" for k, v in {**env, "seed": seed}.items())


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = STATE / f"work-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    job_list = joblib.build(workload, seed)
    expected = verify.load_expected()
    try:
        if traced:
            spans = results / f"{workload}-seed{seed}.spans.jsonl"
            result = trace(job_list, expected, workdir, spans)
        else:
            result = measure(job_list, expected, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = _environment(result, seed)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "environment": result["environment"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "failures": result["failures"],
        "pass_setup_s": [p["setup_s"] for p in result["passes"]],
        "job_seconds": [
            {job.key: r["seconds"] for job, r in zip(job_list, p["jobs"])}
            for p in result["passes"]
        ],
    }
    if traced:
        counts = result["passes"][1]["trace"]["job_counts"]
        record["job_counts"] = {job.key: c for job, c in zip(job_list, counts)}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def summary_lines(workload: str, result: dict) -> list[str]:
    lines = [f"env workload={workload} {result['environment']}"]
    for failure in result["failures"]:
        lines.append(f"failed {failure}")
    walls = [p["wall_s"] for p in result["passes"]]
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "wall_s":
            note = f"  (median of n={len(walls)} passes, max {max(walls):.4f})"
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"metric workload={workload} {name}={shown} {unit}{note}")
    attempted, failed = result["attempted"], len(result["failures"])
    lines.append(
        f"metric workload={workload} fail_ratio={failed / attempted:.6g} ratio"
        f"  ({failed}/{attempted} jobs)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*joblib.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rooklab" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/rooklab to benchmark", file=sys.stderr)
        return 2

    workloads = joblib.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: workload {workload}: {exc}", file=sys.stderr)
            return 1
        for line in summary_lines(workload, result):
            print(line, flush=True)
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
