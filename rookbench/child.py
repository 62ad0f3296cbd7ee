"""One benchmark pass in a fresh process: import rooklab, run a job list
through `rooklab.cli.main`, and write what each job did to a result file.

    python3 rookbench/child.py --import-only
    python3 rookbench/child.py JOBS.json RESULT.json [--trace SPANS.jsonl]

The first form only imports rooklab, which warms the page cache and writes
bytecode before the first timed child.  The second form records the
monotonic clock reading at which `rooklab.cli` was ready, for the set-up
time, then runs the jobs one after another, each with stdout and stderr
sent to files, and hashes each job's outputs outside the timed region.  With --trace, every public rooklab function is wrapped from
outside (see tracer.py) before the first job starts.
"""

import os
import sys
import time

# the checkout's src/, next to this file's directory; jobs run in a work
# directory, so output paths in argv are short and the same on every run
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import rooklab.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as infile:
        for chunk in iter(lambda: infile.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _tail(path: str, limit: int = 4096) -> str:
    with open(path, encoding="utf-8", errors="replace") as infile:
        return infile.read()[-limit:]


def run_job(job: dict, span=contextlib.nullcontext()) -> dict:
    """Run one command line inside `span`; returns exit code, seconds and
    output digests."""
    stdout_path, stderr_path = job["stdout"], job["stderr"]
    record = {"exception": None}
    with open(stdout_path, "w", encoding="utf-8") as out, open(
        stderr_path, "w", encoding="utf-8"
    ) as err:
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = rooklab.cli.main(job["argv"])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a job that raises is a failed job, not a crashed pass
            code = None
            record["exception"] = traceback.format_exc(limit=5)
        finally:
            out.close()
            seconds = time.perf_counter() - start
    record.update(
        exit=code,
        seconds=seconds,
        stdout=_sha256(stdout_path),
        stderr=_sha256(stderr_path),
        files={name: _sha256(path) for name, path in job["files"].items() if os.path.exists(path)},
    )
    if job.get("keep_stdout"):
        record["stdout_text"] = _tail(stdout_path, 1 << 16)
    if code != 0 or record["exception"]:
        record["stderr_text"] = _tail(stderr_path)
    for path in [stdout_path, stderr_path, *job["files"].values()]:
        if os.path.exists(path):
            os.remove(path)
    return record


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str]) -> int:
    if not os.path.dirname(rooklab.cli.__file__).startswith(SRC):
        print(f"rooklab imported from {rooklab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if argv == ["--import-only"]:
        return 0
    jobs_path, result_path, *rest = argv
    with open(jobs_path) as infile:
        jobs = json.load(infile)
    tracer = None
    if rest[:1] == ["--trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = [
        run_job(job) if tracer is None else run_job(job, tracer.job(index))
        for index, job in enumerate(jobs)
    ]
    result = {
        "ready": READY,
        "jobs": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(rest[1])
    with open(result_path, "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
