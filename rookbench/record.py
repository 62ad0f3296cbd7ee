"""Record the expected exit code and output digests of every fixed job.

    python3 rookbench/record.py

Run it in a checkout whose outputs are known to be right.  It runs each
fixed workload once, untraced, and rewrites expected.json.  The
benchmark counts any later difference as a failed job, so re-recording is a
change to the benchmark's correctness check and belongs in its own change.
"""

import json
import shutil
import sys
from pathlib import Path

import jobs as joblib
import run
import verify


def main() -> int:
    workdir = run.STATE / "record"
    expected = {}
    for workload, job_list in joblib.FIXED.items():
        try:
            result = run.run_pass(list(job_list), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for job, record in zip(job_list, result["jobs"]):
            if record.get("exception"):
                print(f"error: {job.key} raised:\n{record['exception']}", file=sys.stderr)
                return 1
            expected[job.key] = verify.digests(record)
            print(f"{record['seconds']:8.3f} s  exit={record['exit']}  {job.key}")
    Path(verify.EXPECTED_PATH).write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
