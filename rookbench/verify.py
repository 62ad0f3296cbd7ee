"""Checks that decide whether a job's outputs are correct.

Fixed jobs are compared with the exit code and sha256 digests of stdout,
stderr and every written file recorded in `expected.json` (see record.py).
Seed-generated jobs carry certificates that are checked directly:

- distance: the witness blocks partition 1..m, each block of `to - from`
  sums to 0 mod n, `value` is m minus the block count, and `value` equals
  the distance found by an exact subset DP of this module's own
  (`max_zero_blocks`), so a witness with too few blocks fails too;
- reduce-3partition: the same certificate for the instance vertex, the
  distance is 2k exactly for yes-instances, `agree=yes`, and the decoded
  answer and the solver's answer match how the instance was generated.

A job that raised, exited unexpectedly or printed anything else fails.
"""

from __future__ import annotations

import functools
import json
import os
import re

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as infile:
        return json.load(infile)


def digests(record: dict) -> dict:
    """The outputs that must repeat byte for byte."""
    return {k: record.get(k) for k in ("exit", "stdout", "stderr", "files")}


def check(job, record: dict, expected: dict) -> str | None:
    """None when the job's outputs are correct, else the reason they are not."""
    if record.get("exception"):
        return "raised: " + record["exception"].strip().splitlines()[-1]
    if job.check == "digest":
        want = expected.get(job.key)
        if want is None:
            return "no expected digests recorded"
        got = digests(record)
        wrong = [k for k in got if got[k] != want.get(k)]
        return f"differs from expected in {', '.join(wrong)}" if wrong else None
    if record.get("exit") != 0 or record.get("stderr") != EMPTY_SHA256:
        return f"exit {record.get('exit')}, stderr {record.get('stderr_text', '')!r}"
    certificate = {"distance": _check_distance, "reduce": _check_reduce}[job.check]
    try:
        return certificate(job, _fields(record.get("stdout_text", "")))
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


def _fields(text: str) -> dict[str, dict[str, str]]:
    """`head key=value ...` lines, keyed by their first word."""
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        head, *pairs = line.split()
        out[head] = dict(pair.split("=", 1) for pair in pairs if "=" in pair)
    return out


def _vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _blocks(text: str) -> list[list[int]]:
    return [[int(x) for x in b.split(",") if x] for b in re.findall(r"\{([^}]*)\}", text)]


@functools.lru_cache(maxsize=None)
def max_zero_blocks(diff: tuple[int, ...], n: int) -> int:
    """The largest number of blocks, each summing to 0 mod n, that partition
    the coordinates of `diff` (whose total is 0 mod n).

    best[mask] is the most zero-sum prefixes on a chain of subsets growing
    one coordinate at a time up to `mask`; the differences between
    consecutive zero-sum prefixes are the blocks.  O(2^m * m)."""
    m = len(diff)
    total = [0] * (1 << m)
    best = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        total[mask] = total[mask ^ low] + diff[low.bit_length() - 1]
        most, rest = 0, mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if best[mask ^ bit] > most:
                most = best[mask ^ bit]
        best[mask] = most + (total[mask] % n == 0)
    return best[-1]


def _query(job) -> tuple[tuple[int, ...], int]:
    """The coordinate differences and modulus whose zero partition a
    certificate job's distance is."""
    if job.check == "distance":
        u, v, n = job.facts["from"], job.facts["to"], job.n
        return tuple((b - a) % n for a, b in zip(u, v)), n
    return tuple(job.facts["values"]), job.facts["s"]


def reference(job) -> int | None:
    """The exact distance a certificate job must print; None for a job
    checked by digest.  Cached, so a run computes it once per job."""
    if job.check == "digest":
        return None
    diff, n = _query(job)
    return len(diff) - max_zero_blocks(diff, n)


def _certificate(job, witness: dict, value: int) -> str | None:
    """Witness blocks (1-based) partition the coordinates, each block of
    the job's differences sums to 0 mod n, value = m - blocks, and value is
    the exact distance."""
    diff, n = _query(job)
    m = len(diff)
    blocks = _blocks(witness.get("blocks", ""))
    members = sorted(i for block in blocks for i in block)
    if members != list(range(1, m + 1)):
        return f"witness blocks {witness.get('blocks')} do not partition 1..{m}"
    for block in blocks:
        if sum(diff[i - 1] for i in block) % n:
            return f"witness block {block} does not sum to 0 mod {n}"
    if int(witness.get("size", -1)) != len(blocks):
        return "witness size differs from its block count"
    if value != m - len(blocks):
        return f"value {value} != m - blocks = {m - len(blocks)}"
    exact = reference(job)
    if value != exact:
        return f"value {value} is not the exact distance {exact}"
    return None


def _check_distance(job, fields) -> str | None:
    line = fields.get("distance")
    if line is None or "witness" not in fields:
        return "missing distance or witness line"
    m, n = job.m, job.n
    u, v = job.facts["from"], job.facts["to"]
    echoed = (int(line["m"]), int(line["n"]), _vector(line["from"]), _vector(line["to"]))
    if echoed != (m, n, tuple(u), tuple(v)):
        return f"echoed query {echoed} is not the query asked"
    return _certificate(job, fields["witness"], int(line["value"]))


def _check_reduce(job, fields) -> str | None:
    if not {"reduction", "distance", "witness", "answer"} <= fields.keys():
        return "missing reduction, distance, witness or answer line"
    k = job.facts["k"]
    answer = "yes" if job.facts["answer"] else "no"
    got = fields["answer"]
    if got != {"decoded": answer, "solver": answer, "agree": "yes"}:
        return f"answer line {got} does not match the generated answer {answer}"
    value = int(fields["distance"]["value"])
    if (value == 2 * k) != job.facts["answer"]:
        return f"distance {value} contradicts the generated answer {answer}"
    return _certificate(job, fields["witness"], value)
