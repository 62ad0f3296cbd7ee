"""Runtime limits and tolerances.  Four are overridable per call or via
environment; the oracle caps are fixed.

Environment variables (used when a function receives no explicit value):

    ROOKLAB_ENUM_CAP    max vertex count for full enumeration, and max
                        descriptor count for `aut`'s group walk (default 10_000_000)
    ROOKLAB_EIG_CAP     max vertex count for dense eigensolves  (default 2000)
    ROOKLAB_MASK_LIMIT  max nonzero coordinates for the subset DP (default
                        22, which takes under 1 s and 50-80 MB, or about
                        365 MB for a modulus past 2^63, whose subset sums
                        are Python ints; a CSR distance query counts the
                        places its vertices differ)
    ROOKLAB_TOL         numeric tolerance for spectral verdicts (default 1e-6)

A negative value, passed explicitly (from --enum-cap, --eig-cap, --mask-limit
or --tol) or read from a variable, is a ValueError naming its source.  The CLI
checks every flag it was given when it starts, whether or not the command
reads it; a variable is read only when a command needs its value.

The brute-force oracles have fixed vertex caps, which guard runtime, not
correctness: SEARCH_CAP for the exact alpha, gamma, omega and chi searches,
AUT_CAP for the automorphism count and MATRIX_CAP for the all-pairs distance
matrix.  No flag or variable changes them.
"""

import os

DEFAULT_ENUM_CAP = 10_000_000
DEFAULT_EIG_CAP = 2000
DEFAULT_MASK_LIMIT = 22
DEFAULT_TOL = 1e-6
SEARCH_CAP = 200
AUT_CAP = 128
MATRIX_CAP = 5000


def _read(value, flag: str, name: str, default, kind=int):
    """value if given, else the environment variable `name`, else default,
    converted by kind.  A malformed variable, or a negative value from either
    source, is a ValueError naming the flag or the variable it came from."""
    if value is not None:
        value, source = kind(value), flag
    else:
        text = os.environ.get(name)
        if text is None:
            return default
        try:
            value, source = kind(text), name
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{name}={text!r} is not {noun}") from None
    if not value >= 0:  # also rejects a NaN tolerance
        raise ValueError(f"{source} must be 0 or more, got {value}")
    return value


def enum_cap(value: int | None = None) -> int:
    return _read(value, "--enum-cap", "ROOKLAB_ENUM_CAP", DEFAULT_ENUM_CAP)


def eig_cap(value: int | None = None) -> int:
    return _read(value, "--eig-cap", "ROOKLAB_EIG_CAP", DEFAULT_EIG_CAP)


def mask_limit(value: int | None = None) -> int:
    return _read(value, "--mask-limit", "ROOKLAB_MASK_LIMIT", DEFAULT_MASK_LIMIT)


def tol(value: float | None = None) -> float:
    return _read(value, "--tol", "ROOKLAB_TOL", DEFAULT_TOL, float)

