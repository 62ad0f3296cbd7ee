"""The residue key of one vertex, the per-vertex reference for the array
residue scan of `constructions.proper_coloring`."""


def residue_key(v: tuple[int, ...], p: int) -> int:
    """Weighted coordinate sum sum_i i*v_i mod p, with 1-based weights."""
    return sum((i + 1) * x for i, x in enumerate(v)) % p
