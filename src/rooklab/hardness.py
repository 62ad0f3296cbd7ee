"""3-Partition encoded as a CSR distance query, with an independent solver.

`run_reduction` maps a valid instance (k, s, a_1..a_3k) to the vertex
(a_1, ..., a_3k) of CSR(3k, s) and decodes its origin distance.  The range
constraint s/4 < a_i < s/2 forces every zero-sum block to have at least
three elements, so the distance from the origin is 2k exactly when the
instance is a yes-instance.  The independent solver enumerates partitions
of the index set into triples directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

from .core import csr_spec
from .metrics import csr_distance_witness


@dataclass(frozen=True)
class ThreePartitionInstance:
    k: int
    s: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if len(self.values) != 3 * self.k:
            raise ValueError(f"expected {3 * self.k} values, got {len(self.values)}")
        for i, a in enumerate(self.values, start=1):
            # strict s/4 < a < s/2 in integer arithmetic
            if not (4 * a > self.s and 2 * a < self.s):
                raise ValueError(
                    f"range violation at index {i}: {a} is not strictly "
                    f"between {self.s}/4 and {self.s}/2"
                )
        total = sum(self.values)
        if total != self.k * self.s:
            raise ValueError(f"sum mismatch: values sum to {total}, expected k*s={self.k * self.s}")


def solve_3partition(inst: ThreePartitionInstance) -> tuple[bool, list[tuple[int, int, int]] | None]:
    """Exhaustive partition of the 3k indices into k triples of sum s.

    Independent of the distance machinery; returns one witness partition
    (0-based index triples) when the answer is yes.
    """
    indices = list(range(3 * inst.k))
    chosen: list[tuple[int, int, int]] = []

    def fill(remaining: list[int]) -> bool:
        if not remaining:
            return True
        first = remaining[0]
        rest = remaining[1:]
        for x in range(len(rest)):
            for y in range(x + 1, len(rest)):
                i, j = rest[x], rest[y]
                if inst.values[first] + inst.values[i] + inst.values[j] == inst.s:
                    chosen.append((first, i, j))
                    if fill([t for t in rest if t != i and t != j]):
                        return True
                    chosen.pop()
        return False

    if fill(indices):
        return True, chosen
    return False, None


def run_reduction(
    inst: ThreePartitionInstance, mask_cap: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...], bool, bool]:
    """Encode the values as a vertex of CSR(3k, s), compute its origin
    distance, decode (yes iff the distance is 2k), and cross-check against
    the exhaustive solver: `(distance, blocks, decoded, solver_answer)`, with
    the witness blocks as `zero_partition_number` returns them."""
    m = 3 * inst.k
    distance, blocks = csr_distance_witness(csr_spec(m, inst.s), (0,) * m, inst.values, mask_cap)
    return distance, blocks, distance == 2 * inst.k, solve_3partition(inst)[0]


# -- instance file format ----------------------------------------------------------
#
# line 1:  k s
# then:    the 3k values, whitespace-separated, on one or more lines


def read_instance(infile: IO[str]) -> ThreePartitionInstance:
    first = infile.readline().split()
    if len(first) != 2:
        raise ValueError("first line must be 'k s'")
    k, s = int(first[0]), int(first[1])
    # every later token is a value, so trailing junk fails the parse or the count
    values = tuple(int(tok) for tok in infile.read().split())
    return ThreePartitionInstance(k, s, values)

