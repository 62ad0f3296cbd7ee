"""The 3-Partition reduction to a CSR distance query, and the independent
solver."""

import io

import pytest

from rooklab.core import csr_spec
from rooklab.hardness import (
    ThreePartitionInstance,
    read_instance,
    run_reduction,
    solve_3partition,
)
from rooklab.metrics import csr_distance_witness

from reference import is_zero_partition


def write_instance(inst, out):
    """The instance file `read_instance` parses: 'k s', then the 3k values."""
    out.write(f"{inst.k} {inst.s}\n")
    out.write(" ".join(str(a) for a in inst.values) + "\n")


def test_instance_validation_examples():
    inst = ThreePartitionInstance(1, 3, (1, 1, 1))
    assert inst.values == (1, 1, 1)
    ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3))
    with pytest.raises(ValueError, match="range violation at index 1"):
        ThreePartitionInstance(1, 3, (2, 2, 2))
    with pytest.raises(ValueError, match="sum mismatch"):
        ThreePartitionInstance(2, 10, (4, 4, 4, 3, 3, 3))
    with pytest.raises(ValueError, match="expected 6 values"):
        ThreePartitionInstance(2, 10, (4, 4, 3))


def test_encode():
    # the vertex (4, 4, 3, 3, 3, 3) of CSR(6, 10): its blocks partition the values mod s
    distance, blocks, _, _ = run_reduction(ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3)))
    assert distance == csr_distance_witness(csr_spec(6, 10), (0,) * 6, (4, 4, 3, 3, 3, 3))[0]
    assert distance == 6 - len(blocks)
    assert is_zero_partition(blocks, (4, 4, 3, 3, 3, 3), 10)


def test_decode_yes_instances():
    inst = ThreePartitionInstance(1, 3, (1, 1, 1))
    distance, _, decoded, _ = run_reduction(inst)
    assert distance == csr_distance_witness(csr_spec(3, 3), (0, 0, 0), (1, 1, 1))[0] == 2
    assert decoded

    inst = ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3))
    distance, _, decoded, _ = run_reduction(inst)
    assert distance == csr_distance_witness(csr_spec(6, 10), (0,) * 6, inst.values)[0] == 4
    assert decoded


def test_decode_no_instance():
    inst = ThreePartitionInstance(2, 40, (12, 12, 12, 12, 14, 18))
    distance, _, decoded, solver_answer = run_reduction(inst)
    assert not solver_answer
    assert distance > 4 and not decoded
    assert decoded == solver_answer


def test_solver_witness_triples():
    answer, triples = solve_3partition(ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3)))
    assert answer
    values = (4, 4, 3, 3, 3, 3)
    used = [i for triple in triples for i in triple]
    assert sorted(used) == list(range(6))
    assert all(sum(values[i] for i in triple) == 10 for triple in triples)


def test_blocks_never_smaller_than_three():
    # the range constraint makes pair sums < s, so zero-sum blocks need >= 3
    # elements and the block count never exceeds k
    for inst in (
        ThreePartitionInstance(1, 3, (1, 1, 1)),
        ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3)),
        ThreePartitionInstance(2, 40, (12, 12, 12, 12, 14, 18)),
        ThreePartitionInstance(3, 12, (4, 4, 4, 4, 4, 4, 4, 4, 4)),
    ):
        _, blocks, _, _ = run_reduction(inst)
        assert len(blocks) <= inst.k
        assert all(len(block) >= 3 for block in blocks)


def test_file_round_trip():
    inst = ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3))
    buf = io.StringIO()
    write_instance(inst, buf)
    buf.seek(0)
    assert read_instance(buf) == inst


def test_file_parse_errors():
    with pytest.raises(ValueError, match="k s"):
        read_instance(io.StringIO("1 2 3\n1 1 1\n"))


def test_file_values_may_wrap_lines():
    inst = read_instance(io.StringIO("2 10\n4 4 3\n3\n3 3\n"))
    assert inst == ThreePartitionInstance(2, 10, (4, 4, 3, 3, 3, 3))


@pytest.mark.parametrize(
    "text,err",
    [
        ("1 10\n3 3 4\nextra\n", "invalid literal"),
        ("1 10\n3 3 4\n5\n", "expected 3 values, got 4"),
    ],
)
def test_file_trailing_tokens_rejected(text, err):
    with pytest.raises(ValueError, match=err):
        read_instance(io.StringIO(text))
