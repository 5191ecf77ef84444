import numpy as np
import pytest

from ccdlab.blocks import BlockPartition, DiagonalMetric, symmetrize


def test_partition_basics():
    part = BlockPartition((2, 3, 1))
    assert part.dim == 6
    assert part.num_blocks == 3
    assert part.offsets == (0, 2, 5, 6)
    assert part.block_slice(1) == slice(2, 5)
    with pytest.raises(IndexError):
        part.block_slice(3)
    with pytest.raises(ValueError):
        BlockPartition(())
    with pytest.raises(ValueError):
        BlockPartition((2, 0))


def test_partition_even_split():
    part = BlockPartition.even(10, 4)
    assert part.block_sizes == (3, 3, 2, 2)
    assert BlockPartition.even(5, 5).block_sizes == (1,) * 5
    with pytest.raises(ValueError):
        BlockPartition.even(3, 4)


@pytest.mark.parametrize(
    "part, runs",
    [
        (BlockPartition((1, 2, 5)), ((0, 1, 1, 1), (1, 3, 1, 2), (3, 8, 1, 5))),
        (BlockPartition((3, 3, 2, 2, 1)), ((0, 6, 2, 3), (6, 10, 2, 2), (10, 11, 1, 1))),
        (BlockPartition.even(64, 4), ((0, 64, 4, 16),)),
        (BlockPartition.even(7, 3), ((0, 3, 1, 3), (3, 7, 2, 2))),
        (BlockPartition.even(5, 5), ((0, 5, 5, 1),)),
        (BlockPartition((2, 3, 2)), ((0, 2, 1, 2), (2, 5, 1, 3), (5, 7, 1, 2))),
    ],
)
def test_partition_runs_of_equal_size_blocks(part, runs):
    assert part.runs == runs


def test_metric_validation():
    part = BlockPartition((2,))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, 0.0]), part)
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, 2.0, 3.0]), part)
    metric = DiagonalMetric.from_block_scales(BlockPartition((2, 1)), [2.0, 5.0])
    assert np.array_equal(metric.entries, [2.0, 2.0, 5.0])
    assert np.array_equal(metric.block(1), [5.0])


def test_symmetry_policy():
    slightly = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    # within tolerance: symmetrized, not rejected
    out = symmetrize(slightly)
    assert out[0, 1] == out[1, 0]
    badly = np.array([[1.0, 2.0], [2.5, 3.0]])
    with pytest.raises(ValueError):
        symmetrize(badly)
