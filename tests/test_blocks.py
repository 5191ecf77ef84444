import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.blocks import (
    MASK_LEADING,
    MASK_TRAILING,
    BlockPartition,
    DiagonalMetric,
    materialize_mask,
    symmetrize,
)


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


def test_metric_validation():
    part = BlockPartition((2,))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, 0.0]), part)
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, 2.0, 3.0]), part)
    metric = DiagonalMetric.from_block_scales(BlockPartition((2, 1)), [2.0, 5.0])
    assert np.array_equal(metric.entries, [2.0, 2.0, 5.0])
    assert np.array_equal(metric.block(1), [5.0])


def test_mask_trivial_cases():
    part = BlockPartition((1, 1, 1))
    Q = np.ones((3, 3))
    # leading mask at the first cut keeps nothing
    assert np.all(materialize_mask(Q, MASK_LEADING, 0, part) == 0.0)
    # trailing mask at the first cut keeps everything
    assert np.array_equal(materialize_mask(Q, MASK_TRAILING, 0, part), Q)
    # zeroing the first singleton block leaves a 2x2 block of ones
    want = np.zeros((3, 3))
    want[1:, 1:] = 1.0
    assert np.array_equal(materialize_mask(Q, MASK_TRAILING, 1, part), want)


def test_materialize_matches_and_bounds():
    part = BlockPartition((2, 2))
    Q = np.arange(16, dtype=float).reshape(4, 4)
    Q = 0.5 * (Q + Q.T)
    assert np.array_equal(materialize_mask(Q, MASK_TRAILING, 0, part), Q)
    assert np.all(materialize_mask(Q, MASK_LEADING, 0, part) == 0.0)
    with pytest.raises(IndexError):
        materialize_mask(Q, MASK_LEADING, 2, part)
    with pytest.raises(ValueError):
        materialize_mask(Q, "diagonal", 0, part)


@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_mask_reconstruction_identity(seed, sizes):
    """trailing + leading + twice the cross strip rebuilds the full form."""
    part = BlockPartition(tuple(sizes))
    d = part.dim
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((d, d))
    Q = 0.5 * (Q + Q.T)
    u = rng.standard_normal(d)
    full = float(u @ Q @ u)
    for j in range(part.num_blocks):
        cut = part.offsets[j]
        trailing = float(u @ materialize_mask(Q, MASK_TRAILING, j, part) @ u)
        leading = float(u @ materialize_mask(Q, MASK_LEADING, j, part) @ u)
        cross = float(u[:cut] @ Q[:cut, cut:] @ u[cut:])
        assert trailing + leading + 2 * cross == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_symmetry_policy():
    part = BlockPartition((2,))
    slightly = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    # within tolerance: symmetrized, not rejected
    out = symmetrize(slightly)
    assert out[0, 1] == out[1, 0]
    badly = np.array([[1.0, 2.0], [2.5, 3.0]])
    with pytest.raises(ValueError):
        materialize_mask(badly, MASK_TRAILING, 0, part)
