"""Block partitions, diagonal metrics, and masked quadratic forms.

Coordinates 0..dim-1 are split into contiguous, ordered blocks. A cut at
block ``j`` separates the leading blocks 0..j-1 (already updated within a
cycle) from the trailing blocks j..m-1 (not yet updated). Coupling matrices
are masked against that cut:

* ``"trailing"`` keeps rows/columns with index >= the cut (the leading
  blocks of rows and columns are zeroed),
* ``"leading"`` keeps rows/columns with index < the cut (everything else is
  zeroed).

For ``j = 0`` the leading mask is identically zero and the trailing mask is
the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MASK_TRAILING = "trailing"
MASK_LEADING = "leading"
MASK_KINDS = (MASK_TRAILING, MASK_LEADING)

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class BlockPartition:
    """Ordered partition of ``dim`` coordinates into contiguous blocks."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if len(sizes) == 0:
            raise ValueError("partition needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @classmethod
    def even(cls, dim: int, num_blocks: int) -> "BlockPartition":
        """Split ``dim`` coordinates into ``num_blocks`` near-equal blocks."""
        if not 1 <= num_blocks <= dim:
            raise ValueError(f"need 1 <= num_blocks <= dim, got {num_blocks}, {dim}")
        base, extra = divmod(dim, num_blocks)
        return cls(tuple(base + (1 if i < extra else 0) for i in range(num_blocks)))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Prefix sums; ``offsets[j]`` is the first coordinate of block j,
        ``offsets[m]`` equals the total dimension."""
        out = [0]
        for s in self.block_sizes:
            out.append(out[-1] + s)
        return tuple(out)

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def check_block(self, j: int) -> int:
        if not 0 <= j < self.num_blocks:
            raise IndexError(f"block index {j} out of range [0, {self.num_blocks})")
        return int(j)

    def block_slice(self, j: int) -> slice:
        j = self.check_block(j)
        return slice(self.offsets[j], self.offsets[j + 1])


@dataclass(frozen=True, eq=False)
class DiagonalMetric:
    """Strictly positive diagonal weighting, stored per coordinate."""

    entries: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 1 or entries.shape[0] != self.partition.dim:
            raise ValueError(
                f"metric length {entries.shape} does not match dimension {self.partition.dim}"
            )
        if not np.all(entries > 0):
            raise ValueError("metric entries must be strictly positive")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, partition: BlockPartition) -> "DiagonalMetric":
        return cls(np.ones(partition.dim), partition)

    @classmethod
    def from_block_scales(cls, partition: BlockPartition, scales) -> "DiagonalMetric":
        """Constant weight per block: ``scales[j]`` repeated over block j."""
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (partition.num_blocks,):
            raise ValueError("need one scale per block")
        return cls(np.repeat(scales, partition.block_sizes), partition)

    def block(self, j: int) -> np.ndarray:
        return self.entries[self.partition.block_slice(j)]

    @cached_property
    def inv_entries(self) -> np.ndarray:
        inv = 1.0 / self.entries
        inv.flags.writeable = False
        return inv

    @cached_property
    def sqrt_entries(self) -> np.ndarray:
        rt = np.sqrt(self.entries)
        rt.flags.writeable = False
        return rt


def metric_norm_sq(v: np.ndarray, metric: DiagonalMetric, inverted: bool = False) -> float:
    """Squared diagonal-metric norm: sum_i w_i v_i^2 with w = entries or 1/entries."""
    v = np.asarray(v, dtype=float)
    if v.shape != (metric.partition.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {metric.partition.dim}")
    w = metric.inv_entries if inverted else metric.entries
    return float(np.dot(w, v * v))


def weighted_norm_sq(v: np.ndarray, weights: np.ndarray) -> float:
    """Squared norm of a block vector against explicit positive weights."""
    v = np.asarray(v, dtype=float)
    return float(np.dot(weights, v * v))


def symmetrize(Q: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return (Q + Q^T)/2, rejecting matrices asymmetric beyond ``rtol``."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Q.shape}")
    scale = max(float(np.max(np.abs(Q))), 1e-300)
    asym = float(np.max(np.abs(Q - Q.T)))
    if asym > rtol * scale:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {rtol:.0e} relative")
    return 0.5 * (Q + Q.T)


def _cut(partition: BlockPartition, j: int) -> int:
    partition.check_block(j)
    return partition.offsets[j]


def masked_quadratic_form(
    Q: np.ndarray, kind: str, j: int, u: np.ndarray, partition: BlockPartition
) -> float:
    """Evaluate u^T M u where M is ``Q`` masked at block ``j``.

    Computed from the surviving sub-block directly, without materializing
    the masked matrix.
    """
    if kind not in MASK_KINDS:
        raise ValueError(f"mask kind must be one of {MASK_KINDS}, got {kind!r}")
    Q = symmetrize(Q)
    u = np.asarray(u, dtype=float)
    if Q.shape[0] != partition.dim or u.shape != (partition.dim,):
        raise ValueError("matrix/vector size does not match the partition")
    cut = _cut(partition, j)
    if kind == MASK_TRAILING:
        w = u[cut:]
        return float(w @ Q[cut:, cut:] @ w)
    w = u[:cut]
    if w.size == 0:
        return 0.0
    return float(w @ Q[:cut, :cut] @ w)


def materialize_mask(
    Q: np.ndarray, kind: str, j: int, partition: BlockPartition
) -> np.ndarray:
    """Dense masked matrix; the test oracle for :func:`masked_quadratic_form`."""
    if kind not in MASK_KINDS:
        raise ValueError(f"mask kind must be one of {MASK_KINDS}, got {kind!r}")
    Q = symmetrize(Q)
    if Q.shape[0] != partition.dim:
        raise ValueError("matrix size does not match the partition")
    cut = _cut(partition, j)
    out = np.zeros_like(Q)
    if kind == MASK_TRAILING:
        out[cut:, cut:] = Q[cut:, cut:]
    else:
        out[:cut, :cut] = Q[:cut, :cut]
    return out
