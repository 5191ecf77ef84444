"""Block partitions and diagonal metrics.

Coordinates 0..dim-1 are split into contiguous, ordered blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """``slices[j]`` covers the coordinates of block j; built once, so
        hot loops index it instead of calling :meth:`block_slice`."""
        off = self.offsets
        return tuple(slice(off[j], off[j + 1]) for j in range(self.num_blocks))

    def block_slice(self, j: int) -> slice:
        return self.slices[self.check_block(j)]

    @cached_property
    def runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """One ``(start, stop, count, size)`` per maximal run of consecutive
        equal-size blocks: coordinates ``start:stop`` hold ``count`` blocks of
        ``size`` each, so whole-vector diagnostics reshape a run to
        ``(count, size)`` and make one stacked call per run. An even
        partition has at most 2 runs."""
        out = []
        for start, size in zip(self.offsets, self.block_sizes):
            if out and out[-1][3] == size:
                s, _, c, _ = out[-1]
                out[-1] = (s, start + size, c + 1, size)
            else:
                out.append((start, start + size, 1, size))
        return tuple(out)


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

