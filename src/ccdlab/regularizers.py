"""Block-separable regularizers with closed-form diagonal-metric prox maps.

Each regularizer solves, per block,

    argmin_z  <linear, z> + r_j(z) + (1/(2*eta)) * sum_i lam_i (z_i - center_i)^2

exactly. ``lam`` is the diagonal of the block metric. Values are
extended-real: evaluating outside the domain returns +inf instead of
raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition


class Regularizer:
    """Interface: block value and block prox under a diagonal metric."""

    def block_value(self, j: int, xj: np.ndarray) -> float:
        raise NotImplementedError

    def prox(
        self, j: int, center: np.ndarray, linear: np.ndarray, eta: float, lam: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(Regularizer):
    """No regularization; the prox is a plain metric gradient step."""

    def block_value(self, j, xj):
        return 0.0

    def prox(self, j, center, linear, eta, lam):
        return center - eta * linear / lam


@dataclass(frozen=True)
class L1(Regularizer):
    """weight * ||x||_1; prox is coordinate-wise soft thresholding."""

    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("l1 weight must be nonnegative")

    def block_value(self, j, xj):
        return self.weight * float(np.sum(np.abs(xj)))

    def prox(self, j, center, linear, eta, lam):
        t = center - eta * linear / lam
        thr = eta * self.weight / lam
        return np.sign(t) * np.maximum(np.abs(t) - thr, 0.0)


@dataclass(frozen=True)
class Box(Regularizer):
    """Indicator of [lo, hi]^d; prox clips the metric gradient step."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def block_value(self, j, xj):
        if np.any(xj < self.lo) or np.any(xj > self.hi):
            return float("inf")
        return 0.0

    def prox(self, j, center, linear, eta, lam):
        return np.clip(center - eta * linear / lam, self.lo, self.hi)


def metric_prox(
    reg: Regularizer,
    j: int,
    center: np.ndarray,
    linear: np.ndarray,
    eta: float,
    lam: np.ndarray,
) -> np.ndarray:
    """Validated block prox step (exact minimizer of the block subproblem).

    The public boundary for a single prox step. The cycle engine checks eta,
    the metric and the block shapes once per run and calls ``reg.prox``
    directly."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    center = np.asarray(center, dtype=float)
    linear = np.asarray(linear, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if center.shape != linear.shape or center.shape != lam.shape:
        raise ValueError("center, linear, and metric block must share a shape")
    if not np.all(lam > 0):
        raise ValueError("metric block entries must be strictly positive")
    return reg.prox(j, center, linear, eta, lam)


def total_value(reg: Regularizer, x: np.ndarray, partition: BlockPartition) -> float:
    """r(x) summed over blocks; +inf if any block is infeasible."""
    total = 0.0
    for j, cols in enumerate(partition.slices):
        v = reg.block_value(j, x[cols])
        if not np.isfinite(v):
            return float("inf")
        total += v
    return total
