"""Block-separable regularizers with closed-form diagonal-metric prox maps.

Each regularizer solves, per block,

    argmin_z  <linear, z> + r_j(z) + (1/(2*eta)) * sum_i lam_i (z_i - center_i)^2

exactly. ``lam`` is the diagonal of the block metric. Values are
extended-real: evaluating outside the domain returns +inf instead of
raising.

The prox map is built per block: ``prox_step(eta, lam)`` binds it to one
block's step size and metric block and computes once what does not depend
on the point (L1's threshold; at eta = 1 the product eta * linear, exact, is
skipped). ``prox`` is that step built and called once, so the cycle engine,
which builds one step per block per run, and a single ``prox`` call round
alike, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition


class Regularizer:
    """Interface: whole-vector value and block prox under a diagonal metric.
    ``value`` is the block values added left to right from 0.0, +inf if any
    block is infeasible, computed in one pass. Every
    regularizer here is coordinate-wise, so ``prox`` over the whole vector
    equals the concatenated per-block calls, bit for bit. A subclass
    implements ``prox_step``."""

    def value(self, x: np.ndarray, partition: BlockPartition) -> float:
        raise NotImplementedError

    def prox(self, center: np.ndarray, linear: np.ndarray, eta: float, lam: np.ndarray) -> np.ndarray:
        return self.prox_step(eta, lam)(center, linear)

    def prox_step(self, eta: float, lam: np.ndarray):
        """The prox map bound to ``eta`` and the metric block ``lam``, as
        ``step(center, linear, out=None)``; with ``out`` it writes there."""
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(Regularizer):
    """No regularization; the prox is a plain metric gradient step."""

    def value(self, x, partition):
        return 0.0

    def prox_step(self, eta, lam):
        scaled = eta != 1.0

        def step(center, linear, out=None):
            return np.subtract(center, (eta * linear if scaled else linear) / lam, out=out)

        return step


@dataclass(frozen=True)
class L1(Regularizer):
    """weight * ||x||_1; prox is coordinate-wise soft thresholding."""

    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("l1 weight must be nonnegative")

    def value(self, x, partition):
        # add.reduce along the rows of a run's (count, size) view sums each
        # block as np.sum does its 1-D slice, bit for bit
        a = np.abs(x)
        total = 0.0
        for s, e, c, w in partition.runs:
            for block_sum in np.add.reduce(a[s:e].reshape(c, w), axis=1).tolist():
                v = self.weight * block_sum
                if not math.isfinite(v):
                    return math.inf
                total += v
        return total

    def prox_step(self, eta, lam):
        thr = eta * self.weight / lam
        scaled = eta != 1.0

        def step(center, linear, out=None):
            t = center - (eta * linear if scaled else linear) / lam
            return np.multiply(np.sign(t), np.maximum(np.abs(t) - thr, 0.0), out=out)

        return step


@dataclass(frozen=True)
class Box(Regularizer):
    """Indicator of [lo, hi]^d; prox clips the metric gradient step."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def value(self, x, partition):
        # the vector is in the box exactly when every block is
        if np.any(x < self.lo) or np.any(x > self.hi):
            return float("inf")
        return 0.0

    def prox_step(self, eta, lam):
        lo, hi, scaled = self.lo, self.hi, eta != 1.0

        def step(center, linear, out=None):
            return np.clip(center - (eta * linear if scaled else linear) / lam, lo, hi, out=out)

        return step


def metric_prox(
    reg: Regularizer,
    center: np.ndarray,
    linear: np.ndarray,
    eta: float,
    lam: np.ndarray,
) -> np.ndarray:
    """Validated block prox step (exact minimizer of the block subproblem).

    The public boundary for a single prox step. The cycle engine checks eta,
    the metric and the block shapes once per run and builds each block's
    ``reg.prox_step`` directly."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    center = np.asarray(center, dtype=float)
    linear = np.asarray(linear, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if center.shape != linear.shape or center.shape != lam.shape:
        raise ValueError("center, linear, and metric block must share a shape")
    if not np.all(lam > 0):
        raise ValueError("metric block entries must be strictly positive")
    return reg.prox(center, linear, eta, lam)


def total_value(reg: Regularizer, x: np.ndarray, partition: BlockPartition) -> float:
    """r(x) summed over blocks; +inf if any block is infeasible."""
    return reg.value(x, partition)
