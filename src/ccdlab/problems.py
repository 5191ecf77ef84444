"""Synthetic composite objectives: finite sums, streaming variants, generators.

Two finite-sum families cover the assumption landscape: quadratics (exact
smoothness metrics, exact coupling matrices, closed-form minimizers when
strongly convex) and sigmoid classification losses (smooth, nonconvex,
bounded below, with an analytic curvature bound). Streaming counterparts
draw i.i.d. components from the same families.

Gradient evaluation is routed through a single per-family kernel that takes
an explicit coordinate slice, so full-vector and single-block paths execute
identical arithmetic; algorithm equivalences that promise bitwise-equal
trajectories rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .blocks import BlockPartition, DiagonalMetric
from . import sampling

SIGMOID_CURVATURE_BOUND = 1.0 / (6.0 * math.sqrt(3.0))

# relative safety margin on calibrated metric scales; keeps inequalities that
# are tight at the top eigenvector from failing to eigensolver rounding
_SCALE_PAD = 1.0 + 1e-12


class _Objective:
    """What finite-sum and streaming objectives share."""

    partition: BlockPartition

    @property
    def dim(self) -> int:
        return self.partition.dim

    def batch_block_grad_pair(self, batch, j: int, x: np.ndarray, old: np.ndarray):
        """Block j's batch gradients at ``x`` and at ``old``, bitwise equal to
        two ``batch_block_grad`` calls; a family may share one gather of the
        batch rows between the two."""
        return self.batch_block_grad(batch, j, x), self.batch_block_grad(batch, j, old)


class FiniteSumObjective(_Objective):
    """Shared finite-sum plumbing. Each family implements ``_rows_grad``,
    ``_batch_rows_grad``, ``value``, ``component_value``, and the stacks of
    per-component gradients ``component_block_grads`` (one block) and
    ``component_block_grads_full``."""

    n: int

    @property
    def is_finite(self) -> bool:
        return True

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        # assembled block by block so the j-th slice is bit-identical to
        # block_grad(j, x); every equivalence contract leans on this
        return np.concatenate([self._rows_grad(cols, x) for cols in self.partition.slices])

    def block_grad(self, j: int, x: np.ndarray) -> np.ndarray:
        return self._rows_grad(self.partition.slices[j], x)

    def component_block_grad(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        return self.component_block_grads(j, x)[i]

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sampling.draw_minibatch(rng, self.n, size)

    def batch_full_grad(self, batch: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [self._batch_dispatch(batch, cols, x) for cols in self.partition.slices]
        )

    def batch_block_grad(self, batch: np.ndarray, j: int, x: np.ndarray) -> np.ndarray:
        return self._batch_dispatch(batch, self.partition.slices[j], x)

    def _batch_dispatch(self, idx: np.ndarray, cols: slice, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.shape[0] == self.n:
            # full batch without replacement is the exact average
            return self._rows_grad(cols, x)
        return self._batch_rows_grad(idx, cols, x)


@dataclass(frozen=True, eq=False)
class QuadraticFiniteSum(FiniteSumObjective):
    """f_i(x) = x^T A_i x / 2 + b_i^T x + c_i averaged over i."""

    quad: np.ndarray  # (n, d, d), each symmetric
    lin: np.ndarray  # (n, d)
    const: np.ndarray  # (n,)
    partition: BlockPartition
    identical_components: bool = False

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=float)
        lin = np.asarray(self.lin, dtype=float)
        const = np.asarray(self.const, dtype=float)
        d = self.partition.dim
        if quad.ndim != 3 or quad.shape[1:] != (d, d) or lin.shape != (quad.shape[0], d):
            raise ValueError("component arrays do not match the partition dimension")
        if const.shape != (quad.shape[0],):
            raise ValueError("need one constant per component")
        for arr, name in ((quad, "quad"), (lin, "lin"), (const, "const")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.quad.shape[0]

    @cached_property
    def mean_quad(self) -> np.ndarray:
        m = self.quad.mean(axis=0)
        m.flags.writeable = False
        return m

    @cached_property
    def mean_lin(self) -> np.ndarray:
        m = self.lin.mean(axis=0)
        m.flags.writeable = False
        return m

    @cached_property
    def mean_const(self) -> float:
        return float(self.const.mean())

    def value(self, x):
        return float(0.5 * x @ (self.mean_quad @ x) + self.mean_lin @ x + self.mean_const)

    def component_value(self, i, x):
        return float(0.5 * x @ (self.quad[i] @ x) + self.lin[i] @ x + self.const[i])

    def _rows_grad(self, cols, x):
        return self.mean_quad[cols] @ x + self.mean_lin[cols]

    def _batch_rows_grad(self, idx, cols, x):
        # add.reduce then divide by the count is what mean does, without
        # its Python wrapper
        g = self.quad[idx, cols, :] @ x + self.lin[idx, cols]
        return g.sum(axis=0) / idx.shape[0]

    def batch_block_grad_pair(self, batch, j, x, old):
        idx = np.asarray(batch)
        if idx.shape[0] == self.n:
            return super().batch_block_grad_pair(idx, j, x, old)
        cols = self.partition.slices[j]
        # one gather of the batch rows serves both points; each gradient keeps
        # its own matmul, add and sum, so it rounds as _batch_rows_grad does
        quad, lin = self.quad[idx, cols, :], self.lin[idx, cols]
        size = idx.shape[0]
        return (quad @ x + lin).sum(axis=0) / size, (quad @ old + lin).sum(axis=0) / size

    def component_block_grads(self, j, x):
        cols = self.partition.block_slice(j)
        return self.quad[:, cols, :] @ x + self.lin[:, cols]

    def component_block_grads_full(self, x):
        return self.quad @ x + self.lin

    # strongly convex extras ------------------------------------------------
    @cached_property
    def is_strongly_convex(self) -> bool:
        return bool(np.linalg.eigvalsh(self.mean_quad)[0] > 0)

    @cached_property
    def x_star(self) -> np.ndarray:
        if not self.is_strongly_convex:
            raise ValueError("minimizer available only for strongly convex instances")
        xs = np.linalg.solve(self.mean_quad, -self.mean_lin)
        xs.flags.writeable = False
        return xs

    @cached_property
    def f_star(self) -> float:
        return self.value(self.x_star)

    def gap(self, x: np.ndarray) -> float:
        """f(x) - f(x*) evaluated as a quadratic form in x - x*: no cancellation."""
        z = x - self.x_star
        return float(0.5 * z @ (self.mean_quad @ z))


@dataclass(frozen=True, eq=False)
class SigmoidClassification(FiniteSumObjective):
    """f_i(x) = 1/(1 + exp(y_i a_i^T x)): smooth, nonconvex, in (0, 1)."""

    rows: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,), entries +-1
    partition: BlockPartition

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.partition.dim:
            raise ValueError("row matrix does not match the partition dimension")
        if labels.shape != (rows.shape[0],) or not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be +-1, one per row")
        rows.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.rows.shape[0]

    def value(self, x):
        return _sigmoid_value(self.rows, self.labels, x)

    def component_value(self, i, x):
        z = self.labels[i] * float(self.rows[i] @ x)
        return float(_expit()(-z))

    def full_grad(self, x):
        return _sigmoid_grad(self.rows, self.labels, self.partition.slices, x)

    def _rows_grad(self, cols, x):
        return _sigmoid_rows_grad(self.rows, self.labels, cols, x)

    def _batch_rows_grad(self, idx, cols, x):
        return _sigmoid_rows_grad(self.rows[idx], self.labels[idx], cols, x)

    def component_block_grads(self, j, x):
        cols = self.partition.block_slice(j)
        return _sigmoid_component_grads(self.rows, self.labels, cols, x)

    def component_block_grads_full(self, x):
        return _sigmoid_component_grads(self.rows, self.labels, slice(0, self.dim), x)


@cache
def _expit():
    """``scipy.special.expit``, imported at the first sigmoid evaluation so
    that ``import ccdlab`` loads no scipy module."""
    from scipy.special import expit

    return expit


def _sigmoid_value(rows, labels, x):
    z = labels * (rows @ x)
    return float(np.mean(_expit()(-z)))


def _sigmoid_coeffs(rows, labels, x):
    # d/dz expit(-z) = -expit(z) expit(-z); chain rule factor per component
    expit = _expit()
    z = labels * (rows @ x)
    return -expit(z) * expit(-z) * labels


def _sigmoid_rows_grad(rows, labels, cols, x):
    coeff = _sigmoid_coeffs(rows, labels, x)
    return rows[:, cols].T @ coeff / rows.shape[0]


def _sigmoid_grad(rows, labels, slices, x):
    """The blocks of ``slices`` concatenated, each bitwise its
    ``_sigmoid_rows_grad``: the coefficients do not depend on the block, so
    they are computed once."""
    coeff = _sigmoid_coeffs(rows, labels, x)
    return np.concatenate([rows[:, cols].T @ coeff / rows.shape[0] for cols in slices])


def _sigmoid_component_grads(rows, labels, cols, x):
    coeff = _sigmoid_coeffs(rows, labels, x)
    return coeff[:, None] * rows[:, cols]


# --------------------------------------------------------------------------
# streaming variants
# --------------------------------------------------------------------------


# rows of a streaming quadratic batch drawn and summed at a time; a batch of
# any size then holds O(_STREAM_CHUNK * d) memory
_STREAM_CHUNK = 1024


class _LinBatch(NamedTuple):
    lin: np.ndarray  # (d,): the column mean of the batch's linear terms


class _RowBatch(NamedTuple):
    rows: np.ndarray
    labels: np.ndarray


class StreamingObjective(_Objective):
    """Infinite-sum interface: i.i.d. component batches, no exact gradients.
    Each family implements ``draw_batch``, ``batch_value`` and
    ``batch_block_grad``."""

    n = math.inf

    @property
    def is_finite(self) -> bool:
        return False

    def batch_full_grad(self, batch, x) -> np.ndarray:
        return np.concatenate(
            [self.batch_block_grad(batch, j, x) for j in range(self.partition.num_blocks)]
        )


@dataclass(frozen=True, eq=False)
class StreamingQuadratic(StreamingObjective):
    """Shared curvature, Gaussian linear term: population gradient is exact.

    Components are f(x; b) = x^T A x / 2 + b^T x with b ~ N(lin_mean,
    lin_scale^2 I), so the per-component gradient variance is constant in x
    and the variance bound holds globally with an exactly known constant.
    """

    quad: np.ndarray  # (d, d) symmetric
    lin_mean: np.ndarray
    lin_scale: float
    partition: BlockPartition

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=float)
        lin_mean = np.asarray(self.lin_mean, dtype=float)
        d = self.partition.dim
        if quad.shape != (d, d) or lin_mean.shape != (d,):
            raise ValueError("arrays do not match the partition dimension")
        if self.lin_scale < 0:
            raise ValueError("lin_scale must be nonnegative")
        quad.flags.writeable = False
        lin_mean.flags.writeable = False
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin_mean", lin_mean)

    def draw_batch(self, rng, size):
        """The batch as its one equivalent component, the column mean of its
        linear terms: with one shared curvature, the mean of f(x; b_i) is
        x^T A x / 2 + mean(b)^T x.

        The terms are drawn ``_STREAM_CHUNK`` rows at a time, in the order of
        one (size, d) draw. Row 0 of the buffer carries the running column
        sum, so at d >= 2 ``add.reduce`` adds the rows in the order it does
        over the whole array: sum / size is bitwise ``lin.mean(axis=0)``, and
        so is each block at least 2 wide. A lone column (d = 1, or a width-1
        block) was summed pairwise and now differs by a few ulps.
        """
        if size < 1:
            raise ValueError("batch size must be positive")
        buf = np.empty((min(size, _STREAM_CHUNK), self.dim))
        start, left = 0, size
        while left:
            rows = buf[start : start + min(len(buf) - start, left)]
            rng.standard_normal(out=rows)
            # in place, the same bits as lin_mean + lin_scale * z
            rows *= self.lin_scale
            rows += self.lin_mean
            left -= len(rows)
            buf[0] = np.add.reduce(buf[: start + len(rows)], axis=0)
            start = 1
        return _LinBatch(buf[0] / size)

    def batch_value(self, batch, x):
        return float(0.5 * x @ (self.quad @ x) + batch.lin @ x)

    def batch_block_grad(self, batch, j, x):
        cols = self.partition.slices[j]
        return self.quad[cols] @ x + batch.lin[cols]

    # population quantities, exact for this family
    def population_grad(self, x):
        return self.quad @ x + self.lin_mean

    def sigma_sq_exact(self, metric: DiagonalMetric) -> float:
        return float(self.lin_scale**2 * np.sum(metric.inv_entries))


@dataclass(frozen=True, eq=False)
class StreamingClassification(StreamingObjective):
    """Sigmoid loss on freshly drawn Gaussian rows with planted labels."""

    plant: np.ndarray
    margin: float
    partition: BlockPartition

    def __post_init__(self):
        plant = np.asarray(self.plant, dtype=float)
        if plant.shape != (self.partition.dim,):
            raise ValueError("plant vector does not match the partition dimension")
        plant.flags.writeable = False
        object.__setattr__(self, "plant", plant)

    def draw_batch(self, rng, size):
        if size < 1:
            raise ValueError("batch size must be positive")
        rows = rng.standard_normal((size, self.dim))
        rows /= math.sqrt(self.dim)
        noise = rng.standard_normal(size)
        labels = np.where(rows @ self.plant + self.margin * noise >= 0, 1.0, -1.0)
        return _RowBatch(rows, labels)

    def batch_value(self, batch, x):
        return _sigmoid_value(batch.rows, batch.labels, x)

    def batch_full_grad(self, batch, x):
        return _sigmoid_grad(batch.rows, batch.labels, self.partition.slices, x)

    def batch_block_grad(self, batch, j, x):
        return _sigmoid_rows_grad(batch.rows, batch.labels, self.partition.slices[j], x)


# --------------------------------------------------------------------------
# generators (seeded, reproducible)
# --------------------------------------------------------------------------


def _random_symmetric(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    d = eigs.shape[0]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (basis * eigs) @ basis.T
    return 0.5 * (a + a.T)


def generate_quadratic(
    seed: int,
    n: int,
    d: int,
    partition: BlockPartition,
    condition_number: float = 10.0,
    convex: bool = True,
    identical_curvature: bool = False,
) -> QuadraticFiniteSum:
    """Seeded quadratic finite sum.

    convex=True draws component eigenvalues uniformly in [1, condition_number]
    (positive definite); convex=False draws them in [-condition_number,
    condition_number] with mixed signs, so the objective is bounded below
    only on a bounded domain such as a box. identical_curvature shares one
    curvature matrix across components (linear terms still differ), which
    keeps the gradient variance constant in x.
    """
    if condition_number < 1:
        raise ValueError("condition_number must be >= 1")
    if n < 1 or d < 1 or partition.dim != d:
        raise ValueError("invalid sizes")
    rng = np.random.default_rng(seed)

    def eig_draw():
        if convex:
            return rng.uniform(1.0, condition_number, size=d)
        eigs = rng.uniform(-condition_number, condition_number, size=d)
        if np.all(eigs >= 0) or np.all(eigs <= 0):
            eigs[0] = -eigs[0] if eigs[0] != 0 else -1.0
        return eigs

    if identical_curvature:
        shared = _random_symmetric(rng, eig_draw())
        quad = np.broadcast_to(shared, (n, d, d)).copy()
    else:
        quad = np.stack([_random_symmetric(rng, eig_draw()) for _ in range(n)])
    lin = rng.standard_normal((n, d))
    const = rng.standard_normal(n)
    return QuadraticFiniteSum(quad, lin, const, partition, identical_components=identical_curvature)


def generate_classification(
    seed: int, n: int, d: int, partition: BlockPartition, margin: float = 0.5
) -> SigmoidClassification:
    """Gaussian rows (scaled to unit-ish norm), labels from a planted
    hyperplane with Gaussian label noise of amplitude ``margin``."""
    if n < 1 or partition.dim != d:
        raise ValueError("invalid sizes")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)) / math.sqrt(d)
    plant = rng.standard_normal(d)
    noise = rng.standard_normal(n)
    labels = np.where(rows @ plant + margin * noise >= 0, 1.0, -1.0)
    return SigmoidClassification(rows, labels, partition)


def generate_streaming_quadratic(
    seed: int,
    d: int,
    partition: BlockPartition,
    condition_number: float = 10.0,
    lin_scale: float = 1.0,
) -> StreamingQuadratic:
    rng = np.random.default_rng(seed)
    quad = _random_symmetric(rng, rng.uniform(1.0, condition_number, size=d))
    return StreamingQuadratic(quad, rng.standard_normal(d), lin_scale, partition)


def generate_streaming_classification(
    seed: int, d: int, partition: BlockPartition, margin: float = 0.5
) -> StreamingClassification:
    rng = np.random.default_rng(seed)
    return StreamingClassification(rng.standard_normal(d), margin, partition)


# --------------------------------------------------------------------------
# smoothness calibration and exact coupling matrices
# --------------------------------------------------------------------------


def exact_metric_scales(prob) -> np.ndarray:
    """Per-block metric scales that satisfy the block smoothness conditions
    with equality at the top eigenvector, for quadratic families.

    The scale for block j is the square root of the largest eigenvalue of the
    averaged squared diagonal sub-block, which dominates both the
    deterministic and the expected block Lipschitz requirements.
    """
    scales = np.empty(prob.partition.num_blocks)
    for j in range(prob.partition.num_blocks):
        cols = prob.partition.block_slice(j)
        if isinstance(prob, StreamingQuadratic):
            sub = prob.quad[cols, cols]
            msq = sub @ sub
        elif isinstance(prob, QuadraticFiniteSum):
            if prob.identical_components:
                sub = prob.quad[0, cols, cols]
                msq = sub @ sub
            else:
                subs = prob.quad[:, cols, cols]
                msq = np.einsum("nab,nbc->ac", subs, subs) / prob.n
        else:
            raise TypeError(f"exact metric scales need a quadratic family, got {type(prob)!r}")
        top = float(np.linalg.eigvalsh(msq)[-1])
        scales[j] = math.sqrt(max(top, 0.0)) * _SCALE_PAD
        if scales[j] <= 0:
            scales[j] = 1e-12
    return scales


def exact_quadratic_metric(prob) -> DiagonalMetric:
    return DiagonalMetric.from_block_scales(prob.partition, exact_metric_scales(prob))


def sigmoid_metric_scales(prob: SigmoidClassification) -> np.ndarray:
    """Analytic per-block scales for the sigmoid family: the global curvature
    bound of the scalar loss times the worst squared block row norm."""
    scales = np.empty(prob.partition.num_blocks)
    for j in range(prob.partition.num_blocks):
        cols = prob.partition.block_slice(j)
        worst = float(np.max(np.sum(prob.rows[:, cols] ** 2, axis=1)))
        scales[j] = max(SIGMOID_CURVATURE_BOUND * worst, 1e-12)
    return scales


def sigmoid_metric(prob: SigmoidClassification) -> DiagonalMetric:
    return DiagonalMetric.from_block_scales(prob.partition, sigmoid_metric_scales(prob))


def exact_coupling_matrix(prob, j: int, metric: DiagonalMetric) -> np.ndarray:
    """Coupling matrix for block j: the mean of A_i[block rows]^T Lam_j^-1
    A_i[block rows], which turns the expected block-gradient deviation into a
    quadratic form with equality for quadratic components.

    With distinct components the einsum runs on a contiguous copy of the
    block rows, the (n, d_j, d) slab: on the strided view it is about 2.5x
    slower, and the copy leaves every bit of the result as it was.
    ``exact_metric_scales`` keeps its strided (n, d_j, d_j) einsum, because
    there a contiguous copy does change the rounding.
    """
    cols = prob.partition.block_slice(j)
    inv = 1.0 / metric.block(j)
    if isinstance(prob, StreamingQuadratic):
        rows_mat = prob.quad[cols]
        out = rows_mat.T @ (inv[:, None] * rows_mat)
    elif isinstance(prob, QuadraticFiniteSum):
        if prob.identical_components:
            rows_mat = prob.quad[0, cols]
            out = rows_mat.T @ (inv[:, None] * rows_mat)
        else:
            slab = np.ascontiguousarray(prob.quad[:, cols, :])
            out = np.einsum("nrd,nre->de", slab * inv[None, :, None], slab) / prob.n
    else:
        raise TypeError(f"exact coupling matrices need a quadratic family, got {type(prob)!r}")
    return 0.5 * (out + out.T)


def exact_coupling_matrices(prob, metric: DiagonalMetric) -> list[np.ndarray]:
    return [exact_coupling_matrix(prob, j, metric) for j in range(prob.partition.num_blocks)]


def pl_constant(prob: QuadraticFiniteSum, metric: DiagonalMetric) -> float:
    """Gradient-dominance constant of an unregularized strongly convex
    quadratic under the given metric: the smallest eigenvalue of the
    metric-normalized mean curvature."""
    if not prob.is_strongly_convex:
        raise ValueError("gradient dominance constant needs a strongly convex instance")
    inv_rt = 1.0 / metric.sqrt_entries
    scaled = inv_rt[:, None] * prob.mean_quad * inv_rt[None, :]
    return float(np.linalg.eigvalsh(scaled)[0])


def estimate_sigma_sq(prob: FiniteSumObjective, metric: DiagonalMetric, x) -> float:
    """The gradient variance at one point of a finite sum: the mean squared
    inverse-metric deviation of the component gradients from their mean,
    with every component enumerated."""
    grads = prob.component_block_grads_full(np.asarray(x, dtype=float))
    dev = grads - grads.mean(axis=0)
    return float(np.mean(np.sum(dev * dev * metric.inv_entries, axis=1)))
