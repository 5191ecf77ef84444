"""Synthetic composite objectives: finite sums, streaming variants, generators.

Two finite-sum families cover the assumption landscape: quadratics (exact
smoothness metrics, exact coupling matrices, closed-form minimizers when
strongly convex) and sigmoid classification losses (smooth, nonconvex,
bounded below, with an analytic curvature bound that gives their coupling
matrices and a bound on sigma^2 over every x). Streaming counterparts draw
i.i.d. components from the same families.

Each family states the premises of the analysis as its own methods:
``metric()`` (the metric a run takes without ``lambda.values``, named by
``metric_mode``), ``coupling_matrix(j, metric)`` and ``sigma_sq(metric, x0)``,
and its reference values: ``closed_form_minimum(reg)`` (F*, or None),
``solve_reaches_minimum`` (whether a high-precision solve in ``metric()``
reaches F*) and ``pl_constant(metric)`` (the gradient-dominance mu, or None).

Gradients are stated once per *group*, a slice of consecutive blocks: the
cycle engine's cyclic order steps one-block groups, its simultaneous order
one group of every block. A finite family's ``group_kernel(blocks)`` is the
group's exact gradient, bound once to its rows, as ``kernel(x, out=None)``;
every family's ``group_batch_grads(blocks)`` is the group's batch gradient
at each of one or more points (a correction asks for two), from one gather
of the batch rows. The engine builds both once per group per run;
``block_grad`` and ``batch_block_grad`` build a one-block group's and call
it once. The generic bodies loop over the blocks, so a one-block group is
its block's function itself, and each block's slice of a wider group keeps
that function's bits. The two sigmoid families share one override, which
takes one coefficient pass per batch and point and multiplies it into each
block's rows; each slice is still bitwise the one-block gradient. Algorithm
equivalences that promise bitwise-equal trajectories rely on this. Each
finite family states F and the full gradient once, at a stack of points, in
``values_and_grads``, which the trace rows of a chunk of cycles read;
``value`` and ``full_grad`` are its one-point case. The quadratic family
stacks the rows into a few matmuls that make the same per-row BLAS calls;
the sigmoid family calls its all-blocks kernel row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .blocks import BlockPartition, DiagonalMetric
from .regularizers import Regularizer, Zero
from . import sampling

SIGMOID_CURVATURE_BOUND = 1.0 / (6.0 * math.sqrt(3.0))

# relative safety margin on calibrated metric scales; keeps inequalities that
# are tight at the top eigenvector from failing to eigensolver rounding
_SCALE_PAD = 1.0 + 1e-12


class _Objective:
    """What finite-sum and streaming objectives share."""

    partition: BlockPartition
    metric_mode: str | None  # what metric() computes; None when it computes none
    solve_reaches_minimum = False  # whether a high-precision solve reaches F*

    @property
    def dim(self) -> int:
        return self.partition.dim

    def closed_form_minimum(self, reg: Regularizer) -> float | None:
        """F* = min f + reg in closed form, or None."""
        return None

    def pl_constant(self, metric: DiagonalMetric) -> float | None:
        """The gradient-dominance constant mu in ``metric``, or None."""
        return None

    def coupling_matrix(self, j: int, metric: DiagonalMetric) -> np.ndarray:
        """Coupling matrix Q_j for block j: the mean block-gradient deviation
        E ||grad_j f_i(x) - grad_j f_i(y)||^2_{Lam_j^-1} is at most
        (x - y)^T Q_j (x - y)."""
        out = self._coupling(self.partition.block_slice(j), 1.0 / metric.block(j))
        return 0.5 * (out + out.T)

    def batch_block_grad(self, batch, j: int, x: np.ndarray) -> np.ndarray:
        """Block j's batch gradient at x, from its one-block group."""
        return self.group_batch_grads(slice(j, j + 1))(batch, (x,))[0]

    def group_batch_grads(self, blocks: slice):
        """The batch gradient over the blocks ``blocks`` as ``grads(batch,
        points)``: a list of one gradient per point. The generic body joins
        each block's ``_rows_batch_grads``."""
        per_block = [self._rows_batch_grads(cols) for cols in self.partition.slices[blocks]]
        if len(per_block) == 1:
            return per_block[0]
        return lambda batch, points: [np.concatenate(parts) for parts in zip(
            *(grads(batch, points) for grads in per_block))]


class FiniteSumObjective(_Objective):
    """Shared finite-sum plumbing. Each family implements ``values_and_grads``
    (F and the full gradient at each row of a (c, d) stack of points: a list
    of c values and a (c, d) array, each row bitwise the same for any c),
    its group gradients, ``component_value``, and the stacks of
    per-component gradients ``component_block_grads`` (one block) and
    ``component_block_grads_full``. The j-th slice of ``full_grad(x)`` is
    bit-identical to ``block_grad(j, x)``; every equivalence contract leans
    on this. A full batch is routed to the exact gradient, so its batch
    gradient is ``full_grad``, bit for bit."""

    n: int

    @property
    def is_finite(self) -> bool:
        return True

    def block_grad(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.group_kernel(slice(j, j + 1))(x)

    def value(self, x: np.ndarray) -> float:
        """F(x), the one-point case of the family's ``values_and_grads``."""
        return self.values_and_grads(x[None])[0][0]

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        """The full gradient at x, the one-point case of ``values_and_grads``."""
        return self.values_and_grads(x[None])[1][0]

    def group_kernel(self, blocks: slice):
        """The exact gradient over the blocks ``blocks``, bound to their rows,
        as ``kernel(x, out=None)``; with ``out`` it writes there. The generic
        body joins each block's ``_rows_kernel``."""
        kernels = [self._rows_kernel(cols) for cols in self.partition.slices[blocks]]
        if len(kernels) == 1:
            return kernels[0]
        return lambda x, out=None: np.concatenate([kernel(x) for kernel in kernels], out=out)

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sampling.draw_minibatch(rng, self.n, size)

    def draw_batches(self, rng: np.random.Generator, sizes: list[int]) -> list[np.ndarray]:
        """Consecutive ``draw_batch`` calls, one per size, drawn together."""
        return sampling.draw_minibatches(rng, self.n, sizes)


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

    def component_value(self, i, x):
        return float(0.5 * x @ (self.quad[i] @ x) + self.lin[i] @ x + self.const[i])

    def values_and_grads(self, points):
        # each stacked matmul makes the same call for every row: the (d, d)
        # gemv and the two dots of the value, and one (size, d) gemv per
        # block of the gradient, the one-row product _rows_kernel makes
        cols = points[:, :, None]
        quad_x = np.matmul(self.mean_quad, cols)
        values = np.matmul(0.5 * points[:, None, :], quad_x)
        values += np.matmul(self.mean_lin[None, None, :], cols)
        values += self.mean_const
        c = len(points)
        parts = [np.matmul(q, cols[:, None]).reshape(c, -1) for q in self._mean_quad_runs]
        grads = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        grads += self.mean_lin
        return values.reshape(c).tolist(), grads

    @cached_property
    def _mean_quad_runs(self) -> tuple[np.ndarray, ...]:
        # per run of equal-size blocks, the (count, size, d) view of its rows
        d = self.dim
        return tuple(self.mean_quad[s:e].reshape(c, w, d) for s, e, c, w in self.partition.runs)

    def _rows_kernel(self, cols):
        quad, lin = self.mean_quad[cols], self.mean_lin[cols]

        def kernel(x, out=None):
            out = np.matmul(quad, x, out=out)
            out += lin
            return out

        return kernel

    def _rows_batch_grads(self, cols):
        kernel, quad, lin, n = self._rows_kernel(cols), self.quad, self.lin, self.n

        def grads(batch, points):
            # a full batch without replacement is the exact average
            idx = np.asarray(batch)
            size = idx.shape[0]
            if size == n:
                return [kernel(x) for x in points]
            # one gather of the batch rows serves every point; add.reduce
            # then divide by the count is what mean does, without its wrapper
            q, l = quad[idx, cols, :], lin[idx, cols]
            return [(q @ x + l).sum(axis=0) / size for x in points]

        return grads

    def component_block_grads(self, j, x):
        cols = self.partition.block_slice(j)
        return self.quad[:, cols, :] @ x + self.lin[:, cols]

    def component_block_grads_full(self, x):
        return self.quad @ x + self.lin

    metric_mode = "exact_quadratic"

    def metric(self) -> DiagonalMetric:
        return exact_quadratic_metric(self)

    def _curvature_sq(self, cols):
        # the strided (n, d_j, d_j) einsum: a contiguous copy changes the rounding
        if self.identical_components:
            sub = self.quad[0, cols, cols]
            return sub @ sub
        subs = self.quad[:, cols, cols]
        return np.einsum("nab,nbc->ac", subs, subs) / self.n

    def _coupling(self, cols, inv):
        """The mean of A_i[cols]^T Lam_j^-1 A_i[cols], with equality. With
        distinct components the einsum runs on a contiguous copy of the block
        rows, the (n, d_j, d) slab: on the strided view it is about 2.5x
        slower, and the copy leaves every bit of the result as it was."""
        if self.identical_components:
            rows_mat = self.quad[0, cols]
            return rows_mat.T @ (inv[:, None] * rows_mat)
        slab = np.ascontiguousarray(self.quad[:, cols, :])
        return np.einsum("nrd,nre->de", slab * inv[None, :, None], slab) / self.n

    def sigma_sq(self, metric: DiagonalMetric, x0) -> tuple[float, bool]:
        """sigma^2 at the start point, which holds at every x when the
        components share one curvature."""
        return estimate_sigma_sq(self, metric, x0), self.identical_components

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

    def closed_form_minimum(self, reg: Regularizer) -> float | None:
        return self.f_star if self.is_strongly_convex and isinstance(reg, Zero) else None

    @property
    def solve_reaches_minimum(self) -> bool:  # type: ignore[override]
        return self.is_strongly_convex

    def pl_constant(self, metric: DiagonalMetric) -> float:
        """The smallest eigenvalue of the metric-normalized mean curvature."""
        if not self.is_strongly_convex:
            raise ValueError("gradient dominance constant needs a strongly convex instance")
        inv_rt = 1.0 / metric.sqrt_entries
        scaled = inv_rt[:, None] * self.mean_quad * inv_rt[None, :]
        return float(np.linalg.eigvalsh(scaled)[0])

    def gap(self, x: np.ndarray) -> float:
        """f(x) - f(x*) evaluated as a quadratic form in x - x*: no cancellation."""
        z = x - self.x_star
        return float(0.5 * z @ (self.mean_quad @ z))


class _SigmoidLoss:
    """What the two sigmoid families share: a group's batch gradient gathers
    the batch rows once and takes one coefficient pass per point."""

    def group_batch_grads(self, blocks: slice):
        grad = _sigmoid_group(self.partition.slices[blocks])

        def grads(batch, points):
            rows, labels = self._batch_rows(batch)
            return [grad(rows, labels, x) for x in points]

        return grads


@dataclass(frozen=True, eq=False)
class SigmoidClassification(_SigmoidLoss, FiniteSumObjective):
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

    def component_value(self, i, x):
        z = self.labels[i] * float(self.rows[i] @ x)
        return float(_expit()(-z))

    def values_and_grads(self, points):
        kernel = self.group_kernel(slice(None))
        values = [_sigmoid_value(self.rows, self.labels, x) for x in points]
        return values, np.array([kernel(x) for x in points])

    def group_kernel(self, blocks: slice):
        grad, rows, labels = _sigmoid_group(self.partition.slices[blocks]), self.rows, self.labels
        return lambda x, out=None: grad(rows, labels, x, out)

    def _batch_rows(self, batch):
        # a full batch without replacement is the exact average
        idx = np.asarray(batch)
        if idx.shape[0] == self.n:
            return self.rows, self.labels
        return self.rows[idx], self.labels[idx]

    def component_block_grads(self, j, x):
        cols = self.partition.block_slice(j)
        return _sigmoid_component_grads(self.rows, self.labels, cols, x)

    def component_block_grads_full(self, x):
        return _sigmoid_component_grads(self.rows, self.labels, slice(0, self.dim), x)

    metric_mode = "sigmoid_bound"

    def metric(self) -> DiagonalMetric:
        """Analytic per-block scales: the global curvature bound of the
        scalar loss times the worst squared block row norm."""
        worst = [np.max(np.sum(self.rows[:, cols] ** 2, axis=1)) for cols in self.partition.slices]
        scales = [max(SIGMOID_CURVATURE_BOUND * float(w), 1e-12) for w in worst]
        return DiagonalMetric.from_block_scales(self.partition, scales)

    def _coupling(self, cols, inv):
        """grad_j f_i(x) - grad_j f_i(y) is a_i[j] times a coefficient
        difference at most C |a_i^T (x - y)|, with C =
        ``SIGMOID_CURVATURE_BOUND``, so Q_j = (C^2 / n) sum_i
        ||a_i[j]||^2_{Lam_j^-1} a_i a_i^T."""
        weights = self.rows[:, cols] ** 2 @ inv * (SIGMOID_CURVATURE_BOUND**2 / self.n)
        return self.rows.T @ (weights[:, None] * self.rows)

    def sigma_sq(self, metric: DiagonalMetric, x0) -> tuple[float, bool]:
        """A bound on sigma^2 over every x: component i's gradient is a_i
        times a coefficient at most 1/4 in size, and a variance is at most
        the mean square, mean_i ||a_i||^2_{Lam^-1} / 16."""
        return float(np.mean(self.rows**2 @ metric.inv_entries) / 16.0), True


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


def _sigmoid_group(slices):
    """The gradient over the blocks ``slices`` from given rows, as
    ``grad(rows, labels, x, out=None)``: the coefficients do not depend on the
    block, so one pass computes them, and each block's product with them
    rounds as it does alone."""

    def grad(rows, labels, x, out=None):
        coeff = _sigmoid_coeffs(rows, labels, x)
        prods = [rows[:, cols].T @ coeff for cols in slices]
        total = prods[0] if len(prods) == 1 else np.concatenate(prods)
        return np.divide(total, rows.shape[0], out=out)

    return grad


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
    Each family implements ``draw_batch``, ``batch_value`` and its group
    batch gradients."""

    n = math.inf

    @property
    def is_finite(self) -> bool:
        return False

    def draw_batches(self, rng, sizes):
        """Consecutive ``draw_batch`` calls, one per size, each made only
        when its batch is asked for: a run never holds more than one."""
        return (self.draw_batch(rng, size) for size in sizes)


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

    def _rows_batch_grads(self, cols):
        quad = self.quad[cols]
        return lambda batch, points: [quad @ x + batch.lin[cols] for x in points]

    # population quantities, exact for this family
    def population_grad(self, x):
        return self.quad @ x + self.lin_mean

    metric_mode = "exact_quadratic"

    def metric(self) -> DiagonalMetric:
        return exact_quadratic_metric(self)

    def _curvature_sq(self, cols):
        sub = self.quad[cols, cols]
        return sub @ sub

    def _coupling(self, cols, inv):
        rows_mat = self.quad[cols]
        return rows_mat.T @ (inv[:, None] * rows_mat)

    def sigma_sq(self, metric: DiagonalMetric, x0) -> tuple[float, bool]:
        """sigma^2, exact at every x: the component gradients differ only in b."""
        return float(self.lin_scale**2 * np.sum(metric.inv_entries)), True


@dataclass(frozen=True, eq=False)
class StreamingClassification(_SigmoidLoss, StreamingObjective):
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

    def _batch_rows(self, batch):
        return batch

    metric_mode = None

    def metric(self) -> DiagonalMetric:
        raise ValueError("a streaming sigmoid problem has no computed metric; set lambda.values")

    def _coupling(self, cols, inv):
        """The finite-sum Q_j in expectation over rows a ~ N(0, I/d):
        (C^2 / d^2) (tr(Lam_j^-1) I + 2 Lam_j^-1 on block j's diagonal)."""
        diag = np.full(self.dim, np.sum(inv))
        diag[cols] += 2.0 * inv
        return np.diag(diag * (SIGMOID_CURVATURE_BOUND**2 / self.dim**2))

    def sigma_sq(self, metric: DiagonalMetric, x0) -> tuple[float, bool]:
        """The finite-sum bound in expectation over rows a ~ N(0, I/d):
        E ||a||^2_{Lam^-1} / 16 = tr(Lam^-1) / (16 d), at every x."""
        return float(np.sum(metric.inv_entries) / (16.0 * self.dim)), True


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
# smoothness calibration and coupling matrices
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
        msq = prob._curvature_sq(prob.partition.block_slice(j))
        top = float(np.linalg.eigvalsh(msq)[-1])
        scales[j] = math.sqrt(max(top, 0.0)) * _SCALE_PAD or 1e-12
    return scales


# a quadratic's metric() reaches the first and the harness the second as a
# module global, so that a profiler may rebind them here
def exact_quadratic_metric(prob) -> DiagonalMetric:
    return DiagonalMetric.from_block_scales(prob.partition, exact_metric_scales(prob))


def exact_coupling_matrices(prob, metric: DiagonalMetric) -> list[np.ndarray]:
    return [prob.coupling_matrix(j, metric) for j in range(prob.partition.num_blocks)]


def estimate_sigma_sq(prob: FiniteSumObjective, metric: DiagonalMetric, x) -> float:
    """The gradient variance at one point of a finite sum: the mean squared
    inverse-metric deviation of the component gradients from their mean,
    with every component enumerated."""
    grads = prob.component_block_grads_full(np.asarray(x, dtype=float))
    dev = grads - grads.mean(axis=0)
    return float(np.mean(np.sum(dev * dev * metric.inv_entries, axis=1)))
