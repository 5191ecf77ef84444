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
one group of every block. Both take a *seed stack*, one row per seed of the
runs the engine steps together. A finite family's ``group_kernel(blocks)``
is the group's exact gradient, bound once to its rows, as
``kernel(cols, out=None)``: at each point of ``cols``, an (S, d, 1) stack
of columns, the (S, size, 1) stack of gradients. The engine calls it on
views of its stack that it takes once, which matmul reads and writes as
they are: a stack of one steps as fast as a single vector. Every family's ``group_batch_grads(blocks)`` is the group's
batch gradient as ``grads(batches, points)``: ``batches`` holds one batch
per seed and ``points`` is a (P, S, d) array of P points per seed (a
correction asks for two); it returns the (P, S, size) gradients, row s
from seed s's batch. The engine builds both once per group per run; ``block_grad`` and
``batch_block_grad`` build a one-block group's and call it on a stack of
one. Each row is bitwise the one-seed, one-block gradient: the quadratic
families make one stacked matmul per run of equal-size blocks, in which
each block's rows are the same (d_j, d) gemv per seed, batch row and point
that a one-block call makes, and the quadratic finite sum gathers the batch
rows of all its seeds at once; the sigmoid families loop over the
seeds and take one coefficient pass per batch and point, multiplied into
each block's rows. Algorithm equivalences that promise bitwise-equal
trajectories rely on this. Each finite family states F and the full
gradient once, at a stack of points, in ``values_and_grads``, which the
trace rows of a chunk of cycles read; ``value`` and ``full_grad`` are its
one-point case. The quadratic family stacks the rows into a few matmuls
that make the same per-row BLAS calls; the sigmoid family calls its
all-blocks kernel on the whole stack.
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
        return self.group_batch_grads(slice(j, j + 1))([batch], x[None, None])[0, 0]

    def _group_cols(self, blocks: slice) -> slice:
        """The coordinates of the blocks ``blocks``."""
        start, stop, _ = blocks.indices(self.partition.num_blocks)
        return slice(self.partition.offsets[start], self.partition.offsets[stop])

    def _group_runs(self, blocks: slice) -> list[tuple[int, int, int, int]]:
        """``(start, stop, count, size)`` per run of consecutive equal-size
        blocks among ``blocks``: the partition's runs, cut to the group."""
        cols = self._group_cols(blocks)
        cut = ((max(s, cols.start), min(e, cols.stop), w) for s, e, _, w in self.partition.runs)
        return [(s, e, (e - s) // w, w) for s, e, w in cut if s < e]


def _run_products(mats, points) -> np.ndarray:
    """Per row of the (S, d) ``points``, the product with the rows of each
    (count, size, d) view in ``mats`` (one per run of equal-size blocks),
    joined: one stacked matmul per run, each block one (size, d) gemv per
    point, as a one-block ``mat @ x`` makes it."""
    col = points[:, None, :, None]
    if len(mats) == 1:
        return np.matmul(mats[0], col).reshape(len(points), -1)
    return np.concatenate([np.matmul(mat, col).reshape(len(points), -1) for mat in mats], axis=1)


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
        return self.group_kernel(slice(j, j + 1))(x[None, :, None])[0, :, 0]

    def value(self, x: np.ndarray) -> float:
        """F(x), the one-point case of the family's ``values_and_grads``."""
        return self.values_and_grads(x[None])[0][0]

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        """The full gradient at x, the one-point case of ``values_and_grads``."""
        return self.values_and_grads(x[None])[1][0]

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
        # block of the gradient, the product a one-block kernel makes
        cols = points[:, :, None]
        quad_x = np.matmul(self.mean_quad, cols)
        values = np.matmul(0.5 * points[:, None, :], quad_x)
        values += np.matmul(self.mean_lin[None, None, :], cols)
        values += self.mean_const
        grads = _run_products(self._mean_quad_runs, points)
        grads += self.mean_lin
        return values.reshape(len(points)).tolist(), grads

    @cached_property
    def _mean_quad_runs(self) -> tuple[np.ndarray, ...]:
        # per run of equal-size blocks, the (count, size, d) view of its rows
        d = self.dim
        return tuple(self.mean_quad[s:e].reshape(c, w, d) for s, e, c, w in self.partition.runs)

    def group_kernel(self, blocks: slice):
        """The exact gradient over the blocks ``blocks``, bound to their rows,
        as ``kernel(cols, out=None)``; with ``out`` it writes there."""
        runs = self._group_runs(blocks)
        d = self.dim
        # a (1, size, 1) column: a stack of one adds without broadcasting
        lin = self.mean_lin[None, runs[0][0] : runs[-1][1], None]
        if len(runs) > 1 or runs[0][2] > 1:
            mats = [self.mean_quad[s:e].reshape(c, w, d) for s, e, c, w in runs]
            return lambda cols, out=None: np.add(_run_products(mats, cols[:, :, 0])[:, :, None],
                                                 lin, out=out)
        # one block, as the cyclic order steps it: its (size, d) gemv per
        # column, written in place, then the linear term added
        rows = self.mean_quad[runs[0][0] : runs[0][1]]

        def kernel(cols, out=None):
            out = np.matmul(rows, cols, out=out)
            return np.add(out, lin, out=out)

        return kernel

    def group_batch_grads(self, blocks: slice):
        """The batch gradient over the blocks ``blocks`` as ``grads(batches,
        points)``, each seed's batch an index array of one size."""
        kernel, runs, cols = self.group_kernel(blocks), self._group_runs(blocks), self._group_cols(blocks)
        quad, lin, n, d = self.quad, self.lin, self.n, self.dim
        block_cols = [slice(a - cols.start, a - cols.start + w)
                      for s, e, _, w in runs for a in range(s, e, w)]

        def grads(batches, points):
            idx = np.asarray(batches)
            count, size = idx.shape
            # a full batch without replacement is the exact average
            if size == n:
                return kernel(points.reshape(-1, d, 1)).reshape(len(points), count, -1)
            # one gather of every seed's batch rows per run serves every point;
            # each block's product is one (d_j, d) gemv per point, seed and
            # batch row, and its rows are added in batch order, then divided
            # by the count, as a one-seed, one-block mean adds them
            col, shape = points[:, :, None, None, :, None], (len(points), count, size, -1)
            parts = [np.matmul(quad[idx, s:e, :].reshape(count, size, c, w, d), col).reshape(shape)
                     for s, e, c, w in runs]
            prods = np.concatenate(parts, axis=3) if len(parts) > 1 else parts[0]
            prods += lin[idx, cols]
            sums = [np.add.reduce(prods[..., block], axis=2) for block in block_cols]
            total = np.concatenate(sums, axis=2) if len(sums) > 1 else sums[0]
            return np.divide(total, size, out=total)

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
    """What the two sigmoid families share: a group's batch gradient takes,
    per seed, its batch rows once and one coefficient pass per point."""

    def group_batch_grads(self, blocks: slice):
        grad = _sigmoid_group(self.partition.slices[blocks])
        span = self._group_cols(blocks)
        size = span.stop - span.start

        def grads(batches, points):
            out = np.empty((len(points), len(batches), size))
            for s, batch in enumerate(batches):
                rows, labels = self._batch_rows(batch)
                for p, o in zip(points, out):
                    grad(rows, labels, p[s], o[s])
            return out

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
        values = [_sigmoid_value(self.rows, self.labels, x) for x in points]
        return values, self.group_kernel(slice(None))(points[:, :, None])[:, :, 0]

    def group_kernel(self, blocks: slice):
        grad, rows, labels = _sigmoid_group(self.partition.slices[blocks]), self.rows, self.labels
        span = self._group_cols(blocks)
        size = span.stop - span.start

        def kernel(cols, out=None):
            if out is None:
                out = np.empty((len(cols), size, 1))
            for x, o in zip(cols, out):
                grad(rows, labels, x[:, 0], o[:, 0])
            return out

        return kernel

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

    def group_batch_grads(self, blocks: slice):
        """The batch gradient over the blocks ``blocks`` as ``grads(batches,
        points)``: the shared curvature's rows times each point, plus each
        seed's batch mean of the linear terms."""
        runs = self._group_runs(blocks)
        mats = [self.quad[s:e].reshape(c, w, self.dim) for s, e, c, w in runs]
        cols = self._group_cols(blocks)

        def grads(batches, points):
            lins = np.array([batch.lin[cols] for batch in batches])
            prods = _run_products(mats, points.reshape(-1, self.dim))
            return np.add(prods.reshape(len(points), len(batches), -1), lins)

        return grads

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


def _random_symmetric(rng: np.random.Generator, eigs: np.ndarray, out=None) -> np.ndarray:
    """A random symmetric matrix with eigenvalues ``eigs``; with ``out`` it
    is written there."""
    d = eigs.shape[0]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (basis * eigs) @ basis.T
    out = np.add(a, a.T, out=out)
    out *= 0.5
    return out


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
        # each component is written into its slot: the instance is never held twice
        quad = np.empty((n, d, d))
        for i in range(n):
            _random_symmetric(rng, eig_draw(), out=quad[i])
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
