"""Optimizer runs: one cycle engine behind the cyclic proximal method, its
variance-reduced variants and the full-vector baselines, all emitting a
common per-cycle trace.

Every method takes the same block prox step under the run's diagonal
metric, and every entry point takes one :class:`RunConfig` (the randomized
ones also an ``RngBundle``). The methods differ in two choices only. A
``RunConfig`` without a metric is rejected when built, and the engine
rejects, before cycle 1, a config that lacks another field it needs:

================  ============  ================  ==================  ================
entry point       update order  groups per plan   gradient estimator  RunConfig fields
================  ============  ================  ==================  ================
``pccd_run``      cyclic        m, one per block  exact               metric
``prox_gd_run``   simultaneous  1, every block    exact               metric
``vrccd_run``     cyclic        m, one per block  recursive           p, b, b', metric
``page_run``      simultaneous  1, every block    recursive           p, b, b', metric
================  ============  ================  ==================  ================

Minibatch proximal SGD is ``page_run`` at p = 1, b' = b. ``config.METHODS``
maps each algorithm name to its entry point and the settings it fixes.

* **Update order.** It only groups the blocks. Each cycle steps the groups
  of consecutive blocks one after another, each group estimating its
  gradient at the current x and taking one prox step from x_{k-1} over its
  own coordinates. The cyclic order makes each block a group, so block j's
  gradient is estimated at the intermediate point just before block j is
  updated; the simultaneous order makes one group of every block, whose
  estimate is made at x_{k-1}: the full-gradient methods, one gradient call
  and one prox step per cycle. Each block's slice of a group's gradient is
  the block's own gradient bit for bit, and every regularizer here is
  coordinate-wise, so the grouping moves no bit.
* **Gradient estimator.** Exact without an ``RngBundle``; with one, the
  recursive estimator of PAGE (Li et al., arXiv:2008.10898) with one anchor
  per block, held in the block's estimate. Each estimate either refreshes
  the anchor from a size-b batch (probability p) or corrects it in place
  with a size-b' batch of gradient differences between the point of the
  estimate and the matching point of the previous cycle (x_{k-2} in the
  simultaneous order). That point is rebuilt from the two stored full
  iterates, so memory stays O(d). Each group's estimate has its own switch
  and batch, or one switch and batch per cycle are shared by every group
  (``shared_per_cycle``); the simultaneous order's one group draws one per
  cycle either way. Neither depends on the iterate, so after the anchor
  batch a run draws every switch in one call and then every batch they call
  for, in the order per-estimate draws would take them: a finite sum draws
  them all at once, a stream one at a time as its estimates ask. At p = 1
  the estimator is plain minibatch and no anchor batch is drawn.

Before cycle 1 the engine builds a *step plan*, one entry per group: the
family's exact and batch gradients bound to the group's rows
(``group_kernel`` and ``group_batch_grads``), the regularizer's prox step
bound to eta and the group's metric entries (``prox_step``, which computes
L1's threshold once), and fixed views of x, of the group's estimate and of
two buffers that hold x_{k-1} and x_{k-2} in turn. A group step is then one
gradient call writing the estimate and one prox step writing x in place.
The public ``block_grad``, ``batch_block_grad`` and ``prox`` build the same
functions for one block and call them once, so both paths round alike, bit
for bit. Beyond the groups, the order decides only which trace rows are
summed per block (below) and whether the intermediate-residual row exists.

The trace diagnostics are computed once per *chunk* of cycles, not once per
cycle. The cycles run in chunks of 1, 2, 4, ... up to ``CHUNK_CYCLES`` = 64;
each cycle copies its iterate, its estimate and (with ``record_u``) its
intermediate gradients into the chunk's buffers. When the chunk's last cycle
has stepped, one pass takes F(x_k) and the full gradients of every cycle
from one stacked family call (``values_and_grads``; a stream draws its
surrogate batch row by row), then the prox residuals and the per-cycle sums
over them (v_k, s_k, the intermediate-gradient residual and the anchor
error u_k) from one stacked matmul per run of equal-size blocks. Each sum
adds its blocks left to right, but the simultaneous order's u_k is one sum
over the whole vector, as the full-gradient methods define it. Every value
is bitwise the one a per-cycle computation gives. The rows are then checked
and recorded in cycle order. A run that stops early (``stop_step_sq``) or
diverges has stepped up to 63 cycles past its last row by then; those cycles
leave no row, and a diverging run raises at its failing row.

An exact run replays its floating-point orbit. Its cycle reads x_{k-1} only
(the estimates are kernel calls at points built from it, the prox centers
are it), and each row is bitwise the same wherever it sits in its chunk; so
once x_k repeats an earlier iterate x_{k-p} bit for bit, every later row is
the row p cycles before it. At the end of each chunk that neither stopped
nor reached K, the engine compares the bits of the chunk's last iterate with
those of its earlier ones (float ``==`` would match -0.0 with 0.0 and never
a NaN), and on a match records the remaining rows as copies, with no kernel,
prox or diagnostic call: each column is extended once, by the last period's
values tiled. ``meta["orbit"]`` (in memory only, not in the trace file)
holds the cycle found to repeat and the period. The copied rows
have passed the finiteness and stop checks already, so the returned iterate,
the stop and the errors are as if every cycle had stepped. A recursive run
never replays: its state also holds the estimate and the streams.

Conventions shared by every run:

* one outer iteration = one cycle, which maps the iterate x_{k-1} to x_k;
* the trace starts with a k = 0 row for the initial point;
* per-cycle displacement is measured in the run's diagonal metric, and the
  stationarity value is the squared inverse-metric norm of the subgradient
  the prox optimality conditions construct -- an upper bound on the distance
  of 0 from the composite subdifferential and exactly the quantity the
  bound checks consume;
* ``work`` accumulates optimizer gradient effort d-weighted: a batch of size
  c used to update a block of dimension d_j costs c * d_j (diagnostic
  evaluations are excluded). It is modeled work, not the arithmetic
  performed: a replayed cycle adds its work but computes no gradient;
* ``wall_ns`` of row k is the cycle's own step time plus an equal share,
  rounded down, of its chunk's diagnostic pass, and a replayed row's is an
  equal share, rounded down, of the replay's time; it is 0 at k = 0, and
  the rows add up to at most ``meta["wall_total_ns"]``, which also counts
  the anchor, the start row and the recording of the rows, but no file
  write: a run writes no file, it returns its whole trace;
* exact runs return the iterate with the smallest displacement from its
  predecessor, randomized runs the iterate at an index drawn from the
  output stream;
* a non-finite objective value raises :class:`NonFiniteObjectiveError`
  wherever a value exists (finite sums, or streaming runs with a surrogate),
  and so does a non-finite squared step v_k where none does; its
  ``NonFiniteObjectiveError.trace`` holds every row before the failing one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import DiagonalMetric
# metric_prox is not called here, nor is Regularizer.prox: the engine checks
# its inputs once per run and steps through each block's bound prox_step.
# perfbench/tracing.py still wraps ``algorithms.metric_prox``.
from .regularizers import Regularizer, metric_prox, total_value
# nor is bernoulli_switch, whose draws bernoulli_switches makes in one call;
# perfbench/tracing.py still wraps ``algorithms.bernoulli_switch``.
from .sampling import RngBundle, bernoulli_switch, bernoulli_switches

FRESH_PER_BLOCK = "fresh_per_block"
SHARED_PER_CYCLE = "shared_per_cycle"

# the most cycles whose trace diagnostics are computed together
CHUNK_CYCLES = 64


class NonFiniteObjectiveError(RuntimeError):
    """Objective became non-finite during a run (or, where no objective value
    is recorded, the squared step v_k); carries the iteration and, raised by
    a run, the run's ``trace`` of every row before the failing one. It
    survives a pickle round trip, so a pool worker can raise it."""

    trace: RunTrace | None = None

    def __init__(self, iteration: int, value: float, quantity: str = "objective value"):
        super().__init__(f"{quantity} {value} at iteration {iteration}")
        self.iteration = iteration
        self.value = value
        self.quantity = quantity

    def __reduce__(self):
        return type(self), (self.iteration, self.value, self.quantity), self.__dict__


@dataclass(eq=False)
class RunTrace:
    """Per-iteration record of one optimizer run."""

    seed: int | None = None
    meta: dict = field(default_factory=dict)
    k: list = field(default_factory=list)
    obj: list = field(default_factory=list)  # F(x_k); surrogate-based when streaming
    stat_sq: list = field(default_factory=list)  # constructed stationarity; None at k=0
    step_sq: list = field(default_factory=list)  # metric displacement squared
    est_err_sq: list = field(default_factory=list)  # anchor error; None unless recorded
    mid_resid_sq: list = field(default_factory=list)  # intermediate-gradient residual
    work: list = field(default_factory=list)  # cumulative d-weighted gradient work
    wall_ns: list = field(default_factory=list)  # step plus diagnostic share, or replay time
    iterates: list | None = None

    def add_row(self, k, obj, stat_sq, step_sq, est_err_sq, mid_resid_sq, work, wall_ns):
        self.k.append(int(k))
        self.obj.append(obj)
        self.stat_sq.append(stat_sq)
        self.step_sq.append(step_sq)
        self.est_err_sq.append(est_err_sq)
        self.mid_resid_sq.append(mid_resid_sq)
        self.work.append(work)
        self.wall_ns.append(int(wall_ns))

    @property
    def cycles(self) -> int:
        return len(self.k) - 1

    def array(self, name: str, skip_first: bool = False) -> np.ndarray:
        vals = getattr(self, name)
        if skip_first:
            vals = vals[1:]
        return np.array(vals, dtype=float)  # None reads as NaN

    def work_increments(self) -> np.ndarray:
        """Per-cycle d-weighted work, excluding any one-time startup cost."""
        w = np.asarray(self.work, dtype=float)
        return np.diff(w)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One run's parameters, checked once when built. Every run takes a
    fixed diagonal metric; p, b and b' are None for the exact methods."""

    cycles: int
    x0: np.ndarray
    metric: DiagonalMetric
    eta: float = 1.0
    p: float | None = None
    b: int | None = None
    b_prime: int | None = None
    sample_sharing: str = FRESH_PER_BLOCK
    record_u: bool = False
    keep_iterates: bool = False
    surrogate_samples: int = 0
    stop_step_sq: float | None = None  # early exit once v_k falls below this

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"refresh probability must lie in [0, 1], got {self.p}")
        if self.b is not None and self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if self.b_prime is not None and (self.b is None or not 1 <= self.b_prime <= self.b):
            raise ValueError(f"need 1 <= b' <= b, got b'={self.b_prime}, b={self.b}")
        if self.sample_sharing not in (FRESH_PER_BLOCK, SHARED_PER_CYCLE):
            raise ValueError(f"unknown sample_sharing {self.sample_sharing!r}")
        if self.metric is None:
            raise ValueError("a run needs a metric")


def _run_views(sq, weights, runs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per run of equal-size blocks, the stacked views that
    ``_block_norms_sums`` multiplies: ``weights`` (..., d) as (..., c, 1, w)
    and the squares ``sq`` (..., d) as (..., c, w, 1)."""
    lead = sq.shape[:-1]
    return [(weights[..., s:e].reshape(*lead, c, 1, w), sq[..., s:e].reshape(*lead, c, w, 1))
            for s, e, c, w in runs]


def _block_norms_sums(run_views) -> list:
    """Per row of the stacked squares, the sum over blocks of
    ``weighted_norm_sq`` against the same row of the weights, bit for bit,
    as nested lists shaped like the leading axes: per run of equal-size
    blocks one stacked matmul makes each block's dot as ``np.dot`` does, and
    each row's dots are added left to right, from 0.0."""
    totals = 0.0
    for w_run, sq_run in run_views:
        dots = np.matmul(w_run, sq_run)[..., 0, 0]
        for b in range(dots.shape[-1]):
            totals = totals + dots[..., b]
    return totals.tolist()


def pccd_run(prob, reg: Regularizer, cfg: RunConfig):
    """Cyclic proximal descent; returns the iterate with the smallest metric
    displacement from its predecessor (first minimizer on ties) and the trace.
    """
    return _run_cycles(prob, reg, cfg, cyclic=True)


def prox_gd_run(prob, reg: Regularizer, cfg: RunConfig):
    """Full-gradient proximal baseline; same return rule as the cyclic run."""
    return _run_cycles(prob, reg, cfg, cyclic=False)


def vrccd_run(prob, reg: Regularizer, cfg: RunConfig, rngs: RngBundle):
    """Variance-reduced cyclic run; returns an iterate drawn uniformly from
    the K cycle endpoints (via the output stream) and the trace.

    With p = 1 and b = n the anchor is the exact block gradient and the
    trajectory coincides, float for float, with the cyclic proximal method
    run at the same step size.
    """
    return _run_cycles(prob, reg, cfg, cyclic=True, rngs=rngs)


def page_run(prob, reg: Regularizer, cfg: RunConfig, rngs: RngBundle):
    """Full-vector recursive estimator baseline: one switch and one batch per
    iteration shared by every block, each block estimated at x_{k-1}. At
    p = 1 and b' = b it is minibatch proximal SGD."""
    return _run_cycles(prob, reg, cfg, cyclic=False, rngs=rngs)


class _Unit(NamedTuple):
    """One group of consecutive blocks of the step plan, built once per run."""

    lead: int  # its first coordinate: those before it are stepped already
    size: int
    kernel: object  # its exact gradient, bound to its rows; None if never read
    grads: object  # its batch gradients, bound to its rows; None if never read
    step: object  # the prox step, bound to eta and its metric entries
    x: np.ndarray  # views of x, est and mids over its coordinates
    est: np.ndarray
    mid: np.ndarray | None
    centers: tuple  # its views of the two rotating previous iterates


# a diverging run is reported by the F and v_k checks, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _run_cycles(prob, reg, cfg: RunConfig, cyclic, rngs=None):
    """The cycle engine. ``cyclic`` picks the update order; with ``rngs`` the
    gradient estimator is the recursive one with cfg's p, b, b' and sample
    sharing, without it exact gradients."""
    part = prob.partition
    d = part.dim
    finite = prob.is_finite
    record_u = cfg.record_u
    recursive = rngs is not None
    if not (recursive or finite):
        raise ValueError("exact gradients need a finite sum")
    missing = [name for name in ("p", "b", "b_prime") if recursive and getattr(cfg, name) is None]
    if missing:
        raise ValueError(f"this run needs {', '.join(missing)} in its run config")
    if recursive and cfg.b > prob.n:
        raise ValueError(f"need b <= n, got b={cfg.b}, n={prob.n}")
    if record_u and not finite:
        raise ValueError("anchor-error recording needs exact gradients (finite sums)")
    x = np.array(cfg.x0, dtype=float)
    if x.shape != (d,):
        raise ValueError("x0 does not match the problem dimension")
    # with eta > 0 (the config) and positive metric entries (DiagonalMetric),
    # matching partitions are all the per-step prox needs: every block's
    # center, gradient and metric block share a shape
    if cfg.metric.partition != part:
        raise ValueError(
            f"metric partition {cfg.metric.partition.block_sizes} does not match "
            f"the problem partition {part.block_sizes}"
        )

    # the step plan, built once: per group of blocks (each block in the
    # cyclic order, all of them in the simultaneous one), its exact and batch
    # gradients and its prox step, bound to its rows and metric entries, and
    # fixed views of x, est (every block's g, and its anchor), mids (exact
    # intermediate gradients) and the two rotating buffers that hold x_{k-1}
    # and x_{k-2} in turn
    est = np.empty(d)
    mids = np.empty(d) if record_u else None
    prevs = (x.copy(), x.copy())
    exact = not recursive or record_u
    m = part.num_blocks
    plan = []
    for blocks in [slice(j, j + 1) for j in range(m)] if cyclic else [slice(0, m)]:
        cols = slice(part.offsets[blocks.start], part.offsets[blocks.stop])
        plan.append(_Unit(
            cols.start, cols.stop - cols.start, prob.group_kernel(blocks) if exact else None,
            prob.group_batch_grads(blocks) if recursive else None,
            reg.prox_step(cfg.eta, cfg.metric.entries[cols]), x[cols], est[cols],
            None if mids is None else mids[cols], (prevs[0][cols], prevs[1][cols])))
    lam_k, inv_k = cfg.metric.entries, cfg.metric.inv_entries
    eta = cfg.eta
    scaled = eta != 1.0  # at eta = 1 the exact division by it is skipped
    # the chunk buffers: the iterates of a chunk (row 0 the one before it),
    # each cycle's estimates and intermediate gradients, and per cycle the
    # squares behind v_k, s_k, (cyclic, with record_u) the intermediate
    # residual and (with record_u) u_k, one row each, beside contiguous rows
    # of their weights. Each row is summed per block, but the simultaneous
    # order's u_k row over the whole vector, as one run.
    mid_row = record_u and cyclic
    rows = 2 + mid_row + record_u
    per_block = rows if cyclic else 2
    cap = min(cfg.cycles, CHUNK_CYCLES)
    xs = np.empty((cap + 1, d))
    ests = np.empty((cap, d))
    mid_buf = np.empty((cap, d)) if record_u else None
    sq = np.zeros((cap, rows, d))
    weights = np.empty((cap, rows, d))
    weights[:, 0] = lam_k
    weights[:, 1:] = inv_k

    def row_sums(c):
        """Squares ``sq[:c]`` in place; per cycle, the sum of each row."""
        block = sq[:c]
        np.multiply(block, block, out=block)
        sums = _block_norms_sums(_run_views(block[:, :per_block], weights[:c, :per_block], part.runs))
        if per_block < rows:
            whole = _block_norms_sums(
                _run_views(block[:, per_block:], weights[:c, per_block:], ((0, d, 1, d),)))
            sums = [head + tail for head, tail in zip(sums, whole)]
        return sums

    k_out = None
    trace = RunTrace(seed=None if rngs is None else rngs.seed)
    if rngs is not None:
        k_out = int(rngs.output.integers(1, cfg.cycles + 1))
        trace.meta["output_index"] = k_out
    if cfg.keep_iterates:
        trace.iterates = [x.copy()]
    t0 = time.perf_counter_ns()

    # anchor the estimator with a size-b batch at the start point; with
    # p = 1 no anchor is ever read (the estimator is plain minibatch SGD),
    # so no anchor batch is drawn, u_0 stays unrecorded, and the streams
    # line up with the SGD baseline under a shared seed
    work = 0
    exact_work = None if recursive else prob.n * d  # each cycle's, summed over its blocks
    anchored = recursive and cfg.p < 1.0
    u0 = 0.0 if record_u and (anchored or not recursive) else None
    if anchored:
        est[...] = prob.group_batch_grads(slice(None))(prob.draw_batch(rngs.batch, cfg.b), (x,))[0]
        work = cfg.b * d
        if record_u:
            for unit in plan:
                unit.kernel(x, unit.mid)
            np.subtract(est, mids, out=sq[0, -1])
            u0 = row_sums(1)[0][-1]
    # every estimate's switch, then the size-b (refresh) or size-b'
    # (correction) batch each switch calls for, from the streams in the
    # order that one switch and one batch per estimate would take them;
    # shared sampling draws one of each per cycle
    shared = cfg.sample_sharing == SHARED_PER_CYCLE
    if recursive:
        count = cfg.cycles * (1 if shared else len(plan))
        refreshes = bernoulli_switches(rngs.switch, cfg.p, count).tolist()
        sizes = [cfg.b if refresh else cfg.b_prime for refresh in refreshes]
        draws = zip(refreshes, prob.draw_batches(rngs.batch, sizes))
    (f0,), _ = _trace_values_grads(prob, reg, x[None], cfg.surrogate_samples, rngs, want_grad=False)
    trace.add_row(0, f0, None, 0.0, u0, None, work, 0)

    # the cycles run in chunks of 1, 2, 4, ... up to CHUNK_CYCLES. Per cycle,
    # each group estimates g at x, takes its prox step from x_{k-1} and
    # writes its coordinates: a group is not written before its own step, so
    # x_{k-1} over its coordinates is its center, and x is x_{k-1} until the
    # first group steps. The residuals and the per-cycle sums over them are
    # taken for the whole chunk once its last cycle ends; then its rows are
    # checked and recorded in order, and a stop or a non-finite row discards
    # the cycles after it.
    best_v, best_x = math.inf, x.copy()
    x_hat = None
    k = 0
    chunk = 1
    stopped = False
    while k < cfg.cycles and not stopped:
        c = min(chunk, cfg.cycles - k)
        chunk = min(2 * chunk, CHUNK_CYCLES)
        xs[0] = x
        works, walls = [], []
        for i in range(c):
            t_iter = time.perf_counter_ns()
            cur = (k + i) % 2  # prevs[cur] holds x_{k-1}, the other x_{k-2}
            x_prev, x_prev2 = prevs[cur], prevs[1 - cur]
            if not recursive:
                work += exact_work
            for u, (lead, size, kernel, grads, step, x_u, est_u, mid_u, centers) in enumerate(plan):
                if not recursive:
                    kernel(x, est_u)
                else:
                    if u == 0 or not shared:
                        refresh, batch = next(draws)
                    if refresh:
                        est_u[...] = grads(batch, (x,))[0]
                        work += cfg.b * size
                    else:
                        # the matching point of the previous cycle
                        old = np.concatenate((x_prev[:lead], x_prev2[lead:]))
                        g_x, g_old = grads(batch, (x, old))
                        est_u += g_x - g_old
                        work += cfg.b_prime * size
                if record_u:
                    kernel(x, mid_u)
                step(centers[cur], est_u, x_u)
            np.copyto(x_prev2, x)  # the next cycle's x_{k-1}
            xs[i + 1] = x
            ests[i] = est
            if record_u:
                mid_buf[i] = mids
            works.append(work)
            walls.append(time.perf_counter_ns() - t_iter)

        t_diag = time.perf_counter_ns()
        xk, xk_prev = xs[1 : c + 1], xs[:c]
        resid = lam_k * (xk_prev - xk)
        if scaled:
            resid /= eta
        resid -= ests[:c]
        np.subtract(xk, xk_prev, out=sq[:c, 0])
        values, grads = _trace_values_grads(prob, reg, xk, cfg.surrogate_samples, rngs)
        if grads is not None:
            np.add(grads, resid, out=sq[:c, 1])
        if mid_row:
            np.add(mid_buf[:c], resid, out=sq[:c, 2])
        if record_u:
            np.subtract(ests[:c], mid_buf[:c], out=sq[:c, -1])
        sums = row_sums(c)
        share = (time.perf_counter_ns() - t_diag) // c

        for i in range(c):
            k += 1
            f_k, row = values[i], sums[i]
            v_k = row[0]
            if not math.isfinite(v_k if f_k is None else f_k):
                err = NonFiniteObjectiveError(k, f_k) if f_k is not None else NonFiniteObjectiveError(
                    k, v_k, "objective value not recorded; squared step v_k =")
                err.trace = trace  # every row before this one
                raise err
            if k_out is None and v_k < best_v:
                best_v = v_k
                best_x = xk[i].copy()
            if k == k_out:
                x_hat = xk[i].copy()
            if cfg.keep_iterates:
                trace.iterates.append(xk[i].copy())
            trace.add_row(k, f_k, None if grads is None else row[1], v_k,
                          row[-1] if record_u else None, row[2] if mid_row else None,
                          works[i], walls[i] + share)
            if cfg.stop_step_sq is not None and v_k <= cfg.stop_step_sq:
                stopped = True
                break
        # an exact chunk whose last iterate repeats an earlier one bit for
        # bit has entered its orbit: the remaining rows are copies
        if not (recursive or stopped) and k < cfg.cycles:
            period = _orbit_period(xs[: c + 1])
            if period:
                trace.meta["orbit"] = (k, period)
                _replay_orbit(trace, period, cfg.cycles, exact_work)
                break
    trace.meta["wall_total_ns"] = time.perf_counter_ns() - t0
    return (best_x if k_out is None else x_hat), trace


def _orbit_period(xs) -> int:
    """The smallest p such that the last row of the (c + 1, d) stack ``xs``
    repeats the row p before it bit for bit, or 0 if no earlier row does."""
    bits = xs.view(np.uint64)
    hits = np.flatnonzero((bits[:-1] == bits[-1]).all(axis=1))
    return len(bits) - 1 - int(hits[-1]) if hits.size else 0


def _replay_orbit(trace, period, cycles, cycle_work):
    """Record rows up to ``cycles``, each a copy of the row ``period``
    cycles before it, with the cycle's work added; each column is extended
    once, by the last period's values tiled. Every row's ``wall_ns`` is an
    equal share, rounded down, of the time the copying took. The iterates
    are copied too, when kept."""
    t0 = time.perf_counter_ns()
    start = len(trace.k)
    n = cycles + 1 - start

    def tiled(column):
        return (column[start - period :] * (n // period + 1))[:n]

    for column in (trace.obj, trace.stat_sq, trace.step_sq, trace.est_err_sq, trace.mid_resid_sq):
        column.extend(tiled(column))
    if trace.iterates is not None:
        trace.iterates.extend(x.copy() for x in tiled(trace.iterates))
    work = trace.work[-1]
    trace.work.extend(range(work + cycle_work, work + cycle_work * (n + 1), cycle_work))
    trace.k.extend(range(start, cycles + 1))
    trace.wall_ns.extend([(time.perf_counter_ns() - t0) // n] * n)


def _trace_values_grads(prob, reg, points, surrogate_samples, rngs, want_grad=True):
    """F and, with ``want_grad``, the full gradient at each row of the (c, d)
    stack ``points``, for trace rows: a list of values and a (c, d) array.

    Exact for finite sums, from one stacked ``values_and_grads`` call.
    Streaming objectives use a seeded surrogate batch per row (both
    quantities are then sample estimates and labeled approximate by the
    harness); a streaming quadratic's batch is the column mean of its linear
    terms, drawn in chunks, so the surrogate holds O(chunk * d) memory at any
    sample count. With no surrogate budget they are skipped.
    """
    if prob.is_finite:
        values, grads = prob.values_and_grads(points)
    elif surrogate_samples > 0:
        values, grads = [], np.empty_like(points) if want_grad else None
        full = prob.group_batch_grads(slice(None))
        for i, x in enumerate(points):
            batch = prob.draw_batch(rngs.surrogate, int(surrogate_samples))
            values.append(prob.batch_value(batch, x))
            if want_grad:
                grads[i] = full(batch, (x,))[0]
    else:
        return [None] * len(points), None
    return [f + total_value(reg, x, prob.partition) for f, x in zip(values, points)], grads
