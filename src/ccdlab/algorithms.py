"""Optimizer runs: one cycle engine behind the cyclic proximal method, its
variance-reduced variants and the full-vector baselines, all emitting a
common per-cycle trace.

Every method takes the same block prox step under the run's diagonal
metric, and every entry point takes one :class:`RunConfig` (the randomized
ones also an ``RngBundle``). The methods differ in two choices only. A
``RunConfig`` without a metric is rejected when built, and the engine
rejects, before cycle 1, a config that lacks another field it needs:

================  ============  ==================  ====================
entry point       update order  gradient estimator  RunConfig fields
================  ============  ==================  ====================
``pccd_run``      cyclic        exact               metric
``prox_gd_run``   simultaneous  exact               metric
``vrccd_run``     cyclic        recursive           p, b, b', metric
``page_run``      simultaneous  recursive           p, b, b', metric
================  ============  ==================  ====================

Minibatch proximal SGD is ``page_run`` at p = 1, b' = b. ``config.METHODS``
maps each algorithm name to its entry point and the settings it fixes.

* **Update order.** The cyclic order estimates block j's gradient at the
  intermediate point just before block j is updated. The simultaneous order
  estimates the whole gradient once per cycle. Each estimate unit (a block,
  or the whole vector) then makes one prox call from x_{k-1} over its own
  coordinates and writes them in place; every regularizer here is
  coordinate-wise, so one whole-vector call equals the per-block calls. The
  prox residuals and the per-cycle sums over them (v_k, s_k and the
  intermediate-gradient residual) are computed once the cycle's last unit
  has stepped.
* **Gradient estimator.** Exact without an ``RngBundle``; with one, the
  recursive estimator of PAGE (Li et al., arXiv:2008.10898) with one anchor
  per estimate (per block, or one for the whole vector). Each estimate
  either refreshes the anchor from a size-b batch (probability p) or
  corrects it with a size-b' batch of gradient differences between the
  current point and the matching point of the previous cycle. That point is
  rebuilt from the two stored full iterates, so memory stays O(d). Each
  estimate has its own switch and batch, or one switch and batch per cycle
  are shared by every block (``shared_per_cycle``). Neither depends on the
  iterate, so after the anchor batch a run draws every switch in one call
  and then every batch they call for, in the order per-estimate draws would
  take them: a finite sum draws them all at once, a stream one at a time as
  its estimates ask. At p = 1 the estimator is plain minibatch and no anchor
  batch is drawn.

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
  evaluations are excluded);
* exact runs return the iterate with the smallest displacement from its
  predecessor, randomized runs the iterate at an index drawn from the
  output stream;
* a non-finite objective value raises :class:`NonFiniteObjectiveError`
  wherever a value exists (finite sums, or streaming runs with a surrogate),
  and so does a non-finite squared step v_k where none does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import DiagonalMetric, weighted_norm_sq
# metric_prox is not called here: the engine checks its inputs once per run.
# perfbench/tracing.py still wraps ``algorithms.metric_prox``.
from .regularizers import Regularizer, metric_prox, total_value
# nor is bernoulli_switch, whose draws bernoulli_switches makes in one call;
# perfbench/tracing.py still wraps ``algorithms.bernoulli_switch``.
from .sampling import RngBundle, bernoulli_switch, bernoulli_switches

FRESH_PER_BLOCK = "fresh_per_block"
SHARED_PER_CYCLE = "shared_per_cycle"


class NonFiniteObjectiveError(RuntimeError):
    """Objective became non-finite during a run (or, where no objective value
    is recorded, the squared step v_k); carries the iteration."""

    def __init__(self, iteration: int, value: float, quantity: str = "objective value"):
        super().__init__(f"{quantity} {value} at iteration {iteration}")
        self.iteration = iteration
        self.value = value


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
    wall_ns: list = field(default_factory=list)
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
        return np.array([np.nan if v is None else v for v in vals], dtype=float)

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


def _block_norms_sum(v, weights, runs) -> float:
    """The sum over blocks of ``weighted_norm_sq(v_j, weights_j)``, bit for
    bit: per run of equal-size blocks one stacked matmul makes each block's
    dot as ``np.dot`` does, and the dots are added left to right."""
    sq = v * v
    total = 0.0
    for s, e, c, w in runs:
        dots = np.matmul(weights[s:e].reshape(c, 1, w), sq[s:e].reshape(c, w, 1))
        for dot in dots.reshape(-1).tolist():
            total += dot
    return total


def _objective(prob, reg, x) -> float:
    return prob.value(x) + total_value(reg, x, prob.partition)


def pccd_run(prob, reg: Regularizer, cfg: RunConfig, row_sink=None):
    """Cyclic proximal descent; returns the iterate with the smallest metric
    displacement from its predecessor (first minimizer on ties) and the trace.
    """
    return _run_cycles(prob, reg, cfg, cyclic=True, row_sink=row_sink)


def prox_gd_run(prob, reg: Regularizer, cfg: RunConfig, row_sink=None):
    """Full-gradient proximal baseline; same return rule as the cyclic run."""
    return _run_cycles(prob, reg, cfg, cyclic=False, row_sink=row_sink)


def vrccd_run(prob, reg: Regularizer, cfg: RunConfig, rngs: RngBundle, row_sink=None):
    """Variance-reduced cyclic run; returns an iterate drawn uniformly from
    the K cycle endpoints (via the output stream) and the trace.

    With p = 1 and b = n the anchor is the exact block gradient and the
    trajectory coincides, float for float, with the cyclic proximal method
    run at the same step size.
    """
    return _run_cycles(prob, reg, cfg, cyclic=True, rngs=rngs, row_sink=row_sink)


def page_run(prob, reg: Regularizer, cfg: RunConfig, rngs: RngBundle, row_sink=None):
    """Full-vector recursive estimator baseline: one switch and one estimator
    for the whole gradient per iteration, simultaneous block update. At
    p = 1 and b' = b it is minibatch proximal SGD."""
    return _run_cycles(prob, reg, cfg, cyclic=False, rngs=rngs, row_sink=row_sink)


def _grad(prob, j, x, batch=None):
    """Gradient of block j, or of the whole vector when j is None; exact
    unless a batch is given. Whole-vector estimates go through the
    problem's full-vector methods, so they round as those do."""
    if batch is None:
        return prob.full_grad(x) if j is None else prob.block_grad(j, x)
    return prob.batch_full_grad(batch, x) if j is None else prob.batch_block_grad(batch, j, x)


# a diverging run is reported by the F and v_k checks, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _run_cycles(prob, reg, cfg: RunConfig, cyclic, rngs=None, row_sink=None):
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
    shared = cfg.sample_sharing == SHARED_PER_CYCLE
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

    # the block plan, built once: an estimate unit is (block or None, its
    # coordinates), and its prox takes the metric over those coordinates
    if cyclic:
        units = list(enumerate(part.slices))
    else:
        units = [(None, slice(0, d))]
    unit_lams = [cfg.metric.entries[cols] for _, cols in units]
    unit_invs = [1.0 / lam for lam in unit_lams]
    lam_k, inv_k = cfg.metric.entries, cfg.metric.inv_entries

    k_out = None
    trace = RunTrace(seed=None if rngs is None else rngs.seed)
    if rngs is not None:
        k_out = int(rngs.output.integers(1, cfg.cycles + 1))
        trace.meta["output_index"] = k_out
    if cfg.keep_iterates:
        trace.iterates = [x.copy()]
    t0 = time.perf_counter_ns()

    # anchor the estimator with a size-b batch at the start point; with
    # p = 1 the anchors are never read (the estimator is plain minibatch
    # SGD), so no anchor batch is drawn, u_0 stays unrecorded, and the
    # streams line up with the SGD baseline under a shared seed
    work = 0
    anchors = [None] * len(units)
    anchored = recursive and cfg.p < 1.0
    u0 = 0.0 if record_u and (anchored or not recursive) else None
    if anchored:
        g_init = prob.batch_full_grad(prob.draw_batch(rngs.batch, cfg.b), x)
        anchors = [np.array(g_init[cols]) for _, cols in units]
        work = cfg.b * d
        if record_u:
            for (j_u, _), anchor, inv in zip(units, anchors, unit_invs):
                u0 += weighted_norm_sq(anchor - _grad(prob, j_u, x), inv)
    # every estimate's switch, then the size-b (refresh) or size-b'
    # (correction) batch each switch calls for, from the streams in the
    # order that one switch and one batch per estimate would take them
    if recursive:
        count = cfg.cycles * (1 if shared else len(units))
        refreshes = bernoulli_switches(rngs.switch, cfg.p, count).tolist()
        sizes = [cfg.b if refresh else cfg.b_prime for refresh in refreshes]
        draws = zip(refreshes, prob.draw_batches(rngs.batch, sizes))
    f0, _ = _trace_value_grad(prob, reg, x, cfg.surrogate_samples, rngs, want_grad=False)
    trace.add_row(0, f0, None, 0.0, u0, None, work, 0)
    if row_sink is not None:
        row_sink(trace)

    # per cycle, each unit only estimates g, takes its prox step from x_{k-1}
    # and writes its coordinates: a block is not written before its own
    # step, so x_prev[cols] is its center in either order. The residuals and
    # the per-cycle sums over them are taken once the cycle ends.
    est = np.empty(d)  # every unit's g
    mids = np.empty(d) if record_u and cyclic else None  # exact intermediate gradients
    x_prev = x.copy()
    x_prev2 = x.copy()
    best_v, best_x = math.inf, x.copy()
    x_hat = None
    for k in range(1, cfg.cycles + 1):
        t_iter = time.perf_counter_ns()
        u_k = 0.0 if record_u else None
        for u, (j_u, cols) in enumerate(units):
            size = cols.stop - cols.start
            if not recursive:
                g = _grad(prob, j_u, x)
                work += prob.n * size
            else:
                if u == 0 or not shared:
                    refresh, batch = next(draws)
                if refresh:
                    g = _grad(prob, j_u, x, batch)
                    work += cfg.b * size
                else:
                    # the matching point of the previous cycle
                    old = np.concatenate((x_prev[:cols.start], x_prev2[cols.start:]))
                    if j_u is None:
                        g_x = prob.batch_full_grad(batch, x)
                        g_old = prob.batch_full_grad(batch, old)
                    else:
                        g_x, g_old = prob.batch_block_grad_pair(batch, j_u, x, old)
                    g = anchors[u] + (g_x - g_old)
                    work += cfg.b_prime * size
                anchors[u] = g
            if record_u:
                grad_mid = _grad(prob, j_u, x)
                u_k += weighted_norm_sq(g - grad_mid, unit_invs[u])
                if mids is not None:
                    mids[cols] = grad_mid
            est[cols] = g
            x[cols] = reg.prox(j_u, x_prev[cols], g, cfg.eta, unit_lams[u])

        resid = lam_k * (x_prev - x) / cfg.eta - est
        v_k = _block_norms_sum(x - x_prev, lam_k, part.runs)
        mid_k = None if mids is None else _block_norms_sum(mids + resid, inv_k, part.runs)
        f_k, grad_end = _trace_value_grad(prob, reg, x, cfg.surrogate_samples, rngs, want_grad=True)
        s_k = None if grad_end is None else _block_norms_sum(grad_end + resid, inv_k, part.runs)
        if f_k is not None and not math.isfinite(f_k):
            raise NonFiniteObjectiveError(k, f_k)
        if f_k is None and not math.isfinite(v_k):
            raise NonFiniteObjectiveError(k, v_k, "objective value not recorded; squared step v_k =")
        if k_out is None and v_k < best_v:
            best_v = v_k
            best_x = x.copy()
        if k == k_out:
            x_hat = x.copy()
        if cfg.keep_iterates:
            trace.iterates.append(x.copy())
        x_prev2 = x_prev
        x_prev = x.copy()
        trace.add_row(k, f_k, s_k, v_k, u_k, mid_k, work, time.perf_counter_ns() - t_iter)
        if row_sink is not None:
            row_sink(trace)
        if cfg.stop_step_sq is not None and v_k <= cfg.stop_step_sq:
            break
    trace.meta["wall_total_ns"] = time.perf_counter_ns() - t0
    return (best_x if k_out is None else x_hat), trace


def _trace_value_grad(prob, reg, x, surrogate_samples, rngs, want_grad):
    """Objective value and full gradient for trace rows.

    Exact for finite sums. Streaming objectives use a seeded surrogate batch
    (both quantities are then sample estimates and labeled approximate by
    the harness); a streaming quadratic's batch is the column mean of its
    linear terms, drawn in chunks, so the surrogate holds O(chunk * d)
    memory at any sample count. With no surrogate budget they are skipped.
    """
    if prob.is_finite:
        grad = prob.full_grad(x) if want_grad else None
        return _objective(prob, reg, x), grad
    if surrogate_samples and surrogate_samples > 0:
        batch = prob.draw_batch(rngs.surrogate, int(surrogate_samples))
        value = prob.batch_value(batch, x) + total_value(reg, x, prob.partition)
        grad = prob.batch_full_grad(batch, x) if want_grad else None
        return value, grad
    return None, None
