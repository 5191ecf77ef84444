"""Optimizer runs: one cycle engine behind the cyclic proximal method, its
variance-reduced variants and the full-vector baselines, all emitting a
common per-cycle trace.

Every method takes the same block prox step under the run's diagonal
metric, and every entry point takes one :class:`RunConfig` (the randomized
ones also an ``RngBundle``, or a seat in a :class:`SeedStack`). The
methods differ in two choices only. A
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
L1's threshold once), and views of the group's columns of x, of its
estimate and of two buffers that hold x_{k-1} and x_{k-2} in turn. A group
step is then one gradient call writing the estimate and one prox step
writing x in place. The public ``block_grad``, ``batch_block_grad`` and
``prox`` build the same functions for one block and call them once, so both
paths round alike, bit for bit. Beyond the groups, the order decides only
which trace rows are summed per block (below) and whether the
intermediate-residual row exists.

The engine steps a *stack* of runs that share a problem, regularizer,
config and order: the seeds of a recursive experiment, gathered in a
``SeedStack``; an exact run, which has no seed, is a stack of one. Every
seed's state is a row of an (S, d) array, so each group step, the chunk's
diagnostics and the row bookkeeping run once over the stack. Each seed
keeps its own streams, draws, output index and trace, and at each estimate
step the seeds that refresh and those that correct each take one gradient
call: the family's group gradients take one batch per seed and a
(P, S, d) array of points (a correction's two points, x and the matching
point of the previous cycle, are one array), and a quadratic finite sum
gathers the batch rows of every seed at once. Every row of a stacked call
is bitwise the one-seed call, so each seed's trace, output index and
returned iterate are those of its run alone. A seed that stops or diverges
leaves the stack at its chunk's end; the others run on.

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
* ``wall_ns`` of row k is the run's equal share, rounded down, of its
  stack's step time for the cycle, plus an equal share of its chunk's
  diagnostic pass, and a replayed row's is an equal share, rounded down,
  of the replay's time; it is 0 at k = 0, and the rows add up to at most
  ``meta["wall_total_ns"]``, the run's equal share of each chunk of the
  stack's time while it is in the stack, which also counts the anchor, the
  start row and the recording of the rows, but no file write: a run writes
  no file, it returns its whole trace. Summed over a stack's runs, it is
  the stack's time, less the rounding;
* exact runs return the iterate with the smallest displacement from its
  predecessor, randomized runs the iterate at an index drawn from the
  output stream;
* a non-finite objective value raises :class:`NonFiniteObjectiveError`
  wherever a value exists (finite sums, or streaming runs with a surrogate),
  and so does a non-finite squared step v_k where none does; its
  ``NonFiniteObjectiveError.trace`` holds every row before the failing one.
  A stack's seed raises its own error from its own entry call.
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


def vrccd_run(prob, reg: Regularizer, cfg: RunConfig, rngs):
    """Variance-reduced cyclic run; returns an iterate drawn uniformly from
    the K cycle endpoints (via the output stream) and the trace. ``rngs`` is
    the seed's ``RngBundle``, or its seat in a ``SeedStack``.

    With p = 1 and b = n the anchor is the exact block gradient and the
    trajectory coincides, float for float, with the cyclic proximal method
    run at the same step size.
    """
    return _run_cycles(prob, reg, cfg, cyclic=True, rngs=rngs)


def page_run(prob, reg: Regularizer, cfg: RunConfig, rngs):
    """Full-vector recursive estimator baseline: one switch and one batch per
    iteration shared by every block, each block estimated at x_{k-1}. At
    p = 1 and b' = b it is minibatch proximal SGD. ``rngs`` as for
    ``vrccd_run``."""
    return _run_cycles(prob, reg, cfg, cyclic=False, rngs=rngs)


class SeedStack:
    """The ``RngBundle``s of seeds that the engine steps as one stack. Each
    of ``seats`` stands in for its seed's bundle in ``vrccd_run`` or
    ``page_run``: the first run asked of any seat steps every seed of the
    stack, with that call's problem, regularizer, config and order, and each
    seat's run returns, or raises, its own seed's result. A caller that runs
    its seeds one entry call at a time, as a profiler's wrapper sees them,
    so still steps them together."""

    def __init__(self, bundles):
        self.bundles = tuple(bundles)
        self._run = self._results = None

    @property
    def seats(self) -> list[_Seat]:
        return [_Seat(self, i) for i in range(len(self.bundles))]

    def result(self, index, prob, reg, cfg, cyclic):
        """Seat ``index``'s ``(x, trace)``, or the error its run ends with."""
        run = (prob, reg, cfg, cyclic)
        if self._run is None:
            self._run = run
            try:
                self._results = _run_stack(prob, reg, cfg, cyclic, self.bundles)
            except ValueError as exc:  # a run the engine refuses: every seat's
                self._results = [exc] * len(self.bundles)
        elif any(a is not b for a, b in zip(run, self._run)):
            raise ValueError("the seats of a seed stack share one problem, regularizer, config and order")
        return self._results[index]


class _Seat(NamedTuple):
    """One seed's place in a ``SeedStack``."""

    stack: SeedStack
    index: int


def _run_cycles(prob, reg, cfg, cyclic, rngs=None):
    """One run: the engine on a stack of one, or on a seat's whole stack."""
    if isinstance(rngs, _Seat):
        result = rngs.stack.result(rngs.index, prob, reg, cfg, cyclic)
    else:
        (result,) = _run_stack(prob, reg, cfg, cyclic, (rngs,))
    if isinstance(result, Exception):
        raise result
    return result


class _Unit(NamedTuple):
    """One group of consecutive blocks of the step plan, built once per run;
    its views are taken again when the stack sheds a seed."""

    lead: int  # its first coordinate: those before it are stepped already
    size: int
    kernel: object  # its exact gradient, bound to its rows; None if never read
    grads: object  # its batch gradients, bound to its rows; None if never read
    step: object  # the prox step, bound to eta and its metric entries
    x: np.ndarray | None  # views of its columns of x and est
    est: np.ndarray | None
    est_col: np.ndarray | None  # the kernel's (S, size, 1) views of est and mids
    mid: np.ndarray | None
    centers: tuple | None  # its views of the two rotating previous iterates


_ALL = slice(None)  # every seed of the stack


def _step_groups(switches) -> list[tuple]:
    """Per estimate step, the (refresh, rows) groups of the seeds of the
    (S, steps) ``switches``: the seeds that refresh and those that correct,
    as ``_ALL`` when a group holds every seed, and no empty group."""
    every, none = switches.all(axis=0).tolist(), (~switches.any(axis=0)).tolist()
    groups = []
    for t, (refresh_all, correct_all) in enumerate(zip(every, none)):
        if refresh_all or correct_all:
            groups.append(((refresh_all, _ALL),))
        else:
            col = switches[:, t]
            groups.append(((True, np.flatnonzero(col)), (False, np.flatnonzero(~col))))
    return groups


# a diverging run is reported by the F and v_k checks, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _run_stack(prob, reg, cfg: RunConfig, cyclic, bundles):
    """The cycle engine, stepping a stack of seeds in lockstep: one
    ``RngBundle`` per seed, or ``(None,)`` for exact gradients. ``cyclic``
    picks the update order; with bundles the gradient estimator is the
    recursive one with cfg's p, b, b' and sample sharing. Returns per seed
    ``(x, trace)``, or the ``NonFiniteObjectiveError`` it stopped with."""
    part = prob.partition
    d = part.dim
    finite = prob.is_finite
    record_u = cfg.record_u
    recursive = bundles[0] is not None
    if not (recursive or finite):
        raise ValueError("exact gradients need a finite sum")
    missing = [name for name in ("p", "b", "b_prime") if recursive and getattr(cfg, name) is None]
    if missing:
        raise ValueError(f"this run needs {', '.join(missing)} in its run config")
    if recursive and cfg.b > prob.n:
        raise ValueError(f"need b <= n, got b={cfg.b}, n={prob.n}")
    if record_u and not finite:
        raise ValueError("anchor-error recording needs exact gradients (finite sums)")
    x0 = np.array(cfg.x0, dtype=float)
    if x0.shape != (d,):
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
    # gradients and its prox step, bound to its rows and metric entries. The
    # state of every seed is a row of an (S, d) stack: x, est (every block's
    # g, and its anchor), mids (exact intermediate gradients) and the two
    # rotating buffers that hold x_{k-1} and x_{k-2} in turn; each unit steps
    # its columns of them
    seeds = len(bundles)
    # x is row 0 of ``points``, whose row 1 holds a correction's matching
    # point of the previous cycle: a correction's two points are one array
    points = np.empty((2, seeds, d))
    x = points[0]
    x[...] = x0
    est = np.empty((seeds, d))
    mids = np.empty((seeds, d)) if record_u else None
    prevs = (x.copy(), x.copy())

    def on_stack(unit):
        """The unit with views of its columns over the seeds in the stack."""
        cols = slice(unit.lead, unit.lead + unit.size)
        return unit._replace(x=x[:, cols], est=est[:, cols], est_col=est[:, cols, None],
                             mid=None if mids is None else mids[:, cols, None],
                             centers=(prevs[0][:, cols], prevs[1][:, cols]))

    exact = not recursive or record_u
    m = part.num_blocks
    plan = []
    for blocks in [slice(j, j + 1) for j in range(m)] if cyclic else [slice(0, m)]:
        cols = slice(part.offsets[blocks.start], part.offsets[blocks.stop])
        plan.append(on_stack(_Unit(
            cols.start, cols.stop - cols.start, prob.group_kernel(blocks) if exact else None,
            prob.group_batch_grads(blocks) if recursive else None,
            # a (1, size) metric row: a stack of one steps without broadcasting
            reg.prox_step(cfg.eta, cfg.metric.entries[None, cols]), None, None, None, None, None)))
    lam_k, inv_k = cfg.metric.entries, cfg.metric.inv_entries
    eta = cfg.eta
    scaled = eta != 1.0  # at eta = 1 the exact division by it is skipped
    # the chunk buffers, per cycle one row per seed: the iterates of a chunk
    # (row 0 the one before it), each cycle's estimates and intermediate
    # gradients, and the squares behind v_k, s_k, (cyclic, with record_u)
    # the intermediate residual and (with record_u) u_k, one row each,
    # beside contiguous rows of their weights. Each row is summed per block,
    # but the simultaneous order's u_k row over the whole vector, as one run.
    # The diagnostics read a chunk's c cycles of S seeds as c * S rows, cycle
    # by cycle.
    mid_row = record_u and cyclic
    rows = 2 + mid_row + record_u
    per_block = rows if cyclic else 2
    cap = min(cfg.cycles, CHUNK_CYCLES)
    xs = np.empty((cap + 1, seeds, d))
    ests = np.empty((cap, seeds, d))
    mid_buf = np.empty((cap, seeds, d)) if record_u else None
    sq = np.zeros((cap * seeds, rows, d))
    weights = np.empty((cap * seeds, rows, d))
    weights[:, 0] = lam_k
    weights[:, 1:] = inv_k

    def row_sums(n):
        """Squares ``sq[:n]`` in place; per row, the sum of each of its rows."""
        block = sq[:n]
        np.multiply(block, block, out=block)
        sums = _block_norms_sums(_run_views(block[:, :per_block], weights[:n, :per_block], part.runs))
        if per_block < rows:
            whole = _block_norms_sums(
                _run_views(block[:, per_block:], weights[:n, per_block:], ((0, d, 1, d),)))
            sums = [head + tail for head, tail in zip(sums, whole)]
        return sums

    traces = [RunTrace(seed=None if rngs is None else rngs.seed) for rngs in bundles]
    k_outs = [None] * seeds
    if recursive:
        k_outs = [int(rngs.output.integers(1, cfg.cycles + 1)) for rngs in bundles]
        for trace, k_out in zip(traces, k_outs):
            trace.meta["output_index"] = k_out
    if cfg.keep_iterates:
        for trace in traces:
            trace.iterates = [x0.copy()]
    t0 = time.perf_counter_ns()

    # anchor the estimator with a size-b batch at the start point, one per
    # seed; with p = 1 no anchor is ever read (the estimator is plain
    # minibatch SGD), so no anchor batch is drawn, u_0 stays unrecorded, and
    # the streams line up with the SGD baseline under a shared seed
    work = [0] * seeds
    exact_work = None if recursive else prob.n * d  # each cycle's, summed over its blocks
    anchored = recursive and cfg.p < 1.0
    u0s = [0.0 if record_u and (anchored or not recursive) else None] * seeds
    if anchored:
        anchors = [prob.draw_batch(rngs.batch, cfg.b) for rngs in bundles]
        est[...] = prob.group_batch_grads(slice(None))(anchors, x[None])[0]
        work = [cfg.b * d] * seeds
        if record_u:
            for unit in plan:
                unit.kernel(x[:, :, None], unit.mid)
            np.subtract(est, mids, out=sq[:seeds, -1])
            u0s = [row[-1] for row in row_sums(seeds)]
    # per seed, every estimate's switch, then the size-b (refresh) or size-b'
    # (correction) batch each switch calls for, from its streams in the order
    # that one switch and one batch per estimate would take them; shared
    # sampling draws one of each per cycle. Per estimate step, the seeds that
    # refresh and those that correct each take one gradient call
    shared = cfg.sample_sharing == SHARED_PER_CYCLE
    if recursive:
        count = cfg.cycles * (1 if shared else len(plan))
        switches = np.array([bernoulli_switches(rngs.switch, cfg.p, count) for rngs in bundles])
        draws = [iter(prob.draw_batches(rngs.batch, np.where(refreshes, cfg.b, cfg.b_prime).tolist()))
                 for rngs, refreshes in zip(bundles, switches)]
        groups = _step_groups(switches)
    streams = [None if rngs is None else rngs.surrogate for rngs in bundles]
    values, _ = _trace_values_grads(prob, reg, x, cfg.surrogate_samples, streams, want_grad=False)
    for trace, f0, u0, w0 in zip(traces, values, u0s, work):
        trace.add_row(0, f0, None, 0.0, u0, None, w0, 0)

    # the cycles run in chunks of 1, 2, 4, ... up to CHUNK_CYCLES. Per cycle,
    # each group estimates g at x, takes its prox step from x_{k-1} and
    # writes its coordinates: a group is not written before its own step, so
    # x_{k-1} over its coordinates is its center, and x is x_{k-1} until the
    # first group steps. The residuals and the per-cycle sums over them are
    # taken for the whole chunk once its last cycle ends; then each seed's
    # rows are checked and recorded in order, and a stop or a non-finite row
    # discards the seed's cycles after it. A seed that stops, diverges or
    # replays its orbit leaves the stack at the chunk's end; the others run
    # on. Each seed is charged an equal share of the stack's time.
    results = [None] * seeds
    active = list(range(seeds))  # the seeds in the stack, by bundle index
    best = [(math.inf, x0.copy())] * seeds
    x_hats = [None] * seeds
    spent = [0] * seeds
    clock = t0
    k = 0
    t = 0  # the next estimate step
    x_col = x[:, :, None]  # x as the exact kernels take it, a stack of columns
    chunk = 1
    while True:
        c = min(chunk, cfg.cycles - k)
        chunk = min(2 * chunk, CHUNK_CYCLES)
        stack = len(active)
        n = c * stack
        xs[0] = x
        works, walls = [], []
        for i in range(c):
            t_iter = time.perf_counter_ns()
            cur = (k + i) % 2  # prevs[cur] holds x_{k-1}, the other x_{k-2}
            x_prev, x_prev2 = prevs[cur], prevs[1 - cur]
            if not recursive:
                work[0] += exact_work
            for u, (lead, size, kernel, grads, step, x_u, est_u, est_col, mid_u, centers) in enumerate(
                    plan):
                if not recursive:
                    kernel(x_col, est_col)
                else:
                    if u == 0 or not shared:
                        batches = list(map(next, draws))
                        step_groups = groups[t]
                        t += 1
                    for refresh, among in step_groups:
                        picked = batches if among is _ALL else [batches[s] for s in among]
                        if refresh:
                            est_u[among] = grads(picked, points[:1, among])[0]
                        else:
                            # the matching point of the previous cycle
                            np.concatenate((x_prev[:, :lead], x_prev2[:, lead:]), axis=1, out=points[1])
                            g_x, g_old = grads(picked, points[:, among])
                            est_u[among] += g_x - g_old
                        cost = (cfg.b if refresh else cfg.b_prime) * size
                        for s in range(stack) if among is _ALL else among:
                            work[s] += cost
                if record_u:
                    kernel(x_col, mid_u)
                step(centers[cur], est_u, x_u)
            np.copyto(x_prev2, x)  # the next cycle's x_{k-1}
            xs[i + 1] = x
            ests[i] = est
            if record_u:
                mid_buf[i] = mids
            works.append(work.copy())
            walls.append((time.perf_counter_ns() - t_iter) // stack)

        t_diag = time.perf_counter_ns()
        xk, xk_prev = xs[1 : c + 1].reshape(n, d), xs[:c].reshape(n, d)
        resid = lam_k * (xk_prev - xk)
        if scaled:
            resid /= eta
        resid -= ests[:c].reshape(n, d)
        np.subtract(xk, xk_prev, out=sq[:n, 0])
        values, full_grads = _trace_values_grads(prob, reg, xk, cfg.surrogate_samples, streams)
        if full_grads is not None:
            np.add(full_grads, resid, out=sq[:n, 1])
        if mid_row:
            np.add(mid_buf[:c].reshape(n, d), resid, out=sq[:n, 2])
        if record_u:
            np.subtract(ests[:c].reshape(n, d), mid_buf[:c].reshape(n, d), out=sq[:n, -1])
        sums = row_sums(n)
        share = (time.perf_counter_ns() - t_diag) // n

        leaving = []
        for r, s in enumerate(active):
            trace, k_out, stopped = traces[s], k_outs[s], False
            for j in range(r, n, stack):  # the seed's rows, cycle by cycle
                i = j // stack
                k_j, f_k, row = k + 1 + i, values[j], sums[j]
                v_k = row[0]
                if not math.isfinite(v_k if f_k is None else f_k):
                    err = NonFiniteObjectiveError(k_j, f_k) if f_k is not None else (
                        NonFiniteObjectiveError(k_j, v_k, "objective value not recorded; squared step v_k ="))
                    err.trace = trace  # every row before this one
                    results[s] = err
                    break
                if k_out is None and v_k < best[s][0]:
                    best[s] = v_k, xk[j].copy()
                if k_j == k_out:
                    x_hats[s] = xk[j].copy()
                if cfg.keep_iterates:
                    trace.iterates.append(xk[j].copy())
                trace.add_row(k_j, f_k, None if full_grads is None else row[1], v_k,
                              row[-1] if record_u else None, row[2] if mid_row else None,
                              works[i][r], walls[i] + share)
                if cfg.stop_step_sq is not None and v_k <= cfg.stop_step_sq:
                    stopped = True
                    break
            # an exact chunk whose last iterate repeats an earlier one bit for
            # bit has entered its orbit: the remaining rows are copies
            if results[s] is None and not (recursive or stopped) and k + c < cfg.cycles:
                period = _orbit_period(xs[: c + 1, r])
                if period:
                    trace.meta["orbit"] = (k + c, period)
                    _replay_orbit(trace, period, cfg.cycles, exact_work)
                    stopped = True
            if results[s] is not None or stopped or k + c == cfg.cycles:
                leaving.append(r)
        k += c
        now = time.perf_counter_ns()
        for s in active:
            spent[s] += (now - clock) // stack
        clock = now
        for r in leaving:
            s = active[r]
            traces[s].meta["wall_total_ns"] = spent[s]
            if results[s] is None:
                results[s] = (best[s][1] if k_outs[s] is None else x_hats[s]), traces[s]
        if len(leaving) == stack:
            return results
        if leaving:
            # the stack sheds the seeds that left: every seed-axis array and
            # the unit views over them keep the remaining rows
            keep = [r for r in range(stack) if r not in leaving]
            active = [active[r] for r in keep]
            points, est, work = points[:, keep], est[keep], [work[r] for r in keep]
            x = points[0]
            mids = None if mids is None else mids[keep]
            prevs = (prevs[0][keep], prevs[1][keep])
            xs, ests = xs[:, keep], ests[:, keep]
            mid_buf = None if mid_buf is None else mid_buf[:, keep]
            sq = sq.reshape(cap, stack, rows, d)[:, keep].reshape(-1, rows, d)
            weights = weights[: cap * len(keep)]
            plan = [on_stack(unit) for unit in plan]
            x_col = x[:, :, None]
            streams = [streams[r] for r in keep]
            if recursive:
                draws = [draws[r] for r in keep]
                switches = switches[keep]
                groups = _step_groups(switches)

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


def _trace_values_grads(prob, reg, points, surrogate_samples, streams, want_grad=True):
    """F and, with ``want_grad``, the full gradient at each row of the
    (c * S, d) stack ``points``, cycle by cycle, for trace rows: a list of
    values and a (c * S, d) array.

    Exact for finite sums, from one stacked ``values_and_grads`` call.
    Streaming objectives use a seeded surrogate batch per row, seed s's
    drawn from its stream ``streams[s]`` in cycle order (both quantities are
    then sample estimates and labeled approximate by the harness); a
    streaming quadratic's batch is the column mean of its linear terms,
    drawn in chunks, so the surrogate holds O(chunk * d) memory at any
    sample count. With no surrogate budget they are skipped.
    """
    if prob.is_finite:
        values, grads = prob.values_and_grads(points)
    elif surrogate_samples > 0:
        values, grads = [None] * len(points), np.empty_like(points) if want_grad else None
        full = prob.group_batch_grads(slice(None))
        for s, stream in enumerate(streams):
            for r in range(s, len(points), len(streams)):
                batch = prob.draw_batch(stream, int(surrogate_samples))
                values[r] = prob.batch_value(batch, points[r])
                if want_grad:
                    grads[r] = full([batch], points[None, r : r + 1])[0, 0]
    else:
        return [None] * len(points), None
    return [f + total_value(reg, x, prob.partition) for f, x in zip(values, points)], grads
