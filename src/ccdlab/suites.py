"""Built-in verification suites, one per acceptance criterion.

The seven optimizer suites take the ``ccdlab run`` path: each instance is
an ``ExperimentConfig`` that ``harness.resolve`` builds, ``run_traces``
runs and ``run_checks`` checks. A suite owns only its choice of runs: the
instance seeds, run seeds, start-point rule ``_x0`` and cycle counts. The
batch-variance, equivalence and gradient/prox suites, and the one-cycle
exact solve, call the library directly, as oracles for the pieces the
harness is built from. The CLI ``check`` subcommand and the acceptance
tests both run these functions, so the gate has a single implementation.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks, harness, problems, sampling
from .algorithms import (
    FRESH_PER_BLOCK,
    RunConfig,
    page_run,
    pccd_run,
    prox_gd_run,
    vrccd_run,
)
from .blocks import BlockPartition, DiagonalMetric
from .config import AlgorithmSpec, DiagSpec, ExperimentConfig, ProblemSpec, SeedSpec
from .regularizers import L1, Box, Zero, metric_prox
from .sampling import RngBundle

_JOBS = os.cpu_count() or 1


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    # whether a hard check failed; None for a suite whose checks are all
    # hard, which then failed hard exactly when it failed
    hard_failed: bool | None = None

    def __post_init__(self):
        if self.hard_failed is None:
            self.hard_failed = not self.passed


def _hard_failed(reports) -> bool:
    return any(not rep.passed and rep.kind == checks.HARD for rep in reports)


def _x0(prob, seed, reg=None):
    x0 = np.random.default_rng(seed ^ 0xA5A5).standard_normal(prob.dim)
    if isinstance(reg, Box):
        x0 = np.clip(x0, reg.lo, reg.hi)
    return x0


def _check(seed, problem, algorithm, checked, seeds=None, record_u=False, **fields):
    """(res, traces, reports) of suite instance ``seed`` (``seeds.base``)
    through the harness: resolved, started at the suite's point ``_x0``
    with ``fields`` replaced on the run config, run on ``seeds`` (the
    harness's seed list by default) and checked."""
    cfg = ExperimentConfig(
        problem=problem,
        algorithm=algorithm,
        seeds=SeedSpec(base=seed),
        diagnostics=DiagSpec(record_u=record_u, checks=checked),
    )
    res = harness.resolve(cfg)
    res = replace(res, run=replace(res.run, x0=_x0(res.prob, seed, res.reg), **fields))
    _, traces, _ = harness.run_traces(cfg, jobs=_JOBS, res=res, seeds=seeds)
    return res, traces, harness.run_checks(res, traces)


# --------------------------------------------------------------------------
# 1. without-replacement minibatch variance identity
# --------------------------------------------------------------------------


def suite_batch_variance_identity() -> SuiteResult:
    worst = 0.0
    comparisons = 0
    ok = True
    for idx in range(50):
        n = 4 + idx % 7
        m = 1 + idx % 3
        d = 6
        part = BlockPartition.even(d, m)
        if idx % 2 == 0:
            prob = problems.generate_quadratic(
                seed=900 + idx, n=n, d=d, partition=part, condition_number=4.0, convex=idx % 4 == 0
            )
        else:
            prob = problems.generate_classification(seed=900 + idx, n=n, d=d, partition=part)
        metric = prob.metric()
        x = np.random.default_rng(7000 + idx).standard_normal(d)
        for b in range(1, n + 1):
            for j in range(m):
                lhs, rhs = sampling.subset_variance_identity(prob, metric, x, j, b)
                comparisons += 1
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
                # a NaN side fails, as it would in a bound report
                ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    lines = [
        f"instances=50 comparisons={comparisons} max_rel_err={worst:.3e} (tol 1e-10)",
    ]
    return SuiteResult("batch-variance-identity", ok, lines)


# --------------------------------------------------------------------------
# 2. cyclic per-cycle descent
# --------------------------------------------------------------------------


def suite_cyclic_descent() -> SuiteResult:
    ok = True
    worst = math.inf
    kinds = ("convex", "boxed", "sigmoid")
    m_choices = (1, 2, 5, None)  # None means one block per coordinate
    d_choices = (8, 20, 50, 100)
    for idx in range(100):
        kind = kinds[idx % 3]
        d = d_choices[idx % 4]
        m_raw = m_choices[idx % 4]
        m = d if m_raw is None else min(m_raw, d)
        if kind == "sigmoid":
            # with no lambda.values, a sigmoid run takes the sigmoid_bound metric
            problem = ProblemSpec(family="sigmoid", n=16, d=d, m=m)
        else:
            convex = kind == "convex"
            reg = ("zero",) if convex else ("box", -2.0, 2.0)
            problem = ProblemSpec(n=6, d=d, m=m, condition_number=6.0, convex=convex, reg=reg)
        _, _, (rep,) = _check(2000 + idx, problem, AlgorithmSpec(cycles=25), ("cyclic-descent",))
        ok = ok and rep.passed
        worst = min(worst, rep.worst.slack)
    lines = [f"instances=100 cycles=25 each, min slack={worst:.3e} (tol 1e-9 rel)"]
    return SuiteResult("cyclic-descent", ok, lines)


# --------------------------------------------------------------------------
# 3. prefix stationarity rate for the cyclic method
# --------------------------------------------------------------------------


def suite_stationarity_rate() -> SuiteResult:
    ok = True
    problem = ProblemSpec(n=4, d=16, m=4, condition_number=3.0, reg=("l1", 0.1))
    # the harness takes delta0 from its machine-precision reference solve
    checked = ("stationarity-rate", "grad-vs-step", "step-telescope")
    for idx in range(100):
        _, _, reports = _check(3000 + idx, problem, AlgorithmSpec(cycles=500), checked)
        ok = ok and all(rep.passed for rep in reports)
    lines = ["instances=100, prefixes K=1..500 plus per-cycle gradient/telescope bounds"]
    return SuiteResult("stationarity-rate", ok, lines)


# --------------------------------------------------------------------------
# 4. linear rate under gradient dominance (deterministic method)
# --------------------------------------------------------------------------


def suite_pl_linear_rate() -> SuiteResult:
    ok = True
    problem = ProblemSpec(n=6, d=16, m=4, condition_number=10.0)
    for idx in range(100):
        _, _, (rep,) = _check(4000 + idx, problem, AlgorithmSpec(cycles=60), ("pl-envelope",))
        ok = ok and rep.passed

    # one-cycle exact solve: identity curvature, one block per coordinate
    d = 24
    part = BlockPartition.even(d, d)
    quad = np.broadcast_to(np.eye(d), (4, d, d)).copy()
    lin = np.random.default_rng(41).standard_normal((4, d))
    prob = problems.QuadraticFiniteSum(quad, lin, np.zeros(4), part, identical_components=True)
    metric = DiagonalMetric.identity(part)
    x_out, _ = pccd_run(prob, Zero(), RunConfig(cycles=1, x0=_x0(prob, 41), metric=metric))
    one_cycle_gap = prob.gap(x_out)
    ok = ok and one_cycle_gap <= 1e-20
    lines = [
        "instances=100, geometric envelope at every cycle (K=60)",
        f"one-cycle exact solve gap={one_cycle_gap:.3e} (tol 1e-20)",
    ]
    return SuiteResult("pl-linear-rate", ok, lines)


# --------------------------------------------------------------------------
# 5. pathwise descent + gradient bounds for the variance-reduced cycle
# --------------------------------------------------------------------------


def suite_vr_pathwise() -> SuiteResult:
    ok = True
    worst = math.inf
    algorithm = AlgorithmSpec(
        name="vrccd", cycles=200, p=0.3, b=16, bprime=4, sample_sharing=FRESH_PER_BLOCK
    )
    checked = ("vr-descent", "vr-grad-vs-step")
    for idx in range(50):
        seed = 5000 + idx
        convex = idx % 2 == 0
        reg = ("l1", 0.05) if convex else ("box", -2.0, 2.0)
        problem = ProblemSpec(n=32, d=16, m=4, condition_number=5.0, convex=convex, reg=reg)
        _, _, reports = _check(seed, problem, algorithm, checked, [seed], record_u=True)
        for rep in reports:
            ok = ok and rep.passed
            worst = min(worst, rep.worst.slack)
    lines = [f"instances=50 x 200 cycles, both pathwise bounds, min slack={worst:.3e}"]
    return SuiteResult("vr-pathwise", ok, lines)


# --------------------------------------------------------------------------
# 6. stationarity rate of the variance-reduced method (full-batch anchors)
# --------------------------------------------------------------------------


def suite_vr_rate() -> SuiteResult:
    # b = n under the finite-sum schedule, so both variance terms vanish
    problem = ProblemSpec(n=256, d=64, m=4, condition_number=10.0)
    seeds = [61_000 + s for s in range(100)]
    reports = []
    lines = []
    for cycles in (10, 100, 1000):
        algorithm = AlgorithmSpec(name="vrccd", cycles=cycles, schedule="finite_sum")
        res, _, (rep,) = _check(6100, problem, algorithm, ("vr-rate",), seeds)
        reports.append(rep)
        row = rep.rows[0]
        note = ""
        if cycles == 100:
            # the schedule's accuracy target: K = 4*delta0/(eps^2 eta) cycles
            # drive the mean below eps^2, which is exactly this bound value
            delta0 = res.prob.value(res.run.x0) - res.reference[0]
            eps_sq = 4.0 * delta0 / (res.run.eta * cycles)
            note = f" (meets target eps^2={eps_sq:.4g})"
        lines.append(f"K={cycles}: seed-mean={row.lhs:.4g} <= bound+CI={row.rhs:.4g}{note}")
    run = res.run
    head = f"n=256 d=64 schedule b={run.b} b'={run.b_prime} p={run.p:.4g} eta={run.eta:.4g}"
    ok = all(rep.passed for rep in reports)
    return SuiteResult("vr-rate", ok, [head + ", 100 seeds"] + lines, hard_failed=_hard_failed(reports))


# --------------------------------------------------------------------------
# 7. potential-function descent
# --------------------------------------------------------------------------


def suite_vr_potential() -> SuiteResult:
    checked = ("vr-potential",)
    lines = []

    # exact-anchor specialization: b = b' = n makes the noise term vanish, so
    # every estimate is exact (u_k at rounding level) and the harness checks
    # the inequality pathwise
    problem = ProblemSpec(n=24, d=12, m=3, condition_number=5.0, reg=("l1", 0.05))
    algorithm = AlgorithmSpec(name="vrccd", cycles=100, p=0.4, b=24, bprime=24)
    seeds = [71_000 + s for s in range(5)]
    _, traces, (rep_path,) = _check(7100, problem, algorithm, checked, seeds, record_u=True)
    inexact = [v for t in traces for v in t.est_err_sq if v is not None and not v <= 1e-20]
    lines.append(f"exact-anchor pathwise: 5 seeds x 100 cycles, worst slack={rep_path.worst.slack:.3e}")
    if inexact:
        lines.append(f"exact-anchor estimates: {len(inexact)} u_k above 1e-20, largest={max(inexact):.3e}")

    # generic parameters: seed-mean within the one-sided 99% allowance; the
    # components share one curvature, so sigma^2 at the start point is exact
    problem = ProblemSpec(
        n=64, d=16, m=4, condition_number=8.0, identical_curvature=True, reg=("l1", 0.05)
    )
    p, b, b_prime = 0.2, 32, 8
    algorithm = AlgorithmSpec(name="vrccd", cycles=120, p=p, b=b, bprime=b_prime)
    seeds = [72_000 + s for s in range(200)]
    _, _, (rep_mc,) = _check(7200, problem, algorithm, checked, seeds, record_u=True)
    lines.append(
        f"generic (p={p}, b={b}, b'={b_prime}): 200 seeds x 120 cycles, "
        f"worst mean-vs-allowance slack={rep_mc.worst.slack:.3e}"
    )
    ok = not inexact and rep_path.passed and rep_mc.passed
    hard_failed = bool(inexact) or _hard_failed([rep_path, rep_mc])
    return SuiteResult("vr-potential", ok, lines, hard_failed=hard_failed)


# --------------------------------------------------------------------------
# 8. arithmetic-work accounting
# --------------------------------------------------------------------------


def suite_work_accounting() -> SuiteResult:
    problem = ProblemSpec(n=64, d=8, m=4, condition_number=4.0, reg=("box", -2.0, 2.0))
    b, b_prime = 64, 8
    checked = ("work-accounting",)
    reports = []
    lines = []
    for label, p, cycles in (
        ("p=1 (exact)", 1.0, 2000),
        ("p=0 (exact)", 0.0, 2000),
        ("generic", b_prime / (b + b_prime), 10_000),
    ):
        # a config keeps p in (0, 1]: the p = 0 run resolves at p = 1, then
        # takes p = 0 and a fixed step on the resolved run
        fields = {"p": 0.0, "eta": 0.01} if p == 0.0 else {}
        algorithm = AlgorithmSpec(name="vrccd", cycles=cycles, p=p or 1.0, b=b, bprime=b_prime)
        seeds = [81_000 + int(p * 100)]
        res, (trace,), (rep,) = _check(8100, problem, algorithm, checked, seeds, **fields)
        reports.append(rep)
        target = (p * b + (1 - p) * b_prime) * res.prob.dim
        mean = float(trace.work_increments().mean())
        lines.append(f"{label}: mean per-cycle work {mean:.4f} vs target {target:.4f} over {cycles} cycles")
    ok = all(rep.passed for rep in reports)
    return SuiteResult("work-accounting", ok, lines, hard_failed=_hard_failed(reports))


# --------------------------------------------------------------------------
# 9. equivalence oracles (bitwise)
# --------------------------------------------------------------------------


def _same_trajectories(tr_a, tr_b) -> bool:
    if len(tr_a.iterates) != len(tr_b.iterates):
        return False
    for xa, xb in zip(tr_a.iterates, tr_b.iterates):
        if not np.array_equal(xa, xb):
            return False
    return tr_a.obj == tr_b.obj and tr_a.stat_sq == tr_b.stat_sq and tr_a.step_sq == tr_b.step_sq


def suite_equivalences() -> SuiteResult:
    lines = []
    ok = True

    # single block: the cyclic method IS proximal gradient descent
    part = BlockPartition.even(16, 1)
    prob = problems.generate_quadratic(9100, n=8, d=16, partition=part, condition_number=5.0)
    metric = problems.exact_quadratic_metric(prob)
    reg = L1(0.1)
    x0 = _x0(prob, 9100, reg)
    run = RunConfig(cycles=30, x0=x0, metric=metric, keep_iterates=True)
    _, tr_ccd = pccd_run(prob, reg, run)
    _, tr_gd = prox_gd_run(prob, reg, run)
    same = _same_trajectories(tr_ccd, tr_gd)
    ok = ok and same
    lines.append(f"m=1 cyclic == proximal gradient: {'bitwise equal' if same else 'MISMATCH'}")

    # always-refresh full-batch anchors: the VR run IS the cyclic method
    part = BlockPartition.even(12, 3)
    prob = problems.generate_quadratic(9200, n=8, d=12, partition=part, condition_number=5.0)
    metric = problems.exact_quadratic_metric(prob)
    reg = L1(0.1)
    x0 = _x0(prob, 9200, reg)
    run = RunConfig(
        cycles=25, x0=x0, metric=metric, eta=0.5, p=1.0, b=prob.n, b_prime=prob.n,
        keep_iterates=True,
    )
    _, tr_vr = vrccd_run(prob, reg, run, RngBundle.from_seed(92))
    _, tr_ccd = pccd_run(prob, reg, run)
    same = _same_trajectories(tr_vr, tr_ccd)
    ok = ok and same
    lines.append(f"p=1, b=n VR run == cyclic with same eta: {'bitwise equal' if same else 'MISMATCH'}")

    # single block, always-refresh minibatch: cyclic SGD == SGD, shared seed
    part = BlockPartition.even(10, 1)
    prob = problems.generate_quadratic(9300, n=32, d=10, partition=part, condition_number=5.0)
    metric = problems.exact_quadratic_metric(prob)
    x0 = _x0(prob, 9300)
    run = RunConfig(
        cycles=40, x0=x0, metric=metric, eta=0.05, p=1.0, b=8, b_prime=8, keep_iterates=True
    )
    out_sccd, tr_sccd = vrccd_run(prob, Zero(), run, RngBundle.from_seed(93))
    out_sgd, tr_sgd = page_run(prob, Zero(), run, RngBundle.from_seed(93))
    same = _same_trajectories(tr_sccd, tr_sgd) and np.array_equal(out_sccd, out_sgd)
    ok = ok and same
    lines.append(f"m=1 cyclic-SGD == SGD under shared seed: {'bitwise equal' if same else 'MISMATCH'}")

    # full-batch recursive baseline == proximal gradient descent
    run = replace(run, cycles=25, b=prob.n, b_prime=prob.n)
    _, tr_page = page_run(prob, Zero(), run, RngBundle.from_seed(94))
    _, tr_pgd = prox_gd_run(prob, Zero(), run)
    same = _same_trajectories(tr_page, tr_pgd)
    ok = ok and same
    lines.append(f"p=1, b=n recursive baseline == proximal gradient: {'bitwise equal' if same else 'MISMATCH'}")

    return SuiteResult("equivalences", ok, lines)


# --------------------------------------------------------------------------
# 10. gradient and prox correctness against independent oracles
# --------------------------------------------------------------------------


def _central_diff_block(value_fn, x, cols, h=1e-6):
    fd = np.empty(cols.stop - cols.start)
    for t, i in enumerate(range(cols.start, cols.stop)):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd[t] = (value_fn(xp) - value_fn(xm)) / (2.0 * h)
    return fd


def suite_gradient_prox_oracles() -> SuiteResult:
    ok = True
    lines = []

    part = BlockPartition.even(12, 4)
    quad = problems.generate_quadratic(10_100, n=16, d=12, partition=part, condition_number=5.0)
    sig = problems.generate_classification(10_200, n=16, d=12, partition=part)
    rng = np.random.default_rng(10_300)
    worst_fd = 0.0
    for t in range(1000):
        prob = quad if t % 2 == 0 else sig
        x = rng.standard_normal(prob.dim)
        j = int(rng.integers(part.num_blocks))
        cols = part.block_slice(j)
        if t % 4 < 2:
            i = int(rng.integers(prob.n))
            analytic = prob.component_block_grads(j, x)[i]
            fd = _central_diff_block(lambda z: prob.component_value(i, z), x, cols)
        else:
            analytic = prob.block_grad(j, x)
            fd = _central_diff_block(prob.value, x, cols)
        err = float(np.linalg.norm(fd - analytic)) / max(1.0, float(np.linalg.norm(analytic)))
        worst_fd = max(worst_fd, err)
    ok = ok and worst_fd <= 1e-6
    lines.append(f"1000 finite-difference probes, worst rel err={worst_fd:.3e} (tol 1e-6)")

    # scalar-block prox against a two-stage grid search (coarse 1e-3 to
    # bracket the convex subproblem, fine 1e-6 around the coarse argmin)
    rng = np.random.default_rng(10_400)
    part1 = BlockPartition((1,))
    worst_prox = 0.0
    for t in range(1000):
        kind = ("zero", "l1", "box")[t % 3]
        center = float(rng.uniform(-2, 2))
        linear = float(rng.uniform(-2, 2))
        eta = float(rng.uniform(0.1, 2.0))
        lam = float(rng.uniform(0.5, 3.0))
        if kind == "zero":
            reg = Zero()
        elif kind == "l1":
            reg = L1(float(rng.uniform(0.1, 2.0)))
        else:
            lo = float(rng.uniform(-1.5, 0.0))
            reg = Box(lo, lo + float(rng.uniform(0.5, 2.0)))
        analytic = float(
            metric_prox(reg, np.array([center]), np.array([linear]), eta, np.array([lam]))[0]
        )

        zero_step = center - eta * linear / lam
        if kind == "box":
            lo_b, hi_b = reg.lo, reg.hi
        else:
            # soft thresholding shrinks toward zero, so the bracket must
            # cover the origin as well as the unregularized step
            lo_b = min(center, zero_step, 0.0) - 1.0
            hi_b = max(center, zero_step, 0.0) + 1.0

        def objective(z):
            val = linear * z + lam * (z - center) ** 2 / (2.0 * eta)
            if kind == "l1":
                val = val + reg.weight * np.abs(z)
            return val

        coarse = np.arange(lo_b, hi_b + 1e-3, 1e-3)
        z0 = coarse[int(np.argmin(objective(coarse)))]
        fine = np.arange(max(lo_b, z0 - 2e-3), min(hi_b, z0 + 2e-3) + 1e-6, 1e-6)
        z_star = fine[int(np.argmin(objective(fine)))]
        worst_prox = max(worst_prox, abs(z_star - analytic))
    ok = ok and worst_prox <= 1e-5
    lines.append(f"1000 scalar prox grid searches, worst err={worst_prox:.3e} (tol 1e-5)")

    return SuiteResult("gradient-prox-oracles", ok, lines)


SUITES = {
    "batch-variance-identity": suite_batch_variance_identity,
    "cyclic-descent": suite_cyclic_descent,
    "stationarity-rate": suite_stationarity_rate,
    "pl-linear-rate": suite_pl_linear_rate,
    "vr-pathwise": suite_vr_pathwise,
    "vr-rate": suite_vr_rate,
    "vr-potential": suite_vr_potential,
    "work-accounting": suite_work_accounting,
    "equivalences": suite_equivalences,
    "gradient-prox-oracles": suite_gradient_prox_oracles,
}

# wall-clock budgets (seconds) stated by the acceptance gate; None = unbudgeted
SUITE_BUDGETS = {
    "batch-variance-identity": 10,
    "cyclic-descent": 60,
    "stationarity-rate": 120,
    "pl-linear-rate": 120,
    "vr-pathwise": 300,
    "vr-rate": 600,
    "vr-potential": 600,
    "work-accounting": 60,
    "equivalences": None,
    "gradient-prox-oracles": None,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    t0 = time.perf_counter()
    result = SUITES[name]()
    result.elapsed_s = time.perf_counter() - t0
    return result
