"""Executable verifiers for every computable inequality the analysis provides.

Deterministic (pathwise) bounds are hard assertions: each row must satisfy
lhs <= rhs up to a float allowance of 1e-9 relative to max(1, |rhs|).
Expectation-level bounds go through ``_expectation``: in the noise-free
cases they hold pathwise, so every seed is asserted (hard); otherwise they
are Monte Carlo: the seed mean must stay below the bound plus a one-sided
99% normal-approximation confidence allowance; a failure there is soft and
the harness escalates to 4x seeds before the final verdict.

Every report holds its rows as columns, k, lhs and rhs (slack is rhs - lhs),
built from the trace columns in whole-array passes that round each row as a
per-row loop would, and judged in one pass. It also records conditionality
tags (e.g. a supplied or start-point variance constant, a best-observed
reference minimum) so a CSV line can reconstruct the exact claim that was
tested. ``rows`` and ``worst`` hand out ``BoundRow`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .algorithms import RunTrace
from .sampling import variance_factor

# bit-identical to scipy.stats.norm.ppf(0.99), without importing scipy.stats
ONE_SIDED_99 = NormalDist().inv_cdf(0.99)

HARD = "hard"
MONTE_CARLO = "monte_carlo"

_REL_TOL = 1e-9


@dataclass(frozen=True)
class BoundRow:
    k: int | None  # iteration the row refers to; None for aggregate rows
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class BoundReport:
    """Outcome of one bound check over one run family, held as columns: row
    i claims ``lhs[i] <= rhs[i]`` at iteration ``k[i]``.

    The per-row verdicts and the worst row are computed together, in one
    pass over the columns, at the first read; the columns are not changed
    after it.
    """

    name: str
    kind: str  # hard (deterministic) or monte_carlo (soft)
    k: tuple  # iteration of each row; None for aggregate rows
    lhs: np.ndarray
    rhs: np.ndarray
    conditional: tuple[str, ...] = ()
    low_power: bool = False
    advisory: bool = False  # reported but never gates the exit status

    def __post_init__(self):
        self.k = tuple(self.k)
        self.lhs = np.asarray(self.lhs, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.conditional = tuple(self.conditional)

    # inf - inf and an overflowing margin are NaN and inf, as Python floats give them
    @property
    @np.errstate(invalid="ignore", over="ignore")
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @cached_property
    @np.errstate(invalid="ignore", over="ignore")
    def _judged(self) -> tuple[np.ndarray, int | None]:
        """(whether each row holds, the index of the worst row). A row holds
        iff its slack plus the float allowance is >= 0, which a NaN (from a
        NaN side or inf - inf) never is."""
        margins = self.slack + _REL_TOL * np.fmax(1.0, np.abs(self.rhs))
        # a NaN margin ranks lowest, so a NaN row is never hidden behind a passing one
        ranks = np.where(np.isnan(margins), -np.inf, margins)
        return margins >= 0.0, int(np.argmin(ranks)) if ranks.size else None

    @property
    def verdicts(self) -> tuple[bool, ...]:
        """Whether each row holds, in row order."""
        return tuple(self._judged[0].tolist())

    @property
    def passed(self) -> bool:
        return bool(self._judged[0].all())

    @property
    def rows(self) -> tuple[BoundRow, ...]:
        return tuple(map(BoundRow, self.k, self.lhs.tolist(), self.rhs.tolist()))

    @property
    def worst(self) -> BoundRow | None:
        i = self._judged[1]
        return None if i is None else BoundRow(self.k[i], self.lhs.item(i), self.rhs.item(i))

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        worst = self.worst
        extra = ""
        if worst is not None:
            extra = f" worst: k={worst.k} lhs={worst.lhs:.6g} rhs={worst.rhs:.6g}"
        cond = f" conditional on {', '.join(self.conditional)}" if self.conditional else ""
        power = " [low-power]" if self.low_power else ""
        return f"{verdict} {self.name} ({self.kind}, {len(self.k)} rows){extra}{cond}{power}"


def mean_with_allowance(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its one-sided 99% normal allowance."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, ONE_SIDED_99 * float(values.std(ddof=1)) / math.sqrt(values.size)


# --------------------------------------------------------------------------
# deterministic cyclic-method checks
# --------------------------------------------------------------------------


def check_cyclic_descent(trace: RunTrace, conditional=()) -> BoundReport:
    """Per-cycle objective decrease by at least half the squared metric step."""
    obj = trace.array("obj")
    rhs = obj[:-1] - 0.5 * trace.array("step_sq", skip_first=True)
    return BoundReport("cyclic-descent", HARD, trace.k[1:], obj[1:], rhs, conditional)


def check_step_telescope(trace: RunTrace, delta0: float, conditional=()) -> BoundReport:
    """Accumulated squared metric steps stay below twice the initial gap."""
    # the k = 0 row's v_0 = 0.0 starts the running sum, which adds in cycle order
    running = np.cumsum(trace.array("step_sq"))[1:]
    return BoundReport("step-telescope", HARD, trace.k[1:], running,
                       np.full(trace.cycles, 2.0 * delta0), conditional)


def check_grad_vs_step(trace: RunTrace, lip_trailing: float, conditional=()) -> BoundReport:
    """Stationarity against the squared step: s_k <= 2 (LT + 1) v_k."""
    factor = 2.0 * (lip_trailing + 1.0)
    lhs = trace.array("stat_sq", skip_first=True)
    rhs = factor * trace.array("step_sq", skip_first=True)
    return BoundReport("grad-vs-step", HARD, trace.k[1:], lhs, rhs, conditional)


def check_min_stationarity_rate(
    trace: RunTrace, lip_trailing: float, delta0: float, conditional=()
) -> BoundReport:
    """min over the first K cycles of s_k <= 4 (LT + 1) delta0 / K, every prefix."""
    stat = trace.array("stat_sq")
    # the running minimum from inf; fmin, like min, passes over a NaN s_k
    # (each s_k is a sum of squares from 0.0, so never -0.0, where they differ)
    stat[0] = math.inf
    best = np.fmin.accumulate(stat)[1:]
    rhs = 4.0 * (lip_trailing + 1.0) * delta0 / np.array(trace.k[1:])
    return BoundReport("stationarity-rate", HARD, trace.k[1:], best, rhs, conditional)


def check_pl_envelope(
    gaps: np.ndarray, lip_trailing: float, mu: float, conditional=()
) -> BoundReport:
    """Geometric decay of the optimality gap under gradient dominance.

    ``gaps[k]`` is F(x_k) - F* for k = 0..K.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    gaps = np.asarray(gaps, dtype=float)
    ratio = 2.0 * (lip_trailing + 1.0) / (2.0 * (lip_trailing + 1.0) + mu)
    # Python's float pow, not np.power, whose SIMD loop may round otherwise
    ks = range(1, gaps.shape[0])
    rhs = [float(ratio**k) * float(gaps[0]) for k in ks]
    return BoundReport("pl-envelope", HARD, ks, gaps[1:], rhs, conditional)


# --------------------------------------------------------------------------
# variance-reduced pathwise checks (need anchor-error diagnostics)
# --------------------------------------------------------------------------


def _require_diagnostics(trace: RunTrace, what: str):
    if None in trace.est_err_sq[1:] or None in trace.mid_resid_sq[1:]:
        raise ValueError(f"{what} needs a trace recorded with anchor-error diagnostics on")


def check_vr_descent(trace: RunTrace, eta: float, conditional=()) -> BoundReport:
    """Pathwise descent of the variance-reduced cycle:
    F_k <= F_{k-1} - (1-eta)/(2 eta) v_k + (eta/2) u_k - (eta/2) T_k,
    with T_k the intermediate-gradient residual recorded by diagnostics."""
    _require_diagnostics(trace, "the variance-reduced descent check")
    obj = trace.array("obj")
    # the scalar factors first, then the terms left to right, as one row rounds them
    rhs = (
        obj[:-1]
        - (1.0 - eta) / (2.0 * eta) * trace.array("step_sq", skip_first=True)
        + 0.5 * eta * trace.array("est_err_sq", skip_first=True)
        - 0.5 * eta * trace.array("mid_resid_sq", skip_first=True)
    )
    return BoundReport("vr-descent", HARD, trace.k[1:], obj[1:], rhs, conditional)


def check_vr_grad_vs_step(trace: RunTrace, lip_trailing: float, conditional=()) -> BoundReport:
    """Pathwise s_k <= 2 LT v_k + 2 T_k for the variance-reduced cycle."""
    _require_diagnostics(trace, "the variance-reduced gradient check")
    rhs = (2.0 * lip_trailing * trace.array("step_sq", skip_first=True)
           + 2.0 * trace.array("mid_resid_sq", skip_first=True))
    lhs = trace.array("stat_sq", skip_first=True)
    return BoundReport("vr-grad-vs-step", HARD, trace.k[1:], lhs, rhs, conditional)


# --------------------------------------------------------------------------
# expectation-level checks
# --------------------------------------------------------------------------


def _cycles(traces: list[RunTrace]) -> int:
    """The cycle count every trace of a family shares."""
    if not traces:
        raise ValueError("need at least one trace")
    cycles = traces[0].cycles
    if any(t.cycles != cycles for t in traces):
        raise ValueError("all traces must share the cycle count")
    return cycles


def _expectation(name, ks, samples, bounds, exact, conditional) -> BoundReport:
    """The verdict rule of the expectation-level checks.

    ``samples`` is (seeds, rows), one column per row ``(ks[i], bounds[i])``.
    In the noise-free case (``exact``) the inequality holds pathwise, so the
    report is hard and each row's lhs is the max over seeds: every seed is
    asserted. Otherwise the report is Monte Carlo: each row's seed mean
    against the bound plus the one-sided 99% allowance, low-power under 30
    seeds.
    """
    samples = np.asarray(samples, dtype=float)
    if exact:
        return BoundReport(name, HARD, ks, samples.max(axis=0), bounds, conditional)
    # one 1-D mean per column: an axis-0 mean may add the seeds in another order
    means, allowances = zip(*map(mean_with_allowance, samples.T))
    return BoundReport(name, MONTE_CARLO, ks, means, np.add(bounds, allowances), conditional,
                       low_power=samples.shape[0] < 30)


def check_vr_rate(
    traces: list[RunTrace],
    eta: float,
    p: float,
    b: int,
    b_prime: int,
    n,
    sigma_sq: float,
    delta0: float,
    conditional=(),
) -> BoundReport:
    """Stationarity of the uniformly drawn output iterate against
    4 delta0 / (eta K) plus the two variance terms.

    The sample of a trace is s at its output iterate. At p = 1 with the full
    batch the trajectory carries no sampling noise, and the sample is s
    averaged over the trace's cycles, which is the output expectation.
    """
    cycles = _cycles(traces)
    vf = variance_factor(n, b)
    mid_term = 2.0 * (1.0 - p) * sigma_sq * vf / (p * cycles) if p > 0 else math.inf
    bound = 4.0 * delta0 / (eta * cycles) + mid_term + 4.0 * sigma_sq * vf
    exact = p == 1.0 and b == n
    if exact:
        samples = [[t.array("stat_sq", skip_first=True).mean()] for t in traces]
    else:
        samples = [[t.stat_sq[t.meta["output_index"]]] for t in traces]
    return _expectation("vr-rate", [cycles], samples, [bound], exact, conditional)


def potential_values(trace: RunTrace, eta: float, p: float, b_prime: int, lip_trailing: float):
    """Per-iteration potential F_k + cu u_k + cv v_k and its descent deficit
    D_k = (eta/4) s_k + Phi_k - Phi_{k-1}.

    A run that draws no anchor (p = 1) records no u_0; its weight cu is then
    0, so it reads as 0."""
    if not 0.0 < p <= 1.0:
        raise ValueError("the potential needs p in (0, 1]")
    _require_diagnostics(trace, "the potential check")
    cu = (1.0 - p) * eta / (2.0 * p)
    cv = (1.0 - p) * lip_trailing * eta / (p * b_prime)
    u = trace.array("est_err_sq")
    if trace.est_err_sq[0] is None:
        if cu != 0.0:
            raise ValueError("the potential check needs the initial anchor error (k = 0 row)")
        u[0] = 0.0
    # the scalar factors first, then the terms left to right, as one row rounds them
    phi = trace.array("obj") + cu * u + cv * trace.array("step_sq")
    deficits = 0.25 * eta * trace.array("stat_sq", skip_first=True) + phi[1:] - phi[:-1]
    return phi, deficits


def check_vr_potential(
    traces: list[RunTrace],
    eta: float,
    p: float,
    b: int,
    b_prime: int,
    n,
    lip_trailing: float,
    sigma_sq: float,
    conditional=(),
) -> BoundReport:
    """Per-iteration potential descent:
    (eta/4) s_k + Phi_k <= Phi_{k-1} + sigma^2 eta (n-b)/(b(n-1)).

    The sample of a trace is its per-iteration deficit. With exact anchors
    (b = b' = n, so the noise term is zero; a stream never has them) every
    iteration of every trace is asserted.
    """
    cycles = _cycles(traces)
    noise = sigma_sq * eta * variance_factor(n, b)
    deficits = [potential_values(t, eta, p, b_prime, lip_trailing)[1] for t in traces]
    exact = b == n and b_prime == n
    ks = range(1, cycles + 1)
    return _expectation("vr-potential", ks, deficits, [noise] * cycles, exact, conditional)


def check_vr_pl_rate(
    final_gaps: np.ndarray,
    eta: float,
    cycles: int,
    p: float,
    b: int,
    b_prime: int,
    n,
    mu: float,
    sigma_sq: float,
    delta0: float,
    conditional=(),
) -> BoundReport:
    """Expected final optimality gap under gradient dominance:
    (1 + eta mu / 2)^{-K} (delta0 + sigma^2 eta (1-p) vf / p) + 4 sigma^2 vf / mu.

    The samples are the final gaps; at p = 1 with the full batch every one
    is asserted.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    vf = variance_factor(n, b)
    decay = (1.0 + 0.5 * eta * mu) ** (-cycles)
    inflated = delta0 + (sigma_sq * eta * (1.0 - p) * vf / p if p > 0 else math.inf)
    bound = decay * inflated + 4.0 * sigma_sq * vf / mu
    samples = np.asarray(final_gaps, dtype=float)[:, None]
    return _expectation("vr-pl-rate", [cycles], samples, [bound], p == 1.0 and b == n, conditional)


def check_work_accounting(
    traces: list[RunTrace], p: float, b: int, b_prime: int, dim: int, conditional=()
) -> BoundReport:
    """Mean per-cycle d-weighted gradient work against (p b + (1-p) b') d.

    Exact (zero tolerance, every increment asserted) for p in {0, 1};
    otherwise the Monte Carlo mean must land within 2% of the target.
    """
    target = (p * b + (1.0 - p) * b_prime) * dim
    increments = np.concatenate([t.work_increments() for t in traces])
    if increments.size == 0:
        raise ValueError("traces carry no cycles")
    if p in (0.0, 1.0):
        deviations = np.abs(increments - target)[:, None]
        return _expectation("work-accounting", [None], deviations, [0.0], True, conditional)
    dev = abs(float(increments.mean()) - target)
    return BoundReport(
        "work-accounting",
        MONTE_CARLO,
        [None],
        [dev],
        [0.02 * target],
        conditional,
        low_power=increments.size < 10_000,
    )
