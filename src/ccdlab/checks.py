"""Executable verifiers for every computable inequality the analysis provides.

Deterministic (pathwise) bounds are hard assertions: each row must satisfy
lhs <= rhs up to a 1e-9-relative float allowance. Expectation-level bounds
are Monte Carlo: the seed mean must stay below the bound plus a one-sided
99% normal-approximation confidence allowance; a failure there is soft and
the harness escalates to 4x seeds before the final verdict.

Every report records per-row (k, lhs, rhs, slack) plus conditionality tags
(e.g. supplied smoothness constants, estimated variance constants) so a CSV
line can reconstruct the exact claim that was tested.
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
    """Outcome of one bound check over one run family.

    ``rows`` is stored as a tuple, so the per-row verdicts, computed at the
    first read, hold for the life of the report.
    """

    name: str
    kind: str  # hard (deterministic) or monte_carlo (soft)
    rows: tuple[BoundRow, ...] = ()
    conditional: tuple[str, ...] = ()
    low_power: bool = False
    rel_tol: float = _REL_TOL
    advisory: bool = False  # reported but never gates the exit status

    def __post_init__(self):
        self.rows = tuple(self.rows)

    def row_passed(self, row: BoundRow) -> bool:
        if math.isnan(row.lhs) or math.isnan(row.rhs):
            return False
        return row.slack >= -self.rel_tol * max(1.0, abs(row.rhs))

    @cached_property
    def verdicts(self) -> tuple[bool, ...]:
        """``row_passed`` of each row, in row order."""
        return tuple(self.row_passed(r) for r in self.rows)

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    @property
    def worst(self) -> BoundRow | None:
        if not self.rows:
            return None
        return min(self.rows, key=lambda r: r.slack + self.rel_tol * max(1.0, abs(r.rhs)))

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        worst = self.worst
        extra = ""
        if worst is not None:
            extra = f" worst: k={worst.k} lhs={worst.lhs:.6g} rhs={worst.rhs:.6g}"
        cond = f" conditional on {', '.join(self.conditional)}" if self.conditional else ""
        power = " [low-power]" if self.low_power else ""
        return f"{verdict} {self.name} ({self.kind}, {len(self.rows)} rows){extra}{cond}{power}"

    def csv_rows(self):
        for r, ok in zip(self.rows, self.verdicts):
            yield (
                self.name,
                "" if r.k is None else r.k,
                r.lhs,
                r.rhs,
                r.slack,
                "pass" if ok else "fail",
            )


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
    rows = []
    for i in range(1, len(trace.k)):
        rows.append(BoundRow(trace.k[i], trace.obj[i], trace.obj[i - 1] - 0.5 * trace.step_sq[i]))
    return BoundReport("cyclic-descent", HARD, rows, conditional=tuple(conditional))


def check_step_telescope(trace: RunTrace, delta0: float, conditional=()) -> BoundReport:
    """Accumulated squared metric steps stay below twice the initial gap."""
    running = 0.0
    rows = []
    for i in range(1, len(trace.k)):
        running += trace.step_sq[i]
        rows.append(BoundRow(trace.k[i], running, 2.0 * delta0))
    return BoundReport("step-telescope", HARD, rows, conditional=tuple(conditional))


def check_grad_vs_step(trace: RunTrace, lip_trailing: float, conditional=()) -> BoundReport:
    """Stationarity against the squared step: s_k <= 2 (LT + 1) v_k."""
    factor = 2.0 * (lip_trailing + 1.0)
    rows = [
        BoundRow(trace.k[i], trace.stat_sq[i], factor * trace.step_sq[i])
        for i in range(1, len(trace.k))
    ]
    return BoundReport("grad-vs-step", HARD, rows, conditional=tuple(conditional))


def check_min_stationarity_rate(
    trace: RunTrace, lip_trailing: float, delta0: float, conditional=()
) -> BoundReport:
    """min over the first K cycles of s_k <= 4 (LT + 1) delta0 / K, every prefix."""
    rows = []
    best = math.inf
    for i in range(1, len(trace.k)):
        best = min(best, trace.stat_sq[i])
        rows.append(BoundRow(trace.k[i], best, 4.0 * (lip_trailing + 1.0) * delta0 / trace.k[i]))
    return BoundReport("stationarity-rate", HARD, rows, conditional=tuple(conditional))


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
    rows = [
        BoundRow(k, float(gaps[k]), float(ratio**k) * float(gaps[0]))
        for k in range(1, gaps.shape[0])
    ]
    return BoundReport("pl-envelope", HARD, rows, conditional=tuple(conditional))


# --------------------------------------------------------------------------
# variance-reduced pathwise checks (need anchor-error diagnostics)
# --------------------------------------------------------------------------


def _require_diagnostics(trace: RunTrace, what: str):
    if any(trace.est_err_sq[i] is None or trace.mid_resid_sq[i] is None for i in range(1, len(trace.k))):
        raise ValueError(f"{what} needs a trace recorded with anchor-error diagnostics on")


def check_vr_descent(trace: RunTrace, eta: float, conditional=()) -> BoundReport:
    """Pathwise descent of the variance-reduced cycle:
    F_k <= F_{k-1} - (1-eta)/(2 eta) v_k + (eta/2) u_k - (eta/2) T_k,
    with T_k the intermediate-gradient residual recorded by diagnostics."""
    _require_diagnostics(trace, "the variance-reduced descent check")
    rows = []
    for i in range(1, len(trace.k)):
        rhs = (
            trace.obj[i - 1]
            - (1.0 - eta) / (2.0 * eta) * trace.step_sq[i]
            + 0.5 * eta * trace.est_err_sq[i]
            - 0.5 * eta * trace.mid_resid_sq[i]
        )
        rows.append(BoundRow(trace.k[i], trace.obj[i], rhs))
    return BoundReport("vr-descent", HARD, rows, conditional=tuple(conditional))


def check_vr_grad_vs_step(trace: RunTrace, lip_trailing: float, conditional=()) -> BoundReport:
    """Pathwise s_k <= 2 LT v_k + 2 T_k for the variance-reduced cycle."""
    _require_diagnostics(trace, "the variance-reduced gradient check")
    rows = []
    for i in range(1, len(trace.k)):
        rhs = 2.0 * lip_trailing * trace.step_sq[i] + 2.0 * trace.mid_resid_sq[i]
        rows.append(BoundRow(trace.k[i], trace.stat_sq[i], rhs))
    return BoundReport("vr-grad-vs-step", HARD, rows, conditional=tuple(conditional))


# --------------------------------------------------------------------------
# expectation-level checks
# --------------------------------------------------------------------------


def check_vr_rate(
    traces: list[RunTrace],
    eta: float,
    p: float,
    b: int,
    b_prime: int,
    n,
    sigma_sq: float,
    delta0: float,
    deterministic: bool = False,
    conditional=(),
) -> BoundReport:
    """Stationarity of the uniformly drawn output iterate against
    4 delta0 / (eta K) plus the two variance terms.

    Monte Carlo mode compares the seed mean of s at each run's output iterate
    to the bound plus a one-sided 99% allowance. Deterministic mode (p = 1
    with the full batch: the trajectory carries no sampling noise) averages
    s over the cycles of a single trace, which is the output expectation.
    """
    if not traces:
        raise ValueError("need at least one trace")
    cycles = traces[0].cycles
    if any(t.cycles != cycles for t in traces):
        raise ValueError("all traces must share the cycle count")
    vf = variance_factor(n, b)
    mid_term = 2.0 * (1.0 - p) * sigma_sq * vf / (p * cycles) if p > 0 else math.inf
    bound = 4.0 * delta0 / (eta * cycles) + mid_term + 4.0 * sigma_sq * vf

    if deterministic:
        stat = traces[0].array("stat_sq", skip_first=True)
        return BoundReport(
            "vr-rate",
            HARD,
            [BoundRow(cycles, float(stat.mean()), bound)],
            conditional=tuple(conditional),
        )

    outputs = []
    for t in traces:
        k_out = t.meta["output_index"]
        outputs.append(t.stat_sq[k_out])
    mean, allowance = mean_with_allowance(np.array(outputs))
    report = BoundReport(
        "vr-rate",
        MONTE_CARLO,
        [BoundRow(cycles, mean, bound + allowance)],
        conditional=tuple(conditional),
        low_power=len(traces) < 30,
    )
    return report


def potential_values(trace: RunTrace, eta: float, p: float, b_prime: int, lip_trailing: float):
    """Per-iteration potential F_k + cu u_k + cv v_k and its descent deficit
    D_k = (eta/4) s_k + Phi_k - Phi_{k-1}."""
    if not 0.0 < p <= 1.0:
        raise ValueError("the potential needs p in (0, 1]")
    _require_diagnostics(trace, "the potential check")
    cu = (1.0 - p) * eta / (2.0 * p)
    cv = (1.0 - p) * lip_trailing * eta / (p * b_prime)
    if trace.est_err_sq[0] is None:
        raise ValueError("the potential check needs the initial anchor error (k = 0 row)")
    phi = [trace.obj[0] + cu * trace.est_err_sq[0] + cv * trace.step_sq[0]]
    deficits = []
    for i in range(1, len(trace.k)):
        phi.append(trace.obj[i] + cu * trace.est_err_sq[i] + cv * trace.step_sq[i])
        deficits.append(0.25 * eta * trace.stat_sq[i] + phi[i] - phi[i - 1])
    return np.array(phi), np.array(deficits)


def check_vr_potential(
    traces: list[RunTrace],
    eta: float,
    p: float,
    b: int,
    b_prime: int,
    n,
    lip_trailing: float,
    sigma_sq: float,
    pathwise: bool = False,
    conditional=(),
) -> BoundReport:
    """Per-iteration potential descent:
    (eta/4) s_k + Phi_k <= Phi_{k-1} + sigma^2 eta (n-b)/(b(n-1)).

    pathwise=True asserts every iteration of every trace (valid when the
    anchors are exact, i.e. b = b' = n, so the noise term is zero); otherwise
    the seed mean of the deficit is tested per iteration with a one-sided
    99% allowance.
    """
    if not traces:
        raise ValueError("need at least one trace")
    cycles = traces[0].cycles
    if any(t.cycles != cycles for t in traces):
        raise ValueError("all traces must share the cycle count")
    noise = sigma_sq * eta * variance_factor(n, b)
    deficits = np.stack(
        [potential_values(t, eta, p, b_prime, lip_trailing)[1] for t in traces]
    )  # (seeds, cycles)

    rows = []
    if pathwise:
        for i in range(cycles):
            worst = float(deficits[:, i].max())
            rows.append(BoundRow(i + 1, worst, noise))
        return BoundReport("vr-potential", HARD, rows, conditional=tuple(conditional))

    for i in range(cycles):
        mean, allowance = mean_with_allowance(deficits[:, i])
        rows.append(BoundRow(i + 1, mean, noise + allowance))
    return BoundReport(
        "vr-potential",
        MONTE_CARLO,
        rows,
        conditional=tuple(conditional),
        low_power=len(traces) < 30,
    )


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
    deterministic: bool = False,
    conditional=(),
) -> BoundReport:
    """Expected final optimality gap under gradient dominance:
    (1 + eta mu / 2)^{-K} (delta0 + sigma^2 eta (1-p) vf / p) + 4 sigma^2 vf / mu.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    vf = variance_factor(n, b)
    decay = (1.0 + 0.5 * eta * mu) ** (-cycles)
    inflated = delta0 + (sigma_sq * eta * (1.0 - p) * vf / p if p > 0 else math.inf)
    bound = decay * inflated + 4.0 * sigma_sq * vf / mu
    gaps = np.asarray(final_gaps, dtype=float)
    if deterministic:
        return BoundReport(
            "vr-pl-rate",
            HARD,
            [BoundRow(cycles, float(gaps[0]), bound)],
            conditional=tuple(conditional),
        )
    mean, allowance = mean_with_allowance(gaps)
    return BoundReport(
        "vr-pl-rate",
        MONTE_CARLO,
        [BoundRow(cycles, mean, bound + allowance)],
        conditional=tuple(conditional),
        low_power=gaps.size < 30,
    )


def check_work_accounting(
    traces: list[RunTrace], p: float, b: int, b_prime: int, dim: int, conditional=()
) -> BoundReport:
    """Mean per-cycle d-weighted gradient work against (p b + (1-p) b') d.

    Exact (zero tolerance) for p in {0, 1}; otherwise the Monte Carlo mean
    must land within 2% of the target.
    """
    target = (p * b + (1.0 - p) * b_prime) * dim
    increments = np.concatenate([t.work_increments() for t in traces])
    if increments.size == 0:
        raise ValueError("traces carry no cycles")
    if p in (0.0, 1.0):
        dev = float(np.max(np.abs(increments - target)))
        return BoundReport(
            "work-accounting",
            HARD,
            [BoundRow(None, dev, 0.0)],
            conditional=tuple(conditional),
        )
    dev = abs(float(increments.mean()) - target)
    return BoundReport(
        "work-accounting",
        MONTE_CARLO,
        [BoundRow(None, dev, 0.02 * target)],
        conditional=tuple(conditional),
        low_power=increments.size < 10_000,
    )


def check_batch_variance_identity(lhs: float, rhs: float) -> BoundReport:
    """Subset-enumeration identity: |lhs - rhs| within 1e-10 relative."""
    err = abs(lhs - rhs)
    return BoundReport(
        "batch-variance-identity",
        HARD,
        [BoundRow(None, err, 1e-10 * max(1.0, abs(rhs)))],
        rel_tol=0.0,
    )
