"""Smoothness machinery: spectral norms, cycle coupling constants, step-size
plans, and backtracking calibration of per-block metric scales.

Two aggregate constants drive every rate in the toolkit. Both are spectral
norms of metric-normalized sums of masked coupling matrices:

* ``lip_trailing``: masks keep each matrix's trailing blocks (the cut and
  beyond), so the constant measures coupling into coordinates not yet
  updated within a cycle;
* ``lip_leading``: masks keep the leading blocks only (coupling into
  coordinates already updated this cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    MASK_LEADING,
    MASK_TRAILING,
    BlockPartition,
    DiagonalMetric,
    materialize_mask,
    symmetrize,
)
from .regularizers import Regularizer, Zero, metric_prox


class SpectralNormError(RuntimeError):
    """Power iteration ran out of iterations; carries the best estimate."""

    def __init__(self, estimate: float, iterations: int):
        super().__init__(
            f"power iteration did not converge within {iterations} iterations; "
            f"best estimate {estimate:.17g}"
        )
        self.estimate = estimate
        self.iterations = iterations


def spectral_norm(M: np.ndarray, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic: starts from the all-ones direction and, on stagnation
    (start orthogonal to the leading eigenspace), adds a fixed-seed
    perturbation. The dense eigendecomposition serves as the test oracle
    only.
    """
    M = symmetrize(M)
    d = M.shape[0]
    if d == 0:
        return 0.0
    v = np.ones(d) / math.sqrt(d)
    est = 0.0
    perturbed = False
    for it in range(max_iter):
        w = M @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            if perturbed:
                return 0.0
            # ones-vector may sit in the kernel; retry once off a fixed seed
            v = np.random.Generator(np.random.PCG64(0x5EED)).standard_normal(d)
            v /= np.linalg.norm(v)
            perturbed = True
            continue
        v_new = w / nw
        new_est = float(v_new @ (M @ v_new))
        if it > 0 and abs(new_est - est) <= tol * max(abs(new_est), 1e-300):
            return new_est
        est = new_est
        v = v_new
    raise SpectralNormError(est, max_iter)


def masked_smoothness_constants(
    q_list: list[np.ndarray],
    metric: DiagonalMetric,
    partition: BlockPartition,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """(lip_trailing, lip_leading) for a per-block list of coupling matrices."""
    if len(q_list) != partition.num_blocks:
        raise ValueError("need one coupling matrix per block")
    d = partition.dim
    sum_trailing = np.zeros((d, d))
    sum_leading = np.zeros((d, d))
    for j, q in enumerate(q_list):
        sum_trailing += materialize_mask(q, MASK_TRAILING, j, partition)
        sum_leading += materialize_mask(q, MASK_LEADING, j, partition)
    scale = np.sqrt(metric.inv_entries)
    norm_trailing = spectral_norm(scale[:, None] * sum_trailing * scale[None, :], tol=tol)
    norm_leading = spectral_norm(scale[:, None] * sum_leading * scale[None, :], tol=tol)
    return norm_trailing, norm_leading


@dataclass(frozen=True, eq=False)
class SmoothnessProfile:
    """Metric plus the two aggregate coupling constants.

    ``supplied`` marks constants that were configured rather than computed
    from coupling matrices; bound checks built on them are conditional.
    """

    metric: DiagonalMetric
    lip_trailing: float
    lip_leading: float
    q_list: list[np.ndarray] | None = None
    supplied: bool = False

    def __post_init__(self):
        if self.lip_trailing < 0 or self.lip_leading < 0:
            raise ValueError("coupling constants are nonnegative")

    @classmethod
    def from_coupling_matrices(
        cls, metric: DiagonalMetric, q_list: list[np.ndarray]
    ) -> "SmoothnessProfile":
        lt, ll = masked_smoothness_constants(q_list, metric, metric.partition)
        return cls(metric=metric, lip_trailing=lt, lip_leading=ll, q_list=list(q_list))

    @classmethod
    def from_constants(
        cls, metric: DiagonalMetric, lip_trailing: float, lip_leading: float
    ) -> "SmoothnessProfile":
        return cls(
            metric=metric,
            lip_trailing=float(lip_trailing),
            lip_leading=float(lip_leading),
            supplied=True,
        )


def admissible_eta(c0: float) -> float:
    """Largest eta with c0*eta^2 + eta - 1 <= 0, evaluated cancellation-free.

    Nudged down by ulps if rounding lands the quadratic slightly positive,
    so the returned value satisfies the inequality in float arithmetic too.
    """
    if c0 < 0:
        raise ValueError("c0 must be nonnegative")
    if c0 == 0.0:
        return 1.0
    eta = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * c0))
    while c0 * eta * eta + eta - 1.0 > 0.0:
        eta = math.nextafter(eta, 0.0)
    return eta


MODE_RATE = "rate"
MODE_PL = "pl"


@dataclass(frozen=True)
class StepSizePlan:
    """Maximal admissible step size and the curvature coefficient behind it."""

    eta: float
    c0: float
    mode: str
    p: float
    b: int
    b_prime: int
    n: object  # int or None/inf for streaming
    mu: float | None = None


def step_size(
    profile: SmoothnessProfile,
    p: float,
    b: int,
    b_prime: int,
    n,
    mode: str = MODE_RATE,
    mu: float | None = None,
) -> StepSizePlan:
    """Step-size plan for the variance-reduced cyclic method.

    mode="rate" bounds eta by the root of c0*eta^2 + eta - 1 with

        c0 = 2(1-p)*LT/(p*b') + LT + 2*(p*vf + (1-p)/b') * LL / p,

    mode="pl" additionally caps eta at p / (mu (1-p)) and uses

        c0 = LT + 4*LT/(p*b') + (4*LL/p) * (p*vf + (1-p)/b'),

    where LT/LL are the trailing/leading coupling constants and vf is the
    without-replacement variance factor (1/b in the streaming limit).
    """
    from .sampling import variance_factor

    if not 0.0 < p <= 1.0:
        raise ValueError(f"refresh probability must lie in (0, 1], got {p}")
    if b_prime < 1 or b < b_prime:
        raise ValueError(f"need 1 <= b' <= b, got b'={b_prime}, b={b}")
    if n is not None and n != math.inf and b > int(n):
        raise ValueError(f"need b <= n, got b={b}, n={n}")
    vf = variance_factor(n, b)
    lt, ll = profile.lip_trailing, profile.lip_leading
    mix = p * vf + (1.0 - p) / b_prime
    if mode == MODE_RATE:
        c0 = 2.0 * (1.0 - p) * lt / (p * b_prime) + lt + 2.0 * mix * ll / p
        eta = admissible_eta(c0)
    elif mode == MODE_PL:
        if mu is None or mu <= 0:
            raise ValueError("pl mode needs mu > 0")
        c0 = lt + 4.0 * lt / (p * b_prime) + (4.0 * ll / p) * mix
        eta = admissible_eta(c0)
        if p < 1.0:
            eta = min(eta, p / (mu * (1.0 - p)))
    else:
        raise ValueError(f"unknown step-size mode {mode!r}")
    return StepSizePlan(eta=eta, c0=c0, mode=mode, p=p, b=b, b_prime=b_prime, n=n, mu=mu)


# --------------------------------------------------------------------------
# batch-size / iteration schedules behind the complexity statements
# --------------------------------------------------------------------------


def finite_sum_schedule(n: int) -> tuple[int, int, float]:
    """(b, b', p) = (n, round(sqrt(n)), b'/(b+b')) for finite sums."""
    if n < 1:
        raise ValueError("n must be positive")
    b = int(n)
    b_prime = max(1, round(math.sqrt(n)))
    return b, b_prime, b_prime / (b + b_prime)


def streaming_schedule(sigma_sq: float, epsilon: float, n=None) -> tuple[int, int, float]:
    """(b, b', p) for the streaming/infinite-sum target accuracy epsilon:
    b = ceil(12 sigma^2 / epsilon^2) capped at n when finite."""
    if epsilon <= 0 or sigma_sq < 0:
        raise ValueError("need epsilon > 0 and sigma_sq >= 0")
    b = max(1, math.ceil(12.0 * sigma_sq / epsilon**2))
    if n is not None and n != math.inf:
        b = min(b, int(n))
    b_prime = max(1, round(math.sqrt(b)))
    return b, b_prime, b_prime / (b + b_prime)


def rate_iterations(delta0: float, epsilon: float, eta: float) -> int:
    """Cycles targeting mean squared stationarity <= epsilon^2 (finite sum)."""
    return max(1, math.ceil(4.0 * delta0 / (epsilon**2 * eta)))


def pl_iterations(delta0: float, epsilon: float, eta: float, mu: float) -> int:
    """Cycles targeting an expected optimality gap <= epsilon under the
    gradient-dominance condition (finite sum)."""
    if delta0 <= epsilon:
        return 1
    return max(1, math.ceil((1.0 + 2.0 / (eta * mu)) * math.log(delta0 / epsilon)))


# --------------------------------------------------------------------------
# backtracking calibration
# --------------------------------------------------------------------------

_BACKTRACK_SLACK = 1e-12


def block_descent_holds(prob, j: int, x: np.ndarray, step: np.ndarray, scale: float) -> bool:
    """Does the quadratic upper model with per-block scale hold for this step?

    Checks f(x + step on block j) <= f(x) + <g_j, step> + (scale/2)||step||^2
    with a relative slack of 1e-12 for float noise.
    """
    cols = prob.partition.block_slice(j)
    trial = np.array(x, dtype=float)
    trial[cols] = trial[cols] + step
    lhs = prob.value(trial)
    base = prob.value(x)
    g = prob.block_grad(j, x)
    rhs = base + float(g @ step) + 0.5 * scale * float(step @ step)
    return lhs <= rhs + _BACKTRACK_SLACK * max(1.0, abs(rhs))


def backtrack_lambda(
    prob,
    j: int,
    x: np.ndarray,
    direction_probe_count: int = 0,
    growth: float = 2.0,
    init: float = 1.0,
    reg: Regularizer | None = None,
    rng: np.random.Generator | None = None,
    max_growths: int = 200,
) -> float:
    """Standalone calibration of one block's metric scale at a point.

    The candidate step is the prox step the scale itself induces. When that
    step vanishes (stationary block) and ``direction_probe_count`` > 0,
    random probe directions at the natural step length 1/sqrt(scale) are
    tested instead. Deterministic for a fixed rng seed; repeated calls at
    the same point return the same multiplier.
    """
    if growth <= 1.0:
        raise ValueError(f"growth factor must exceed 1, got {growth}")
    if init <= 0:
        raise ValueError("init must be positive")
    reg = reg if reg is not None else Zero()
    cols = prob.partition.block_slice(j)
    center = np.array(x[cols], dtype=float)
    g = prob.block_grad(j, x)
    dj = center.shape[0]
    probe_dirs = []
    if direction_probe_count > 0:
        prng = rng if rng is not None else np.random.default_rng(0)
        for _ in range(direction_probe_count):
            v = prng.standard_normal(dj)
            probe_dirs.append(v / np.linalg.norm(v))

    scale = float(init)
    for _ in range(max_growths + 1):
        lam = np.full(dj, scale)
        z = metric_prox(reg, j, center, g, 1.0, lam)
        steps = [z - center]
        if float(np.linalg.norm(steps[0])) == 0.0 and probe_dirs:
            steps = [v / math.sqrt(scale) for v in probe_dirs]
        if all(block_descent_holds(prob, j, x, s, scale) for s in steps):
            return scale
        scale *= growth
    raise RuntimeError(
        f"backtracking exceeded {max_growths} growth steps on block {j}; "
        "the objective looks non-smooth at this point"
    )
