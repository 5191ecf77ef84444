"""Smoothness machinery: spectral norms, cycle coupling constants, the
admissible step size and the finite-sum batch schedule.

Two aggregate constants drive every rate in the toolkit. Both are spectral
norms of metric-normalized sums of masked coupling matrices. The coupling
matrix of block ``j`` is cut at that block's first coordinate, which
separates the leading blocks 0..j-1 (already updated within a cycle) from
the trailing blocks j..m-1 (not yet updated):

* ``lip_trailing``: each matrix keeps its trailing rows and columns only
  (index >= the cut), so the constant measures coupling into coordinates
  not yet updated within a cycle;
* ``lip_leading``: each matrix keeps its leading rows and columns only
  (index < the cut): coupling into coordinates already updated this cycle.

At ``j = 0`` the leading part is empty and the trailing part is the whole
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import DiagonalMetric, symmetrize


def spectral_norm(M: np.ndarray, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic: starts from the all-ones direction and, on stagnation
    (start orthogonal to the leading eigenspace), adds a fixed-seed
    perturbation. When the iteration does not converge within ``max_iter``
    steps (near-equal top eigenvalues make it crawl), the result is the top
    eigenvalue from the dense eigendecomposition instead.
    """
    M = symmetrize(M)
    d = M.shape[0]
    if d == 0:
        return 0.0
    # w is M @ v for the current direction v: the Rayleigh quotient's product
    # is the next step's, and ||w|| is computed as np.linalg.norm does. Both
    # are fixed buffers, written in place. The bound ``dot`` methods make the
    # BLAS calls np.dot makes, without its dispatch
    w = M @ (np.ones(d) / math.sqrt(d))
    v = np.empty(d)
    est = 0.0
    perturbed = False
    for it in range(max_iter):
        nw = math.sqrt(float(w.dot(w)))
        if nw == 0.0:
            if perturbed:
                return 0.0
            # ones-vector may sit in the kernel; retry once off a fixed seed
            v[...] = np.random.Generator(np.random.PCG64(0x5EED)).standard_normal(d)
            v /= np.linalg.norm(v)
            M.dot(v, out=w)
            perturbed = True
            continue
        np.divide(w, nw, out=v)
        M.dot(v, out=w)
        new_est = float(v.dot(w))
        if it > 0 and abs(new_est - est) <= tol * max(abs(new_est), 1e-300):
            return new_est
        est = new_est
    return float(np.linalg.eigvalsh(M)[-1])


def masked_smoothness_constants(
    q_list: list[np.ndarray], metric: DiagonalMetric
) -> tuple[float, float]:
    """(lip_trailing, lip_leading) for a per-block list of coupling matrices,
    one per block of ``metric.partition``."""
    partition = metric.partition
    if len(q_list) != partition.num_blocks:
        raise ValueError("need one coupling matrix per block")
    d = partition.dim
    sum_trailing = np.zeros((d, d))
    sum_leading = np.zeros((d, d))
    for cut, q in zip(partition.offsets, q_list):
        q = symmetrize(q)
        if q.shape[0] != d:
            raise ValueError("matrix size does not match the partition")
        sum_trailing[cut:, cut:] += q[cut:, cut:]
        sum_leading[:cut, :cut] += q[:cut, :cut]
    scale = np.sqrt(metric.inv_entries)
    norm_trailing = spectral_norm(scale[:, None] * sum_trailing * scale[None, :])
    norm_leading = spectral_norm(scale[:, None] * sum_leading * scale[None, :])
    return norm_trailing, norm_leading


@dataclass(frozen=True, eq=False)
class SmoothnessProfile:
    """The two aggregate coupling constants of a metric."""

    lip_trailing: float
    lip_leading: float

    def __post_init__(self):
        if self.lip_trailing < 0 or self.lip_leading < 0:
            raise ValueError("coupling constants are nonnegative")

    @classmethod
    def from_coupling_matrices(
        cls, metric: DiagonalMetric, q_list: list[np.ndarray]
    ) -> "SmoothnessProfile":
        lt, ll = masked_smoothness_constants(q_list, metric)
        return cls(lip_trailing=lt, lip_leading=ll)


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


def step_size(
    profile: SmoothnessProfile, p: float, b: int, b_prime: int, n: float, mu: float | None = None
) -> float:
    """Largest admissible step size of the variance-reduced cyclic method.

    Without ``mu`` (the rate form) eta is the root of c0*eta^2 + eta - 1 with

        c0 = 2(1-p)*LT/(p*b') + LT + 2*(p*vf + (1-p)/b') * LL / p;

    a given ``mu`` selects the PL form, which caps eta at p / (mu (1-p)) and uses

        c0 = LT + 4*LT/(p*b') + (4*LL/p) * (p*vf + (1-p)/b'),

    where LT/LL are the trailing/leading coupling constants and vf is the
    without-replacement variance factor (1/b for a stream, n = inf).
    """
    from .sampling import variance_factor

    if not 0.0 < p <= 1.0:
        raise ValueError(f"refresh probability must lie in (0, 1], got {p}")
    if b_prime < 1 or b < b_prime:
        raise ValueError(f"need 1 <= b' <= b, got b'={b_prime}, b={b}")
    if b > n:
        raise ValueError(f"need b <= n, got b={b}, n={n}")
    lt, ll = profile.lip_trailing, profile.lip_leading
    mix = p * variance_factor(n, b) + (1.0 - p) / b_prime
    if mu is None:
        return admissible_eta(2.0 * (1.0 - p) * lt / (p * b_prime) + lt + 2.0 * mix * ll / p)
    if mu <= 0:
        raise ValueError("the PL form needs mu > 0")
    eta = admissible_eta(lt + 4.0 * lt / (p * b_prime) + (4.0 * ll / p) * mix)
    return min(eta, p / (mu * (1.0 - p))) if p < 1.0 else eta


# --------------------------------------------------------------------------
# batch-size schedule behind the finite-sum complexity statement
# --------------------------------------------------------------------------


def finite_sum_schedule(n: int) -> tuple[int, int, float]:
    """(b, b', p) = (n, round(sqrt(n)), b'/(b+b')) for finite sums."""
    if n < 1:
        raise ValueError("n must be positive")
    b = int(n)
    b_prime = max(1, round(math.sqrt(n)))
    return b, b_prime, b_prime / (b + b_prime)
