import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_harness_cli import NEAR_TIED

from ccdlab import smoothness
from ccdlab.blocks import BlockPartition, DiagonalMetric, symmetrize
from ccdlab.config import parse_config
from ccdlab.harness import resolve
from ccdlab.sampling import variance_factor
from ccdlab.smoothness import (
    SmoothnessProfile,
    admissible_eta,
    finite_sum_schedule,
    masked_smoothness_constants,
    spectral_norm,
    step_size,
)


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-10)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(8)
    g = rng.standard_normal((6, 6))
    mat = g @ g.T
    oracle = float(np.linalg.eigvalsh(mat)[-1])
    assert spectral_norm(mat) == pytest.approx(oracle, rel=1e-8)
    with pytest.raises(ValueError):
        spectral_norm(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_spectral_norm_iteration_cap_falls_back_to_eigvalsh():
    # two nearly tied eigenvalues force slow convergence
    mat = np.diag([1.0, 1.0 - 1e-12])
    assert spectral_norm(mat, tol=0.0, max_iter=3) == float(np.linalg.eigvalsh(mat)[-1])


def _two_product_power_iteration(M, tol=1e-10, max_iter=10000):
    """The oracle: ``spectral_norm`` as it was when each step computed
    ``M @ v`` and ``M @ v_new`` and took ``np.linalg.norm(w)``. Returns the
    value and whether it fell back to ``eigvalsh``."""
    M = symmetrize(M)
    d = M.shape[0]
    if d == 0:
        return 0.0, False
    v = np.ones(d) / math.sqrt(d)
    est = 0.0
    perturbed = False
    for it in range(max_iter):
        w = M @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            if perturbed:
                return 0.0, False
            v = np.random.Generator(np.random.PCG64(0x5EED)).standard_normal(d)
            v /= np.linalg.norm(v)
            perturbed = True
            continue
        v_new = w / nw
        new_est = float(v_new @ (M @ v_new))
        if it > 0 and abs(new_est - est) <= tol * max(abs(new_est), 1e-300):
            return new_est, False
        est = new_est
        v = v_new
    return float(np.linalg.eigvalsh(M)[-1]), True


@pytest.mark.parametrize("seed", range(12))
def test_spectral_norm_matches_two_product_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 48))
    g = rng.standard_normal((d, int(rng.integers(1, d + 1)))) * rng.uniform(1e-3, 1e3)
    mat = g @ g.T
    for tol in (1e-10, 1e-14, 0.0):
        for max_iter in (1, 2, 50, 10000):
            want, _ = _two_product_power_iteration(mat, tol, max_iter)
            assert spectral_norm(mat, tol, max_iter) == want


def test_spectral_norm_matches_two_product_loop_on_edge_cases():
    # the zero matrix ends in the perturbation branch's second zero norm
    assert spectral_norm(np.zeros((3, 3))) == _two_product_power_iteration(np.zeros((3, 3)))[0] == 0.0
    # the ones direction lies exactly in the kernel of the centering matrix,
    # so the first norm is 0 and the iteration restarts off the fixed seed
    centering = np.eye(4) - 0.25
    assert not np.any(centering @ (np.ones(4) / 2.0))
    want, fell_back = _two_product_power_iteration(centering)
    assert spectral_norm(centering) == want and not fell_back
    assert want == pytest.approx(1.0, rel=1e-9)
    assert spectral_norm(np.ones((1, 1))) == _two_product_power_iteration(np.ones((1, 1)))[0]


def test_spectral_norm_matches_two_product_loop_on_near_tied_couplings(monkeypatch):
    """The coupling sums of the near-tied CLI config, whose power iteration
    hits its cap and falls back to the dense eigendecomposition."""
    seen = []
    norm = smoothness.spectral_norm

    def recording(M, *args, **kwargs):
        seen.append(np.array(M))
        return norm(M, *args, **kwargs)

    monkeypatch.setattr(smoothness, "spectral_norm", recording)
    resolve(parse_config(NEAR_TIED))
    assert len(seen) == 2
    fallbacks = 0
    for mat in seen:
        want, fell_back = _two_product_power_iteration(mat)
        assert norm(mat) == want
        fallbacks += fell_back
    assert fallbacks >= 1


def _allocating_power_iteration(M, tol=1e-10, max_iter=10000):
    """The oracle: ``spectral_norm`` as it was when each step allocated its
    direction ``w / nw`` and product ``M @ v`` and took both dots with
    ``@``, not into fixed buffers."""
    M = symmetrize(M)
    d = M.shape[0]
    if d == 0:
        return 0.0
    w = M @ (np.ones(d) / math.sqrt(d))
    est = 0.0
    perturbed = False
    for it in range(max_iter):
        nw = math.sqrt(float(w @ w))
        if nw == 0.0:
            if perturbed:
                return 0.0
            v = np.random.Generator(np.random.PCG64(0x5EED)).standard_normal(d)
            v /= np.linalg.norm(v)
            w = M @ v
            perturbed = True
            continue
        v = w / nw
        w = M @ v
        new_est = float(v @ w)
        if it > 0 and abs(new_est - est) <= tol * max(abs(new_est), 1e-300):
            return new_est
        est = new_est
    return float(np.linalg.eigvalsh(M)[-1])


@st.composite
def _psd_matrices(draw):
    """A PSD matrix with d <= 64: a scaled Gram matrix of any rank, the zero
    matrix, or a graph Laplacian with integer weights at d = 4, 16 or 64,
    whose kernel holds the all-ones start exactly (its entries, 1/sqrt(d)
    and every partial sum of the product are exact)."""
    kind = draw(st.sampled_from(["gram", "zero", "laplacian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "laplacian":
        d = draw(st.sampled_from([4, 16, 64]))
        weights = np.triu(rng.integers(0, 4, size=(d, d)), 1).astype(float)
        weights += weights.T
        lap = np.diag(weights.sum(axis=1)) - weights
        assert not np.any(lap @ (np.ones(d) / math.sqrt(d)))
        return lap
    d = draw(st.integers(1, 64))
    if kind == "zero":
        return np.zeros((d, d))
    g = rng.standard_normal((d, draw(st.integers(1, d)))) * 10.0 ** draw(st.integers(-3, 3))
    return g @ g.T


@given(_psd_matrices(), st.sampled_from([1e-10, 1e-14, 0.0]), st.sampled_from([1, 2, 50, 10000]))
@settings(max_examples=150, deadline=None)
def test_spectral_norm_matches_the_allocating_loop_bitwise(mat, tol, max_iter):
    want = _allocating_power_iteration(mat, tol, max_iter)
    assert spectral_norm(mat, tol, max_iter).hex() == want.hex()


def test_masked_constants_singleton_ladder():
    # identical scalar coupling on every singleton block: the trailing sum is
    # a staircase with top weight m, the leading sum tops out at m - 1
    m, L = 5, 3.0
    part = BlockPartition((1,) * m)
    metric = DiagonalMetric(np.full(m, L), part)
    q_list = [L * np.eye(m) for _ in range(m)]
    lt, ll = masked_smoothness_constants(q_list, metric)
    assert lt == pytest.approx(m, rel=1e-9)
    assert ll == pytest.approx(m - 1, rel=1e-9)


def test_masked_constants_edge_cases():
    part = BlockPartition((4,))
    metric = DiagonalMetric.identity(part)
    lt, ll = masked_smoothness_constants([np.eye(4)], metric)
    assert ll == 0.0 and lt == pytest.approx(1.0)
    lt0, ll0 = masked_smoothness_constants([np.zeros((4, 4))], metric)
    assert (lt0, ll0) == (0.0, 0.0)


@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_masked_constants_match_dense_masks(seed, sizes):
    # block j's matrix keeps rows and columns from its cut on (trailing) and
    # before it (leading); at j = 0 the leading part is empty
    part = BlockPartition(tuple(sizes))
    d = part.dim
    rng = np.random.default_rng(seed)
    metric = DiagonalMetric(rng.uniform(0.5, 2.0, d), part)
    q_list = []
    for _ in range(part.num_blocks):
        g = rng.standard_normal((d, d))
        q_list.append(g @ g.T)
    sum_trailing, sum_leading = np.zeros((d, d)), np.zeros((d, d))
    for j, q in enumerate(q_list):
        cut = part.offsets[j]
        trailing, leading = np.zeros((d, d)), np.zeros((d, d))
        trailing[cut:, cut:] = q[cut:, cut:]
        leading[:cut, :cut] = q[:cut, :cut]
        sum_trailing += 0.5 * (trailing + trailing.T)
        sum_leading += 0.5 * (leading + leading.T)
    scale = np.sqrt(metric.inv_entries)
    want = tuple(
        spectral_norm(scale[:, None] * total * scale[None, :])
        for total in (sum_trailing, sum_leading)
    )
    assert masked_smoothness_constants(q_list, metric) == want
    asymmetric = [q.copy() for q in q_list]
    asymmetric[-1][0, -1] += 1.0 + abs(asymmetric[-1][0, -1])
    if d > 1:
        with pytest.raises(ValueError):
            masked_smoothness_constants(asymmetric, metric)


def test_admissible_eta_root():
    eta = admissible_eta(2.0)
    assert eta == pytest.approx(0.5, rel=1e-15)
    assert 2.0 * eta**2 + eta - 1.0 <= 0.0
    assert admissible_eta(0.0) == 1.0


@given(st.floats(0.0, 1e8))
@settings(max_examples=200, deadline=None)
def test_admissible_eta_inequality_holds_in_floats(c0):
    eta = admissible_eta(c0)
    assert 0.0 < eta <= 1.0
    assert c0 * eta * eta + eta - 1.0 <= 0.0


def _c0(lt, ll, p, b, b_prime, n, pl=False):
    # the curvature coefficients of the step_size docstring
    mix = p * variance_factor(n, b) + (1 - p) / b_prime
    if pl:
        return lt + 4 * lt / (p * b_prime) + (4 * ll / p) * mix
    return 2 * (1 - p) * lt / (p * b_prime) + lt + 2 * mix * ll / p


def test_step_size_finite_sum_schedule_coefficient():
    # b = n, b' = sqrt(n), p = b'/(b+b'): the curvature coefficient collapses
    # to 3*trailing + 2*leading
    lt, ll = 1.7, 0.4
    n = 16
    b, b_prime, p = finite_sum_schedule(n)
    assert (b, b_prime) == (16, 4)
    c0 = _c0(lt, ll, p, b, b_prime, n)
    assert c0 == pytest.approx(3 * lt + 2 * ll, rel=1e-12)
    assert step_size(SmoothnessProfile(lt, ll), p, b, b_prime, n) == admissible_eta(c0)


def test_step_size_pl_form():
    # a given mu selects the PL form: its own c0, capped at p / (mu (1-p))
    profile = SmoothnessProfile(2.0, 1.0)
    c0 = _c0(2.0, 1.0, 0.25, 8, 2, 16, pl=True)
    assert c0 != _c0(2.0, 1.0, 0.25, 8, 2, 16)
    assert step_size(profile, p=0.25, b=8, b_prime=2, n=16, mu=0.5) == admissible_eta(c0)
    cap = 0.25 / (50.0 * 0.75)
    assert cap < admissible_eta(c0)
    assert step_size(profile, p=0.25, b=8, b_prime=2, n=16, mu=50.0) == cap
    # p = 1 removes the cap
    c1 = _c0(2.0, 1.0, 1.0, 16, 16, 16, pl=True)
    assert step_size(profile, p=1.0, b=16, b_prime=16, n=16, mu=50.0) == admissible_eta(c1)
    with pytest.raises(ValueError):
        step_size(profile, p=0.5, b=8, b_prime=2, n=16, mu=0.0)


def test_step_size_validation():
    profile = SmoothnessProfile(1.0, 0.5)
    with pytest.raises(ValueError):
        step_size(profile, p=0.0, b=4, b_prime=2, n=8)
    with pytest.raises(ValueError):
        step_size(profile, p=0.5, b=2, b_prime=4, n=8)
    with pytest.raises(ValueError):
        step_size(profile, p=0.5, b=9, b_prime=2, n=8)
    # streaming limit replaces the variance factor by 1/b
    mix = 0.5 * 0.25 + 0.5 / 2
    want = 2 * 0.5 * 1.0 / (0.5 * 2) + 1.0 + 2 * mix * 0.5 / 0.5
    assert _c0(1.0, 0.5, 0.5, 4, 2, math.inf) == pytest.approx(want, rel=1e-12)
    eta = step_size(profile, p=0.5, b=4, b_prime=2, n=math.inf)
    assert eta == admissible_eta(_c0(1.0, 0.5, 0.5, 4, 2, math.inf))


def test_finite_sum_schedule():
    assert finite_sum_schedule(16) == (16, 4, pytest.approx(0.2))
