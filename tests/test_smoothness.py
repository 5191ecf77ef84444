import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.blocks import BlockPartition, DiagonalMetric
from ccdlab.smoothness import (
    MODE_PL,
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


def test_masked_constants_singleton_ladder():
    # identical scalar coupling on every singleton block: the trailing sum is
    # a staircase with top weight m, the leading sum tops out at m - 1
    m, L = 5, 3.0
    part = BlockPartition((1,) * m)
    metric = DiagonalMetric(np.full(m, L), part)
    q_list = [L * np.eye(m) for _ in range(m)]
    lt, ll = masked_smoothness_constants(q_list, metric, part)
    assert lt == pytest.approx(m, rel=1e-9)
    assert ll == pytest.approx(m - 1, rel=1e-9)


def test_masked_constants_edge_cases():
    part = BlockPartition((4,))
    metric = DiagonalMetric.identity(part)
    lt, ll = masked_smoothness_constants([np.eye(4)], metric, part)
    assert ll == 0.0 and lt == pytest.approx(1.0)
    lt0, ll0 = masked_smoothness_constants([np.zeros((4, 4))], metric, part)
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
    assert masked_smoothness_constants(q_list, metric, part) == want
    asymmetric = [q.copy() for q in q_list]
    asymmetric[-1][0, -1] += 1.0 + abs(asymmetric[-1][0, -1])
    if d > 1:
        with pytest.raises(ValueError):
            masked_smoothness_constants(asymmetric, metric, part)


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


def _profile(lt, ll):
    return SmoothnessProfile.from_constants(lt, ll)


def test_step_size_finite_sum_schedule_coefficient():
    # b = n, b' = sqrt(n), p = b'/(b+b'): the curvature coefficient collapses
    # to 3*trailing + 2*leading
    lt, ll = 1.7, 0.4
    profile = _profile(lt, ll)
    n = 16
    b, b_prime, p = finite_sum_schedule(n)
    assert (b, b_prime) == (16, 4)
    plan = step_size(profile, p, b, b_prime, n)
    assert plan.c0 == pytest.approx(3 * lt + 2 * ll, rel=1e-12)
    assert plan.eta == pytest.approx(admissible_eta(plan.c0), rel=1e-15)


def test_step_size_pl_mode():
    profile = _profile(2.0, 1.0)
    plan = step_size(profile, p=0.25, b=8, b_prime=2, n=16, mode=MODE_PL, mu=0.5)
    cap = 0.25 / (0.5 * 0.75)
    assert plan.eta <= min(cap, admissible_eta(plan.c0)) * (1 + 1e-15)
    # p = 1 removes the cap
    plan1 = step_size(profile, p=1.0, b=16, b_prime=16, n=16, mode=MODE_PL, mu=0.5)
    assert plan1.eta == pytest.approx(admissible_eta(plan1.c0), rel=1e-15)
    with pytest.raises(ValueError):
        step_size(profile, p=0.5, b=8, b_prime=2, n=16, mode=MODE_PL)


def test_step_size_validation():
    profile = _profile(1.0, 0.5)
    with pytest.raises(ValueError):
        step_size(profile, p=0.0, b=4, b_prime=2, n=8)
    with pytest.raises(ValueError):
        step_size(profile, p=0.5, b=2, b_prime=4, n=8)
    with pytest.raises(ValueError):
        step_size(profile, p=0.5, b=9, b_prime=2, n=8)
    # streaming limit replaces the variance factor by 1/b
    plan = step_size(profile, p=0.5, b=4, b_prime=2, n=math.inf)
    mix = 0.5 * 0.25 + 0.5 / 2
    want = 2 * 0.5 * 1.0 / (0.5 * 2) + 1.0 + 2 * mix * 0.5 / 0.5
    assert plan.c0 == pytest.approx(want, rel=1e-12)


def test_finite_sum_schedule():
    assert finite_sum_schedule(16) == (16, 4, pytest.approx(0.2))
