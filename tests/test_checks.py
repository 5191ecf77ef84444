import math

import numpy as np
import pytest

from ccdlab.algorithms import RunConfig, RunTrace, pccd_run, vrccd_run
from ccdlab.blocks import BlockPartition
from ccdlab.checks import (
    BoundReport,
    BoundRow,
    check_cyclic_descent,
    check_min_stationarity_rate,
    check_pl_envelope,
    check_vr_pl_rate,
    check_vr_potential,
    check_vr_rate,
    check_work_accounting,
    mean_with_allowance,
    potential_values,
)
from ccdlab.problems import (
    estimate_sigma_sq,
    exact_coupling_matrices,
    exact_quadratic_metric,
    generate_quadratic,
    pl_constant,
)
from ccdlab.regularizers import L1, Zero
from ccdlab.sampling import RngBundle
from ccdlab.smoothness import MODE_PL, SmoothnessProfile, step_size


def _setup(seed=211, n=16, d=8, m=4, cond=5.0, identical=False):
    part = BlockPartition.even(d, m)
    prob = generate_quadratic(
        seed, n=n, d=d, partition=part, condition_number=cond, identical_curvature=identical
    )
    metric = exact_quadratic_metric(prob)
    profile = SmoothnessProfile.from_coupling_matrices(
        metric, exact_coupling_matrices(prob, metric)
    )
    return prob, metric, profile


def test_bound_report_tolerance_semantics():
    ok = BoundReport("demo", "hard", [BoundRow(1, 1.0, 1.0)])
    assert ok.passed
    borderline = BoundReport("demo", "hard", [BoundRow(1, 1.0 + 5e-10, 1.0)])
    assert borderline.passed  # inside the 1e-9-relative allowance
    bad = BoundReport("demo", "hard", [BoundRow(1, 1.0 + 1e-8, 1.0)])
    assert not bad.passed
    assert not BoundReport("demo", "hard", [BoundRow(1, math.nan, 1.0)]).passed
    rows = list(bad.csv_rows())
    assert rows[0][0] == "demo" and rows[0][-1] == "fail"


def test_descent_check_flags_violations():
    trace = RunTrace()
    trace.add_row(0, 10.0, None, 0.0, None, None, 0, 0)
    trace.add_row(1, 9.0, 0.1, 1.0, None, None, 0, 0)  # 9 <= 10 - 0.5 ok
    trace.add_row(2, 8.9, 0.1, 1.0, None, None, 0, 0)  # 8.9 > 9 - 0.5 violated
    rep = check_cyclic_descent(trace)
    assert not rep.passed
    assert rep.worst.k == 2


def test_rate_check_from_a_stationary_start():
    prob, metric, profile = _setup()
    _, trace = pccd_run(prob, Zero(), RunConfig(cycles=10, x0=prob.x_star, metric=metric))
    rep = check_min_stationarity_rate(trace, profile.lip_trailing, delta0=0.0)
    assert rep.passed  # lhs is numerically zero for every prefix


def test_pl_envelope_requires_positive_mu():
    with pytest.raises(ValueError):
        check_pl_envelope(np.array([1.0, 0.5]), 1.0, 0.0)


def test_vr_rate_deterministic_full_batch():
    prob, metric, profile = _setup(223)
    p = 1.0
    plan = step_size(profile, p, prob.n, prob.n, prob.n)
    x0 = np.random.default_rng(1).standard_normal(prob.dim)
    cfg = RunConfig(
        cycles=50, eta=plan.eta, p=p, b=prob.n, b_prime=prob.n, x0=x0, metric=metric
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(5))
    delta0 = prob.value(x0) - prob.f_star
    rep = check_vr_rate(
        [trace], plan.eta, p, prob.n, prob.n, prob.n, sigma_sq=0.0, delta0=delta0,
        deterministic=True,
    )
    assert rep.passed and rep.kind == "hard"
    # the schedule target: K = ceil(4 delta0 / (eps^2 eta)) drives the bound to eps^2
    eps = 0.5
    K = max(1, math.ceil(4.0 * delta0 / (eps**2 * plan.eta)))
    assert 4.0 * delta0 / (plan.eta * K) <= eps**2 * (1 + 1e-12)


def test_vr_rate_monte_carlo_shape():
    prob, metric, profile = _setup(227, n=12)
    p, b, bp = 0.4, 6, 2
    plan = step_size(profile, p, b, bp, prob.n)
    x0 = np.random.default_rng(2).standard_normal(prob.dim)
    sigma_sq = estimate_sigma_sq(prob, metric, x0)
    traces = []
    for s in range(10):
        cfg = RunConfig(cycles=30, eta=plan.eta, p=p, b=b, b_prime=bp, x0=x0, metric=metric)
        _, tr = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(100 + s))
        traces.append(tr)
    delta0 = prob.value(x0) - prob.f_star
    rep = check_vr_rate(traces, plan.eta, p, b, bp, prob.n, sigma_sq, delta0)
    assert rep.kind == "monte_carlo"
    assert rep.low_power  # fewer than 30 seeds
    assert rep.passed


def test_potential_collapses_to_objective_at_p_one():
    prob, metric, profile = _setup(229)
    plan = step_size(profile, 1.0, prob.n, prob.n, prob.n)
    x0 = np.random.default_rng(3).standard_normal(prob.dim)
    cfg = RunConfig(
        cycles=20, eta=plan.eta, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric,
        record_u=True,
    )
    _, trace = vrccd_run(prob, L1(0.05), cfg, RngBundle.from_seed(7))
    phi, deficits = potential_values(trace, plan.eta, 1.0, prob.n, profile.lip_trailing)
    assert np.allclose(phi, trace.array("obj"))
    rep = check_vr_potential(
        [trace], plan.eta, 1.0, prob.n, prob.n, prob.n, profile.lip_trailing, 0.0, pathwise=True
    )
    assert rep.passed


def test_vr_pl_rate_deterministic():
    prob, metric, profile = _setup(233, identical=True)
    mu = pl_constant(prob, metric)
    plan = step_size(profile, 1.0, prob.n, prob.n, prob.n, mode=MODE_PL, mu=mu)
    x0 = np.random.default_rng(4).standard_normal(prob.dim)
    cfg = RunConfig(
        cycles=40, eta=plan.eta, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(9))
    delta0 = prob.value(x0) - prob.f_star
    gap = np.array([trace.obj[-1] - prob.f_star])
    rep = check_vr_pl_rate(
        gap, plan.eta, 40, 1.0, prob.n, prob.n, prob.n, mu, 0.0, delta0, deterministic=True
    )
    assert rep.passed


def test_work_accounting_modes():
    trace = RunTrace()
    trace.add_row(0, 0.0, None, 0.0, None, None, 100, 0)
    for k in range(1, 5):
        trace.add_row(k, 0.0, 0.0, 0.0, None, None, 100 + 40 * k, 0)
    rep = check_work_accounting([trace], p=1.0, b=5, b_prime=2, dim=8)
    assert rep.passed  # every increment equals 5*8
    rep_bad = check_work_accounting([trace], p=1.0, b=6, b_prime=2, dim=8)
    assert not rep_bad.passed
    # the mixed-probability target follows the harmonic-style formula
    p = 8 / (64 + 8)
    target = (p * 64 + (1 - p) * 8) * 8
    assert target == pytest.approx(2 * 64 * 8 / (64 + 8) * 8, rel=1e-12)


def test_mean_with_allowance():
    mean, allowance = mean_with_allowance(np.array([1.0, 1.0, 1.0]))
    assert mean == 1.0 and allowance == 0.0
    mean, allowance = mean_with_allowance(np.array([0.0, 2.0]))
    assert mean == 1.0 and allowance > 0.0


def test_one_sided_99_matches_scipy_bit_for_bit():
    from scipy.stats import norm

    from ccdlab.checks import ONE_SIDED_99

    assert ONE_SIDED_99 == float(norm.ppf(0.99))


def test_vr_rate_coincides_with_classical_baseline_check():
    """Single block, full batch, always refresh, no regularizer: the rate
    check evaluated on the cyclic run is numerically the classical
    full-gradient rate check on the baseline trajectory."""
    from ccdlab.algorithms import prox_gd_run

    part = BlockPartition.even(8, 1)
    prob = generate_quadratic(241, n=6, d=8, partition=part, condition_number=5.0)
    metric = exact_quadratic_metric(prob)
    profile = SmoothnessProfile.from_coupling_matrices(
        metric, exact_coupling_matrices(prob, metric)
    )
    plan = step_size(profile, 1.0, prob.n, prob.n, prob.n)
    x0 = np.random.default_rng(8).standard_normal(8)
    cfg = RunConfig(
        cycles=40, eta=plan.eta, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric
    )
    _, tr_vr = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(13))
    _, tr_gd = prox_gd_run(
        prob, Zero(), RunConfig(cycles=40, x0=x0, metric=metric, eta=plan.eta)
    )
    assert tr_vr.stat_sq == tr_gd.stat_sq  # bitwise-equal trajectories
    delta0 = prob.value(x0) - prob.f_star
    rep_vr = check_vr_rate(
        [tr_vr], plan.eta, 1.0, prob.n, prob.n, prob.n, 0.0, delta0, deterministic=True
    )
    rep_gd = check_vr_rate(
        [tr_gd], plan.eta, 1.0, prob.n, prob.n, prob.n, 0.0, delta0, deterministic=True
    )
    assert rep_vr.rows[0].lhs == rep_gd.rows[0].lhs
    assert rep_vr.rows[0].rhs == rep_gd.rows[0].rhs
    assert rep_vr.passed and rep_gd.passed
