import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from ccdlab.regularizers import L1, Zero
from ccdlab.sampling import RngBundle
from ccdlab.smoothness import SmoothnessProfile, step_size


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
    eta = step_size(profile, p, prob.n, prob.n, prob.n)
    x0 = np.random.default_rng(1).standard_normal(prob.dim)
    cfg = RunConfig(
        cycles=50, eta=eta, p=p, b=prob.n, b_prime=prob.n, x0=x0, metric=metric
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(5))
    delta0 = prob.value(x0) - prob.f_star
    # p = 1 with the full batch: the noise-free case, asserted as a hard bound
    rep = check_vr_rate([trace], eta, p, prob.n, prob.n, prob.n, sigma_sq=0.0, delta0=delta0)
    assert rep.passed and rep.kind == "hard"
    # the schedule target: K = ceil(4 delta0 / (eps^2 eta)) drives the bound to eps^2
    eps = 0.5
    K = max(1, math.ceil(4.0 * delta0 / (eps**2 * eta)))
    assert 4.0 * delta0 / (eta * K) <= eps**2 * (1 + 1e-12)


def test_vr_rate_monte_carlo_shape():
    prob, metric, profile = _setup(227, n=12)
    p, b, bp = 0.4, 6, 2
    eta = step_size(profile, p, b, bp, prob.n)
    x0 = np.random.default_rng(2).standard_normal(prob.dim)
    sigma_sq = estimate_sigma_sq(prob, metric, x0)
    traces = []
    for s in range(10):
        cfg = RunConfig(cycles=30, eta=eta, p=p, b=b, b_prime=bp, x0=x0, metric=metric)
        _, tr = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(100 + s))
        traces.append(tr)
    delta0 = prob.value(x0) - prob.f_star
    rep = check_vr_rate(traces, eta, p, b, bp, prob.n, sigma_sq, delta0)
    assert rep.kind == "monte_carlo"
    assert rep.low_power  # fewer than 30 seeds
    assert rep.passed


def test_potential_collapses_to_objective_at_p_one():
    prob, metric, profile = _setup(229)
    eta = step_size(profile, 1.0, prob.n, prob.n, prob.n)
    x0 = np.random.default_rng(3).standard_normal(prob.dim)
    cfg = RunConfig(
        cycles=20, eta=eta, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric,
        record_u=True,
    )
    _, trace = vrccd_run(prob, L1(0.05), cfg, RngBundle.from_seed(7))
    phi, deficits = potential_values(trace, eta, 1.0, prob.n, profile.lip_trailing)
    assert np.allclose(phi, trace.array("obj"))
    rep = check_vr_potential(
        [trace], eta, 1.0, prob.n, prob.n, prob.n, profile.lip_trailing, 0.0
    )
    assert rep.passed and rep.kind == "hard"


def test_vr_pl_rate_deterministic():
    prob, metric, profile = _setup(233, identical=True)
    mu = prob.pl_constant(metric)
    eta = step_size(profile, 1.0, prob.n, prob.n, prob.n, mu=mu)
    x0 = np.random.default_rng(4).standard_normal(prob.dim)
    cfg = RunConfig(
        cycles=40, eta=eta, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(9))
    delta0 = prob.value(x0) - prob.f_star
    gap = np.array([trace.obj[-1] - prob.f_star])
    rep = check_vr_pl_rate(gap, eta, 40, 1.0, prob.n, prob.n, prob.n, mu, 0.0, delta0)
    assert rep.passed and rep.kind == "hard"


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
    eta = step_size(profile, 1.0, prob.n, prob.n, prob.n)
    x0 = np.random.default_rng(8).standard_normal(8)
    cfg = RunConfig(
        cycles=40, eta=eta, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric
    )
    _, tr_vr = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(13))
    _, tr_gd = prox_gd_run(
        prob, Zero(), RunConfig(cycles=40, x0=x0, metric=metric, eta=eta)
    )
    assert tr_vr.stat_sq == tr_gd.stat_sq  # bitwise-equal trajectories
    delta0 = prob.value(x0) - prob.f_star
    rep_vr = check_vr_rate([tr_vr], eta, 1.0, prob.n, prob.n, prob.n, 0.0, delta0)
    rep_gd = check_vr_rate([tr_gd], eta, 1.0, prob.n, prob.n, prob.n, 0.0, delta0)
    assert rep_vr.rows[0].lhs == rep_gd.rows[0].lhs
    assert rep_vr.rows[0].rhs == rep_gd.rows[0].rhs
    assert rep_vr.passed and rep_gd.passed


# --------------------------------------------------------------------------
# the one verdict rule of the expectation-level checks
# --------------------------------------------------------------------------


def _hand_trace(rng, cycles=6):
    """A trace with every diagnostic column filled and a drawn output index."""
    trace = RunTrace(meta={"output_index": int(rng.integers(1, cycles + 1))})
    trace.add_row(0, 10.0, None, 0.0, 0.1, None, 0, 0)
    for k in range(1, cycles + 1):
        s, v, u, mid = rng.uniform(0.0, 1.0, size=4)
        trace.add_row(k, 10.0 - k, s, v, u, mid, 40 * k, 0)
    return trace


_EXPECTATION_CHECKS = {
    "vr-rate": lambda traces, p, b, bp, n: check_vr_rate(traces, 0.1, p, b, bp, n, 0.5, 1.0),
    "vr-pl-rate": lambda traces, p, b, bp, n: check_vr_pl_rate(
        np.array([t.obj[-1] for t in traces]), 0.1, traces[0].cycles, p, b, bp, n, 0.5, 0.5, 1.0
    ),
    "vr-potential": lambda traces, p, b, bp, n: check_vr_potential(
        traces, 0.1, p, b, bp, n, 1.0, 0.5
    ),
    "work-accounting": lambda traces, p, b, bp, n: check_work_accounting(traces, p, b, bp, 1),
}


@pytest.mark.parametrize("seeds", [5, 40])
@pytest.mark.parametrize(
    "name, p, b, bp, n, exact",
    [
        # p = 1 with the full batch: no sampling noise
        ("vr-rate", 1.0, 8, 8, 8, True),
        ("vr-rate", 1.0, 4, 4, 8, False),
        ("vr-rate", 0.5, 8, 8, 8, False),
        ("vr-pl-rate", 1.0, 8, 4, 8, True),
        ("vr-pl-rate", 1.0, 4, 4, 8, False),
        ("vr-pl-rate", 0.5, 8, 8, 8, False),
        # exact anchors: b = b' = n; a stream never has them
        ("vr-potential", 0.5, 8, 8, 8, True),
        ("vr-potential", 1.0, 8, 8, 8, True),
        ("vr-potential", 0.5, 8, 4, 8, False),
        ("vr-potential", 1.0, 8, 8, math.inf, False),
        # the switch never mixes batch sizes at p in {0, 1}
        ("work-accounting", 1.0, 8, 4, 8, True),
        ("work-accounting", 0.0, 8, 4, 8, True),
        ("work-accounting", 0.5, 8, 4, 8, False),
    ],
)
def test_expectation_checks_are_hard_exactly_when_noise_free(name, p, b, bp, n, exact, seeds):
    rng = np.random.default_rng(17)
    traces = [_hand_trace(rng) for _ in range(seeds)]
    rep = _EXPECTATION_CHECKS[name](traces, p, b, bp, n)
    assert rep.kind == ("hard" if exact else "monte_carlo")
    if exact:
        assert not rep.low_power
    elif name == "work-accounting":
        assert rep.low_power  # its power counts increments: fewer than 10,000 here
    else:
        assert rep.low_power == (seeds < 30)


def test_exact_expectation_asserts_every_trace():
    """Noise-free runs share one trajectory, so the hard form asserts each
    seed; a violating second trace fails the report even when the first
    passes."""
    rng = np.random.default_rng(19)
    good, bad = _hand_trace(rng), _hand_trace(rng)
    good.obj[-1] = 0.1  # final gap below the vr-pl-rate bound
    bad.stat_sq[1:] = [1e6] * bad.cycles
    bad.obj[-1] = 1e6
    for name in ("vr-rate", "vr-pl-rate"):
        alone = _EXPECTATION_CHECKS[name]([good], 1.0, 8, 8, 8)
        both = _EXPECTATION_CHECKS[name]([good, bad], 1.0, 8, 8, 8)
        assert alone.kind == both.kind == "hard"
        assert alone.passed and not both.passed
        assert both.worst.lhs == 1e6


_SIDES = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
    [0.0, 1.0, -1.0, 1.0 + 5e-10, 1e9]
)


@given(st.lists(st.tuples(_SIDES, _SIDES), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_passed_iff_worst_margin_is_nonnegative(sides):
    rep = BoundReport("demo", "hard", [BoundRow(k, lhs, rhs) for k, (lhs, rhs) in enumerate(sides)])
    assert rep.passed == (BoundReport._margin(rep.worst) >= 0.0)
    for row, ok in zip(rep.rows, rep.verdicts):
        if math.isnan(row.lhs) or math.isnan(row.rhs):
            assert not ok
        elif math.isfinite(row.lhs) and math.isfinite(row.rhs):
            # the 1e-9-relative allowance of the rule this margin replaced
            assert ok == (row.slack >= -1e-9 * max(1.0, abs(row.rhs)))


def _old_worst(rows):
    # the worst-row rule that computed every margin a second time
    return min(rows, key=lambda r: -math.inf if math.isnan(m := BoundReport._margin(r)) else m)


@given(st.lists(st.tuples(_SIDES, _SIDES), max_size=8))
@settings(max_examples=300, deadline=None)
def test_one_margin_pass_keeps_verdicts_and_worst(sides):
    rows = [BoundRow(k, lhs, rhs) for k, (lhs, rhs) in enumerate(sides)]
    rep = BoundReport("demo", "hard", rows)
    assert rep.verdicts == tuple(BoundReport._margin(r) >= 0.0 for r in rows)
    assert rep.worst is (_old_worst(rows) if rows else None)


def test_each_margin_is_computed_once(monkeypatch):
    calls = []
    margin = BoundReport._margin

    def counting(row):
        calls.append(row)
        return margin(row)

    monkeypatch.setattr(BoundReport, "_margin", staticmethod(counting))
    rows = [
        BoundRow(1, 1.0, 2.0),  # passes
        BoundRow(2, 3.0, 1.0),  # fails
        BoundRow(3, math.nan, 1.0),  # NaN: fails and ranks worst
        BoundRow(4, math.inf, math.inf),  # inf - inf is NaN: fails
        BoundRow(5, -math.inf, 0.0),  # passes by an infinite margin
        BoundRow(None, 1.0, 1.0 - 5e-10),  # inside the allowance
    ]
    rep = BoundReport("demo", "hard", rows)
    assert rep.verdicts == (True, False, False, False, True, True)
    assert not rep.passed
    assert rep.worst is rows[2]
    rep.summary()
    list(rep.csv_rows())
    assert calls == rows


def test_report_csv_formats_each_side_as_a_float(tmp_path):
    from ccdlab.harness import _fmt, write_report

    rows = [
        BoundRow(1, np.float64(0.1), 2),
        BoundRow(2, -0.0, np.int64(7)),
        BoundRow(None, math.nan, math.inf),
        BoundRow(4, 1e300, -math.inf),
    ]
    csv_path, _ = write_report([BoundReport("demo", "hard", rows)], tmp_path / "report")
    lines = csv_path.read_text().splitlines()[1:]
    want = [
        f"demo,{'' if r.k is None else r.k},{_fmt(float(r.lhs))},{_fmt(float(r.rhs))},"
        f"{_fmt(float(r.slack))},{'pass' if ok else 'fail'}"
        for r, ok in zip(rows, BoundReport("demo", "hard", rows).verdicts)
    ]
    assert lines == want
