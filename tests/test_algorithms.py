import numpy as np
import pytest

from ccdlab.algorithms import (
    NonFiniteObjectiveError,
    PccdConfig,
    ProxGdConfig,
    SgdConfig,
    VrccdConfig,
    page_run,
    pccd_run,
    prox_gd_run,
    sgd_run,
    stationarity_sq,
    vrccd_run,
)
from ccdlab.blocks import BlockPartition, DiagonalMetric
from ccdlab.problems import (
    QuadraticFiniteSum,
    exact_quadratic_metric,
    generate_quadratic,
    generate_streaming_quadratic,
)
from ccdlab.regularizers import L1, Zero
from ccdlab.sampling import RngBundle

PART = BlockPartition.even(8, 4)


def _convex(seed=101, n=6, d=8, part=PART):
    return generate_quadratic(seed, n=n, d=d, partition=part, condition_number=5.0)


def test_separable_quadratic_solved_in_one_cycle():
    # per-coordinate curvature matched by the metric: each block update is an
    # exact partial minimization, so one cycle lands on the minimizer
    d = 6
    part = BlockPartition.even(d, 3)
    eigs = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    prob = QuadraticFiniteSum(np.diag(eigs)[None], np.zeros((1, d)), np.zeros(1), part)
    metric = DiagonalMetric(eigs, part)
    x0 = np.random.default_rng(1).standard_normal(d)
    x_out, trace = pccd_run(prob, Zero(), PccdConfig(cycles=1, x0=x0, metric=metric))
    assert np.all(x_out == 0.0)
    assert trace.obj[-1] == 0.0


def test_run_from_stationary_point_stays_put():
    prob = _convex()
    metric = exact_quadratic_metric(prob)
    _, trace = pccd_run(prob, Zero(), PccdConfig(cycles=1, x0=prob.x_star, metric=metric))
    assert trace.stat_sq[1] <= 1e-20
    assert trace.step_sq[1] <= 1e-20


def test_return_rule_minimizes_metric_displacement():
    prob = _convex(103)
    metric = exact_quadratic_metric(prob)
    x0 = np.random.default_rng(2).standard_normal(8)
    cfg = PccdConfig(cycles=12, x0=x0, metric=metric, keep_iterates=True)
    x_out, trace = pccd_run(prob, L1(0.1), cfg)
    steps = trace.array("step_sq", skip_first=True)
    k_best = int(np.argmin(steps)) + 1
    assert np.array_equal(x_out, trace.iterates[k_best])


def test_stationarity_matches_gradient_norm_for_zero_reg():
    prob = _convex(107)
    part = prob.partition
    metric = DiagonalMetric.identity(part)
    x0 = np.random.default_rng(3).standard_normal(8)
    _, trace = pccd_run(prob, Zero(), PccdConfig(cycles=3, x0=x0, metric=metric, keep_iterates=True))
    for i in (1, 2, 3):
        g = prob.full_grad(trace.iterates[i])
        assert trace.stat_sq[i] == pytest.approx(float(g @ g), rel=1e-9, abs=1e-12)


def test_scalar_l1_step_and_measure():
    # f(x) = (x - 3)^2 / 2 with unit l1 weight: the step from 3 lands on 2 and
    # the constructed subgradient certifies stationarity there
    part = BlockPartition((1,))
    prob = QuadraticFiniteSum(
        np.ones((1, 1, 1)), np.array([[-3.0]]), np.array([4.5]), part
    )
    metric = DiagonalMetric.identity(part)
    x_out, trace = pccd_run(
        prob, L1(1.0), PccdConfig(cycles=1, x0=np.array([3.0]), metric=metric, keep_iterates=True)
    )
    assert trace.iterates[1][0] == 2.0
    assert trace.stat_sq[1] <= 1e-28
    # the implied subgradient sits on the boundary of the unit interval
    resid = metric.block(0) * (3.0 - 2.0) / 1.0 - prob.block_grad(0, np.array([3.0]))
    assert resid[0] == pytest.approx(1.0)


def test_stationarity_requires_one_residual_per_block():
    prob = _convex(109)
    with pytest.raises(ValueError):
        stationarity_sq(prob, np.zeros(8), [np.zeros(2)], exact_quadratic_metric(prob))


def test_nonfinite_objective_reports_iteration():
    # concave objective with a valid metric: descent drives F to -inf
    d = 4
    part = BlockPartition((d,))
    prob = QuadraticFiniteSum((-np.eye(d))[None], np.zeros((1, d)), np.zeros(1), part)
    metric = DiagonalMetric.identity(part)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteObjectiveError) as err:
            pccd_run(prob, Zero(), PccdConfig(cycles=5000, x0=np.ones(d), metric=metric))
    assert err.value.iteration >= 1


def test_backtracking_run_descends():
    prob = _convex(113)
    x0 = np.random.default_rng(5).standard_normal(8)
    _, trace = pccd_run(prob, Zero(), PccdConfig(cycles=20, x0=x0, backtracking=True))
    obj = trace.array("obj")
    steps = trace.array("step_sq", skip_first=True)
    assert np.all(np.diff(obj) <= 1e-12)
    assert np.all(obj[1:] <= obj[:-1] - 0.5 * steps + 1e-9 * np.maximum(1, np.abs(obj[:-1])))


def test_vrccd_exact_anchors_have_zero_error():
    prob = _convex(127, n=10)
    metric = exact_quadratic_metric(prob)
    cfg = VrccdConfig(
        cycles=30,
        eta=0.3,
        p=0.5,
        b=prob.n,
        b_prime=prob.n,
        x0=np.random.default_rng(6).standard_normal(8),
        metric=metric,
        record_u=True,
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(10))
    assert max(u for u in trace.est_err_sq if u is not None) <= 1e-20


def test_vrccd_validation():
    prob = _convex(131)
    metric = exact_quadratic_metric(prob)
    x0 = np.zeros(8)
    with pytest.raises(ValueError):
        VrccdConfig(cycles=5, eta=0.1, p=1.5, b=4, b_prime=2, x0=x0, metric=metric)
    with pytest.raises(ValueError):
        VrccdConfig(cycles=5, eta=0.1, p=0.5, b=2, b_prime=4, x0=x0, metric=metric)
    with pytest.raises(ValueError):
        VrccdConfig(cycles=5, eta=-0.1, p=0.5, b=4, b_prime=2, x0=x0, metric=metric)
    cfg = VrccdConfig(cycles=5, eta=0.1, p=0.5, b=20, b_prime=2, x0=x0, metric=metric)
    with pytest.raises(ValueError):
        vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(0))


def test_vrccd_determinism_and_sharing_modes():
    prob = _convex(137, n=12)
    metric = exact_quadratic_metric(prob)
    x0 = np.random.default_rng(7).standard_normal(8)

    def run(sharing, seed):
        cfg = VrccdConfig(
            cycles=15, eta=0.2, p=0.4, b=6, b_prime=2, x0=x0, metric=metric,
            sample_sharing=sharing,
        )
        _, tr = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(seed))
        return tr

    a = run("fresh_per_block", 11)
    b = run("fresh_per_block", 11)
    assert a.obj == b.obj and a.stat_sq == b.stat_sq
    shared = run("shared_per_cycle", 11)
    assert shared.obj != a.obj  # different randomness consumption pattern


def test_vrccd_work_accounting_exact_at_p_one():
    prob = _convex(139, n=12)
    metric = exact_quadratic_metric(prob)
    cfg = VrccdConfig(
        cycles=10, eta=0.2, p=1.0, b=5, b_prime=2, x0=np.zeros(8), metric=metric
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(3))
    assert np.all(trace.work_increments() == 5 * 8)
    assert trace.work[0] == 0  # p = 1 carries no anchor state, so no setup cost

    half = VrccdConfig(
        cycles=4, eta=0.2, p=0.5, b=5, b_prime=2, x0=np.zeros(8), metric=metric
    )
    _, tr_half = vrccd_run(prob, Zero(), half, RngBundle.from_seed(3))
    assert tr_half.work[0] == 5 * 8  # anchor initialization cost


def test_streaming_run_uses_surrogates():
    part = BlockPartition.even(6, 2)
    prob = generate_streaming_quadratic(149, d=6, partition=part, lin_scale=0.3)
    metric = exact_quadratic_metric(prob)
    cfg = VrccdConfig(
        cycles=8, eta=0.05, p=0.5, b=8, b_prime=2, x0=np.ones(6), metric=metric,
        surrogate_samples=256,
    )
    _, trace = vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(21))
    assert all(v is not None for v in trace.obj)
    assert all(v is not None for v in trace.stat_sq[1:])
    _, silent = vrccd_run(
        prob,
        Zero(),
        VrccdConfig(
            cycles=4, eta=0.05, p=0.5, b=8, b_prime=2, x0=np.ones(6), metric=metric
        ),
        RngBundle.from_seed(21),
    )
    assert silent.obj[1] is None and silent.stat_sq[1] is None
    with pytest.raises(ValueError):
        vrccd_run(
            prob,
            Zero(),
            VrccdConfig(
                cycles=4, eta=0.05, p=0.5, b=8, b_prime=2, x0=np.ones(6), metric=metric,
                record_u=True,
            ),
            RngBundle.from_seed(2),
        )


def test_prox_gd_monotone_at_admissible_step():
    prob = _convex(151)
    part = prob.partition
    metric = DiagonalMetric.identity(part)
    lip = float(np.linalg.eigvalsh(prob.mean_quad)[-1])
    x0 = np.random.default_rng(9).standard_normal(8)
    _, trace = prox_gd_run(
        prob, Zero(), ProxGdConfig(cycles=25, x0=x0, metric=metric, eta=1.0 / lip)
    )
    obj = trace.array("obj")
    assert np.all(np.diff(obj) <= 1e-12)


def test_page_full_batch_equals_prox_gd():
    prob = _convex(157, n=9)
    metric = exact_quadratic_metric(prob)
    x0 = np.random.default_rng(10).standard_normal(8)
    vcfg = VrccdConfig(
        cycles=12, eta=0.4, p=1.0, b=prob.n, b_prime=prob.n, x0=x0, metric=metric,
        keep_iterates=True,
    )
    _, tr_page = page_run(prob, Zero(), vcfg, RngBundle.from_seed(31))
    _, tr_gd = prox_gd_run(
        prob, Zero(), ProxGdConfig(cycles=12, x0=x0, metric=metric, eta=0.4, keep_iterates=True)
    )
    for a, b in zip(tr_page.iterates, tr_gd.iterates):
        assert np.array_equal(a, b)


def test_sgd_runs_and_counts_work():
    prob = _convex(163, n=20)
    metric = exact_quadratic_metric(prob)
    cfg = SgdConfig(cycles=10, eta=0.05, b=4, x0=np.zeros(8), metric=metric)
    _, trace = sgd_run(prob, Zero(), cfg, RngBundle.from_seed(41))
    assert np.all(trace.work_increments() == 4 * 8)
    assert trace.cycles == 10


@pytest.mark.parametrize(
    "bad",
    [
        {"backtrack_init": 0.0},
        {"backtrack_init": -1.0},
        {"backtrack_init": float("nan")},
        {"backtrack_growth": 1.0},
        {"backtrack_growth": 0.5},
        {"eta": float("nan")},
    ],
)
def test_run_parameters_checked_when_config_is_built(bad):
    with pytest.raises(ValueError):
        PccdConfig(cycles=3, x0=np.zeros(8), backtracking=True, **bad)


@pytest.mark.parametrize("algo", ["pccd", "prox_gd", "vrccd"])
def test_metric_partition_checked_before_first_row(algo):
    # same dimension, different blocks; the rows a run writes start at k = 0
    part = BlockPartition((4, 4, 4, 4))
    prob = generate_quadratic(167, n=6, d=16, partition=part, condition_number=5.0)
    metric = DiagonalMetric.identity(BlockPartition((1, 5, 5, 5)))
    x0 = np.zeros(16)
    rows = []
    with pytest.raises(ValueError, match="metric partition"):
        if algo == "pccd":
            pccd_run(prob, L1(0.1), PccdConfig(cycles=3, x0=x0, metric=metric), row_sink=rows.append)
        elif algo == "prox_gd":
            prox_gd_run(prob, L1(0.1), ProxGdConfig(cycles=3, x0=x0, metric=metric),
                        row_sink=rows.append)
        else:
            cfg = VrccdConfig(cycles=3, eta=0.1, p=0.5, b=4, b_prime=2, x0=x0, metric=metric)
            vrccd_run(prob, L1(0.1), cfg, RngBundle.from_seed(0), row_sink=rows.append)
    assert rows == []
