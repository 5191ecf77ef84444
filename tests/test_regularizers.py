import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.blocks import BlockPartition
from ccdlab.regularizers import L1, Box, Zero, metric_prox, total_value


def test_zero_prox_is_gradient_step():
    g = np.array([1.0, -2.0, 0.5])
    out = metric_prox(Zero(), np.zeros(3), g, 1.0, np.ones(3))
    assert np.array_equal(out, -g)


def test_l1_dead_zone():
    # the tentative step lands at 0.5, inside the threshold: coordinate dies
    out = metric_prox(L1(1.0), np.zeros(1), np.array([-0.5]), 1.0, np.ones(1))
    assert out[0] == 0.0


def test_l1_scalar_example():
    # minimize -4 x + |x| + x^2 (metric weight 2, eta 1): stationarity gives 1.5
    out = metric_prox(L1(1.0), np.zeros(1), np.array([-4.0]), 1.0, np.array([2.0]))
    assert out[0] == pytest.approx(1.5, abs=1e-15)
    grid = np.linspace(-1, 4, 500001)
    vals = -4.0 * grid + np.abs(grid) + grid**2
    assert abs(grid[np.argmin(vals)] - 1.5) < 1e-5


def test_box_prox_clips():
    out = metric_prox(Box(-1.0, 1.0), np.zeros(2), np.array([5.0, -5.0]), 1.0, np.ones(2))
    assert np.array_equal(out, [-1.0, 1.0])


def test_prox_validation():
    with pytest.raises(ValueError):
        metric_prox(Zero(), np.zeros(2), np.zeros(2), 0.0, np.ones(2))
    with pytest.raises(ValueError):
        metric_prox(Zero(), np.zeros(2), np.zeros(2), 1.0, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        Box(1.0, 1.0)
    with pytest.raises(ValueError):
        L1(-0.5)


def test_extended_values():
    part = BlockPartition((2, 1))
    x = np.array([0.5, 3.0, 0.0])
    assert total_value(Box(-1.0, 1.0), x, part) == np.inf
    assert total_value(Box(-4.0, 4.0), x, part) == 0.0
    assert total_value(L1(2.0), x, part) == pytest.approx(7.0)


def _block_value(reg, xj):
    """One block's value, as each regularizer's per-block form states it."""
    if isinstance(reg, L1):
        return reg.weight * float(np.sum(np.abs(xj)))
    if isinstance(reg, Box) and (np.any(xj < reg.lo) or np.any(xj > reg.hi)):
        return float("inf")
    return 0.0


def _block_loop_total(reg, x, part):
    """r(x) as the per-block loop computed it: block values added left to
    right from 0.0, +inf at the first non-finite one."""
    total = 0.0
    for cols in part.slices:
        v = _block_value(reg, x[cols])
        if not np.isfinite(v):
            return float("inf")
        total += v
    return total


@pytest.mark.parametrize(
    "part",
    [
        BlockPartition((1, 2, 5)),
        BlockPartition((3, 3, 2, 2, 1)),
        BlockPartition.even(64, 4),
        BlockPartition.even(7, 3),
        BlockPartition.even(5, 5),
    ],
    ids=lambda p: str(p.block_sizes),
)
def test_total_value_is_the_block_loop_bitwise(part):
    rng = np.random.default_rng(part.dim)
    regs = [Zero(), L1(0.1), L1(2.7), L1(0.0), Box(-1.0, 1.5)]
    points = [rng.standard_normal(part.dim) * scale for scale in (1e-3, 0.5, 1.0, 40.0)]
    points.append(rng.uniform(-0.9, 1.4, part.dim))  # inside the box
    far = rng.standard_normal(part.dim)
    far[-1] = np.inf
    points.append(far)
    for x in points:
        for reg in regs:
            assert total_value(reg, x, part) == _block_loop_total(reg, x, part), (reg, x)
    inside, outside = points[-2], points[-2].copy()
    outside[0] = -1.5
    assert total_value(Box(-1.0, 1.5), inside, part) == 0.0
    assert total_value(Box(-1.0, 1.5), outside, part) == np.inf
    assert total_value(L1(0.0), far, part) == np.inf  # 0 * inf, as the loop has it


@pytest.mark.parametrize(
    "part",
    [
        BlockPartition((1, 2, 5)),
        BlockPartition((3, 3, 2, 2, 1)),
        BlockPartition.even(64, 4),
        BlockPartition.even(7, 3),
        BlockPartition.even(5, 5),
    ],
    ids=lambda p: str(p.block_sizes),
)
def test_whole_vector_prox_is_the_block_calls_bitwise(part):
    """Every regularizer is coordinate-wise, so one prox call over the whole
    vector equals the concatenated per-block calls, signed zeros included:
    the full-gradient methods step block by block on that."""
    rng = np.random.default_rng(part.dim + 7)
    d = part.dim
    regs = [Zero(), L1(0.1), L1(2.7), L1(0.0), Box(-1.0, 1.5)]
    # at eta = 1 the metric step lands near t: inside the L1 threshold on
    # either side of 0 (so at -0.0 and +0.0), beyond it, outside the box on
    # either side and inside it
    t = np.resize([-0.01, 0.01, 3.0, -3.0, 0.7, -0.0, 0.0], d)
    for scale in (1e-3, 0.5, 40.0):
        lam = rng.uniform(0.05, 5.0, d)
        linear = rng.standard_normal(d) * scale
        linear[::4] = -0.0
        center = t + linear / lam
        for eta in (0.3, 1.0, 2.5):
            for reg in regs:
                whole = reg.prox(center, linear, eta, lam)
                blocks = np.concatenate(
                    [reg.prox(center[c], linear[c], eta, lam[c]) for c in part.slices]
                )
                assert whole.tobytes() == blocks.tobytes(), (reg, scale, eta)
        l1 = L1(0.1).prox(center, linear, 1.0, lam)
        box = Box(-1.0, 1.5).prox(center, linear, 1.0, lam)
        assert l1[0] == 0.0 and np.signbit(l1[0])
        assert l1[1] == 0.0 and not np.signbit(l1[1]) and l1[2] > 0.0
        assert box[2] == 1.5 and box[3] == -1.0 and -1.0 < box[4] < 1.5


def test_prox_step_is_the_closed_form_bitwise():
    """A bound prox step, writing into a buffer or not, gives the closed-form
    prox written out with its eta product, signed zeros included; at eta = 1
    that product is exact, so the step skips it."""
    rng = np.random.default_rng(11)
    d = 7
    t = np.array([-0.01, 0.01, 3.0, -3.0, 0.7, -0.0, 0.0])
    for scale in (1e-3, 0.5, 40.0):
        lam = rng.uniform(0.05, 5.0, d)
        linear = rng.standard_normal(d) * scale
        linear[::4] = -0.0
        center = t + linear / lam
        for eta in (0.3, 1.0, 2.5):
            point = center - eta * linear / lam
            want = {
                Zero(): point,
                L1(0.1): np.sign(point) * np.maximum(np.abs(point) - eta * 0.1 / lam, 0.0),
                Box(-1.0, 1.5): np.clip(point, -1.0, 1.5),
            }
            for reg, ref in want.items():
                step = reg.prox_step(eta, lam)
                out = np.full(d, np.nan)
                assert step(center, linear, out) is out
                assert step(center, linear).tobytes() == ref.tobytes(), (reg, eta)
                assert out.tobytes() == ref.tobytes(), (reg, eta)


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["zero", "l1", "box"]),
)
@settings(max_examples=100, deadline=None)
def test_prox_first_order_optimality(seed, kind):
    """The prox output satisfies the subdifferential inclusion exactly:
    (lam/eta)(center - z) - linear is a subgradient of r at z."""
    rng = np.random.default_rng(seed)
    dj = int(rng.integers(1, 5))
    center = rng.uniform(-3, 3, dj)
    linear = rng.uniform(-3, 3, dj)
    eta = float(rng.uniform(0.1, 2.0))
    lam = rng.uniform(0.2, 4.0, dj)
    if kind == "zero":
        reg = Zero()
    elif kind == "l1":
        reg = L1(float(rng.uniform(0.05, 2.0)))
    else:
        reg = Box(-1.0, 1.5)
    z = metric_prox(reg, center, linear, eta, lam)
    resid = lam * (center - z) / eta - linear
    tol = 1e-10
    if kind == "zero":
        assert np.all(np.abs(resid) <= tol)
    elif kind == "l1":
        for zi, ri in zip(z, resid):
            if zi != 0.0:
                assert ri == pytest.approx(reg.weight * np.sign(zi), abs=1e-10)
            else:
                assert abs(ri) <= reg.weight + tol
    else:
        for zi, ri in zip(z, resid):
            if reg.lo < zi < reg.hi:
                assert abs(ri) <= tol
            elif zi == reg.lo:
                assert ri <= tol  # normal cone at the lower face
            else:
                assert zi == reg.hi and ri >= -tol
