"""Falsification search for the pathwise (hard) bounds, at the library level.

No suite or config builds an uneven block partition, although the analysis
allows any partition, so the search draws them directly: n 2-20, d 2-16,
kappa in {1.5, 10, 1000} and the zero, l1 and box regularizers. Each drawn
instance runs the cyclic proximal method under the exact quadratic metric
at its unit step, and the variance-reduced cycle with anchor diagnostics at
the admissible step for its drawn p, b and b'. Every hard bound those runs
feed must hold at every cycle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.algorithms import RunConfig, pccd_run, vrccd_run
from ccdlab.blocks import BlockPartition
from ccdlab.checks import (
    check_cyclic_descent,
    check_grad_vs_step,
    check_vr_descent,
    check_vr_grad_vs_step,
)
from ccdlab.problems import exact_coupling_matrices, exact_quadratic_metric, generate_quadratic
from ccdlab.regularizers import L1, Box, Zero
from ccdlab.sampling import RngBundle
from ccdlab.smoothness import SmoothnessProfile, step_size


@st.composite
def instances(draw):
    d = draw(st.integers(2, 16))
    cuts = draw(st.sets(st.integers(1, d - 1), max_size=d - 1))
    bounds = [0, *sorted(cuts), d]
    n = draw(st.integers(2, 20))
    b = draw(st.integers(1, n))
    return {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "n": n,
        "sizes": tuple(hi - lo for lo, hi in zip(bounds, bounds[1:])),
        "kappa": draw(st.sampled_from([1.5, 10.0, 1000.0])),
        "reg": draw(st.sampled_from(["zero", "l1", "box"])),
        "p": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "b": b,
        "b_prime": draw(st.integers(1, b)),
        "cycles": draw(st.integers(1, 30)),
    }


def _failed(reports):
    return [rep.summary() for rep in reports if not rep.passed]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(instances())
def test_hard_bounds_hold_on_drawn_instances(inst):
    part = BlockPartition(inst["sizes"])
    d = part.dim
    # a nonconvex quadratic is bounded below only on the box
    boxed = inst["reg"] == "box"
    prob = generate_quadratic(
        inst["seed"], inst["n"], d, part, condition_number=inst["kappa"], convex=not boxed
    )
    reg = {"zero": Zero(), "l1": L1(0.1), "box": Box(-2.0, 2.0)}[inst["reg"]]
    x0 = np.random.default_rng(inst["seed"]).standard_normal(d)
    if boxed:
        x0 = np.clip(x0, -2.0, 2.0)
    metric = exact_quadratic_metric(prob)
    profile = SmoothnessProfile.from_coupling_matrices(
        metric, exact_coupling_matrices(prob, metric)
    )
    p, b, b_prime = inst["p"], inst["b"], inst["b_prime"]
    eta = step_size(profile, p, b, b_prime, prob.n)
    lt = profile.lip_trailing

    run = RunConfig(cycles=inst["cycles"], x0=x0, metric=metric)
    _, exact = pccd_run(prob, reg, run)
    vr_run = RunConfig(
        cycles=inst["cycles"], x0=x0, metric=metric, eta=eta, p=p, b=b, b_prime=b_prime,
        record_u=True,
    )
    _, vr = vrccd_run(prob, reg, vr_run, RngBundle.from_seed(inst["seed"]))
    reports = [
        check_cyclic_descent(exact),
        check_grad_vs_step(exact, lt),
        check_vr_descent(vr, eta),
        check_vr_grad_vs_step(vr, lt),
    ]
    assert not _failed(reports), (inst, _failed(reports))
