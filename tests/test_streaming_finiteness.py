"""Streaming runs stop at the first non-finite objective value, or at the
first non-finite squared step when they record no objective value."""

import math

import numpy as np
import pytest

from ccdlab.algorithms import NonFiniteObjectiveError, RunConfig, vrccd_run
from ccdlab.blocks import BlockPartition
from ccdlab.config import parse_config
from ccdlab.harness import run_experiment
from ccdlab.problems import exact_quadratic_metric, generate_streaming_quadratic
from ccdlab.regularizers import Zero
from ccdlab.sampling import RngBundle

# an oversized step on a streaming quadratic: the iterates blow up
DIVERGING = """\
problem.family = streaming
problem.n = inf
problem.d = 8
problem.m = 4
algorithm.name = vrccd
algorithm.K = 400
algorithm.eta = 50
algorithm.eta_override = true
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
diagnostics.s_surrogate_samples = 64
"""


def test_streaming_surrogate_run_raises_at_first_nonfinite_objective():
    part = BlockPartition.even(8, 4)
    prob = generate_streaming_quadratic(0, d=8, partition=part)
    cfg = RunConfig(
        cycles=400, eta=50.0, p=0.5, b=8, b_prime=2, x0=np.ones(8),
        metric=exact_quadratic_metric(prob), surrogate_samples=64,
    )
    with np.errstate(all="ignore"), pytest.raises(NonFiniteObjectiveError) as err:
        vrccd_run(prob, Zero(), cfg, RngBundle.from_seed(1))
    # the error's trace holds every row before the failing cycle, each finite
    trace = err.value.trace
    assert 1 <= err.value.iteration <= 400
    assert trace.k == list(range(err.value.iteration))
    assert all(math.isfinite(v) for v in trace.obj)
    assert not math.isfinite(err.value.value)


@pytest.mark.parametrize("surrogate", [64, 0])
def test_diverging_streaming_experiment_exits_3(surrogate, tmp_path, capsys):
    # without a surrogate no objective value is recorded; the squared step
    # v_k is then what turns non-finite
    text = DIVERGING.replace("s_surrogate_samples = 64", f"s_surrogate_samples = {surrogate}")
    with np.errstate(all="ignore"):
        result = run_experiment(parse_config(text), out_dir=tmp_path)
    assert result.exit_code == 3
    assert "objective value" in capsys.readouterr().err
