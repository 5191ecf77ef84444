"""Every (algorithm, check) pair is either rejected when the config is
parsed, on the ``diagnostics.checks`` line, or runs to a verdict: no
misapplied check surfaces after the seeds have run."""

import numpy as np
import pytest

from ccdlab.config import ALGORITHMS, CHECK_NAMES, CHECKS, STOCHASTIC, ConfigError, parse_config
from ccdlab.harness import run_experiment

ESTIMATOR = {
    "pccd": "",
    "prox_gd": "",
    "vrccd": "algorithm.p = 0.5\nalgorithm.b = 4\nalgorithm.bprime = 2\n",
    "vroccd": "algorithm.p = 0.5\nalgorithm.b = 4\nalgorithm.bprime = 2\n",
    "page": "algorithm.p = 0.5\nalgorithm.b = 4\nalgorithm.bprime = 2\n",
    "sccd": "algorithm.b = 4\n",
    "sgd": "algorithm.b = 4\n",
}

TINY = """\
problem.family = quadratic
problem.n = 8
problem.d = 4
problem.m = 2
problem.condition_number = 3
algorithm.name = {algorithm}
algorithm.K = 4
{estimator}seeds.count = 2
{record_u}diagnostics.checks = {check}
"""


@pytest.mark.parametrize("check", CHECK_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_check_rejected_at_parse_time_or_run_to_a_verdict(algorithm, check, tmp_path):
    # the exact methods keep no anchor, so they reject diagnostics.record_u
    record_u = "diagnostics.record_u = true\n" if algorithm in STOCHASTIC else ""
    text = TINY.format(
        algorithm=algorithm, estimator=ESTIMATOR[algorithm], record_u=record_u, check=check
    )
    checks_line = text.splitlines().index(f"diagnostics.checks = {check}") + 1
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        assert algorithm not in CHECKS[check].algorithms
        assert err.errors == [(checks_line, f"check {check} does not apply to {algorithm}")]
        return
    assert algorithm in CHECKS[check].algorithms
    with np.errstate(all="ignore"):
        result = run_experiment(cfg, out_dir=tmp_path)
    assert result.exit_code in (0, 1, 2)
    assert result.reports and {rep.name for rep in result.reports} == {check}
