"""The exit-status contract of ``ccdlab run`` under search: a drawn config
exits 0, 1, 2 or 3, never in a traceback, exit 3 always says why on stderr,
and exit 1 always comes with a failed Monte Carlo report line. The draws
cover every family and algorithm, the finite-sum schedule, explicit step
sizes and several seeds, and include invalid combinations on purpose."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccdlab.cli import main
from ccdlab.config import ALGORITHMS, CHECKS, STOCHASTIC

MONTE_CARLO_FAIL = re.compile(r"^FAIL \S+ \(monte_carlo", re.MULTILINE)


@st.composite
def experiment_configs(draw):
    family = draw(st.sampled_from(["quadratic", "quadratic", "sigmoid", "streaming"]))
    streaming = family == "streaming"
    name = draw(st.sampled_from(ALGORITHMS))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    b = draw(st.integers(1, n))
    fields = {
        "problem.family": family,
        "problem.n": "inf" if streaming else n,
        "problem.d": d,
        "problem.m": draw(st.integers(1, d)),
        "problem.condition_number": draw(st.sampled_from([1, 1.01, 2, 10, 1000])),
        "problem.reg": draw(st.sampled_from(["zero", "l1(0.1)", "box(-1, 1)"])),
        "algorithm.name": name,
        "algorithm.K": draw(st.integers(1, 3)),
        "seeds.base": draw(st.integers(0, 2**31 - 1)),
        "seeds.count": draw(st.integers(1, 2)),
    }
    sigmoid = family == "sigmoid"
    if streaming:
        sigmoid = draw(st.sampled_from(["quadratic", "sigmoid"])) == "sigmoid"
        fields["problem.streaming_family"] = "sigmoid" if sigmoid else "quadratic"
        fields["diagnostics.s_surrogate_samples"] = draw(st.sampled_from([0, 64]))
    if sigmoid and name != "pccd" and draw(st.booleans()):
        fields["lambda.mode"] = "explicit"
        fields["lambda.values"] = ", ".join(["2"] * fields["problem.m"])
    if name in STOCHASTIC:
        if not streaming and draw(st.booleans()):
            fields["algorithm.schedule"] = "finite_sum"
        else:
            fields["algorithm.b"] = b
            if name not in ("sgd", "sccd"):
                fields["algorithm.p"] = draw(st.sampled_from([0.05, 0.5, 1.0]))
        if name != "sgd" and draw(st.booleans()):
            fields["algorithm.bprime"] = draw(st.integers(1, b))
    if draw(st.booleans()):
        fields["algorithm.eta"] = draw(st.sampled_from([0.01, 0.3, 2.0]))
    sharing = draw(st.sampled_from([None, "shared_per_cycle", "fresh_per_block"]))
    if sharing is not None and not (name == "vroccd" and sharing == "fresh_per_block"):
        fields["algorithm.sample_sharing"] = sharing
    applicable = [check for check, spec in CHECKS.items() if name in spec.algorithms]
    checks = draw(st.lists(st.sampled_from(applicable), max_size=2, unique=True))
    if checks:
        fields["diagnostics.checks"] = ", ".join(checks)
        fields["diagnostics.record_u"] = not streaming and draw(st.booleans())
    # about a third of the draws break one field, to reach the exit-3 paths
    broken = draw(st.sampled_from([None] * 10 + ["problem.m", "algorithm.b", "algorithm.p",
                                                 "algorithm.bprime", "algorithm.sample_sharing"]))
    if broken is not None:
        fields[broken] = {
            "problem.m": d + 1,
            "algorithm.b": n + 1,
            "algorithm.p": 0.0,
            "algorithm.bprime": b + 1,
            "algorithm.sample_sharing": "fresh_per_block",
        }[broken]
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


# two runs the search rarely reaches: a short run whose work count misses
# its 2% band (exit 1), and streaming sigmoid under an explicit metric with
# supplied constants
MONTE_CARLO_MISS = """\
problem.n = 16
problem.d = 4
problem.m = 2
algorithm.name = vrccd
algorithm.K = 3
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
seeds.count = 2
diagnostics.checks = work-accounting
"""
STREAMING_SIGMOID = """\
problem.family = streaming
problem.n = inf
problem.d = 4
problem.m = 2
problem.streaming_family = sigmoid
algorithm.name = vrccd
algorithm.K = 3
algorithm.eta = 0.3
algorithm.p = 0.5
algorithm.b = 8
lambda.mode = explicit
lambda.values = 2, 2
lambda.lip_trailing = 1
lambda.lip_leading = 0.5
problem.sigma_sq = 1
seeds.count = 2
diagnostics.s_surrogate_samples = 64
diagnostics.checks = vr-rate
"""


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(experiment_configs())
@example(MONTE_CARLO_MISS)
@example(STREAMING_SIGMOID)
def test_run_exits_with_a_status_and_never_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exp.cfg"
        cfg_path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg_path), "--out-dir", str(Path(tmp) / "out"), "--jobs", "1"])
    assert code in (0, 1, 2, 3), text
    if code == 3:
        assert err.getvalue().strip(), text
    if code == 1:
        assert MONTE_CARLO_FAIL.search(out.getvalue()), text
