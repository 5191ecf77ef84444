import math
import re

import pytest

from ccdlab.cli import main
from ccdlab.config import ConfigError, config_to_dict, parse_config
from ccdlab.harness import resolve

MINIMAL_PCCD = """
problem.family = quadratic
algorithm.name = pccd
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_PCCD)
    assert cfg.problem.n == 32 and cfg.problem.d == 16 and cfg.problem.m == 4
    assert cfg.algorithm.eta == "auto"
    res = resolve(cfg)
    assert res.run.eta == 1.0  # the cyclic method takes unit prox steps by default
    assert res.echo()["resolved.algorithm"] == "pccd"


def test_comments_and_inline_comments():
    cfg = parse_config(
        """
# full-line comment
problem.family = quadratic   # trailing comment
algorithm.name = pccd
algorithm.K = 7
"""
    )
    assert cfg.algorithm.cycles == 7


def test_all_errors_reported_with_line_numbers():
    text = """problem.family = quadratic
problem.nope = 3
algorithm.p = 1.5
algorithm.K = many
algorithm.name = vrccd
algorithm.b = 8
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    lines = {ln for ln, _ in err.value.errors}
    messages = "\n".join(msg for _, msg in err.value.errors)
    assert 2 in lines  # unknown key
    assert 3 in lines  # constraint violation
    assert 4 in lines  # type mismatch
    assert "(0, 1]" in messages  # names the probability rule
    assert "unknown key" in messages


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("problem.d = 4\nproblem.d = 8\nalgorithm.name = pccd")
    assert any("duplicate" in msg for _, msg in err.value.errors)


def test_finite_sum_schedule_expansion():
    cfg = parse_config(
        """
problem.family = quadratic
problem.n = 16
problem.d = 8
problem.m = 2
algorithm.name = vrccd
algorithm.schedule = finite_sum
"""
    )
    res = resolve(cfg)
    assert res.run.b == 16 and res.run.b_prime == 4
    assert res.run.p == pytest.approx(4 / 20)
    # overriding bprime under the schedule re-derives p
    cfg2 = cfg.with_override("algorithm.bprime", 8)
    res2 = resolve(cfg2)
    assert res2.run.b_prime == 8 and res2.run.p == pytest.approx(8 / 24)


def test_sccd_forces_full_refresh():
    with pytest.raises(ConfigError):
        parse_config(
            "problem.family = quadratic\nalgorithm.name = sccd\nalgorithm.b = 8\nalgorithm.p = 0.5"
        )
    cfg = parse_config("problem.family = quadratic\nalgorithm.name = sccd\nalgorithm.b = 8")
    res = resolve(cfg)
    assert res.run.p == 1.0


def test_vroccd_means_shared_sampling():
    cfg = parse_config(
        """
problem.family = quadratic
algorithm.name = vroccd
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
"""
    )
    assert resolve(cfg).run.sample_sharing == "shared_per_cycle"
    with pytest.raises(ConfigError):
        parse_config(
            "problem.family = quadratic\nalgorithm.name = vroccd\nalgorithm.p = 0.5\n"
            "algorithm.b = 8\nalgorithm.sample_sharing = fresh_per_block"
        )


# the lines after problem.n, d and m of each base config
_BASES = {
    "pccd": "algorithm.name = pccd\n",
    "prox_gd": "algorithm.name = prox_gd\n",
    "vrccd": "algorithm.name = vrccd\nalgorithm.p = 0.5\nalgorithm.b = 4\n",
    "page": "algorithm.name = page\nalgorithm.p = 0.5\nalgorithm.b = 4\n",
    "sgd": "algorithm.name = sgd\nalgorithm.b = 4\n",
    "sigmoid-pccd": "problem.family = sigmoid\nalgorithm.name = pccd\n",
}
_UNREAD_BY_EXACT = (
    "algorithm.p = 0.5",
    "algorithm.b = 4",
    "algorithm.bprime = 2",
    "algorithm.sample_sharing = shared_per_cycle",
    "algorithm.schedule = finite_sum",
    "diagnostics.record_u = true",
)


@pytest.mark.parametrize(
    "algorithm, line",
    [(name, line) for name in ("pccd", "prox_gd") for line in _UNREAD_BY_EXACT]
    + [
        ("page", "algorithm.sample_sharing = fresh_per_block"),
        ("sgd", "algorithm.sample_sharing = shared_per_cycle"),
        ("sgd", "algorithm.bprime = 2"),
        ("sgd", "algorithm.p = 0.5"),
        ("vrccd", "problem.sigma_sq = -5"),
        ("pccd", "lambda.lip_trailing = -0.5"),
        ("pccd", "lambda.lip_leading = -0.5"),
        # keys the problem kind, or another key's value, leaves unread
        ("pccd", "lambda.values = 1, 2"),
        ("pccd", "lambda.lip_trailing = 5"),
        ("pccd", "problem.margin = 1"),
        ("pccd", "problem.streaming_family = sigmoid"),
        ("pccd", "output.report_path = elsewhere"),
        ("pccd", "algorithm.eta_override = true"),
        ("sigmoid-pccd", "problem.condition_number = 50"),
        ("sigmoid-pccd", "problem.convex = false"),
        ("sigmoid-pccd", "lambda.lip_trailing = 1"),
        ("vrccd", "diagnostics.s_surrogate_samples = 64"),
        ("vrccd", "problem.sigma_sq = 0.5"),
        # out of its key's bound
        ("pccd", "seeds.base = -3"),
        ("pccd", "algorithm.eta = -1"),
        ("pccd", "algorithm.eta_scale = 0"),
    ],
)
def test_unread_key_or_negative_constant_rejected_on_its_line(algorithm, line, tmp_path, capsys):
    # a key the run never reads, or a value out of its key's bound, is the
    # only error, and it is reported on the key's own line
    text = "problem.n = 8\nproblem.d = 4\nproblem.m = 2\n" + _BASES[algorithm] + line + "\n"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    code = main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert re.findall(r"line (\d+):", err) == [str(len(text.splitlines()))]
    assert not (tmp_path / "out").exists()


def test_eta_auto_needs_constants_for_sigmoid():
    base = """
problem.family = sigmoid
algorithm.name = vrccd
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
lambda.mode = sigmoid_bound
"""
    with pytest.raises(ConfigError) as err:
        parse_config(base)
    assert any("eta = auto" in msg for _, msg in err.value.errors)
    cfg = parse_config(base + "lambda.lip_trailing = 2.0\nlambda.lip_leading = 0.5\n")
    res = resolve(cfg)
    assert res.profile is not None and res.profile.supplied
    assert "supplied coupling constants" in res.conditional
    # sgd derives its step from the same constants
    with pytest.raises(ConfigError) as err:
        parse_config("problem.family = sigmoid\nalgorithm.name = sgd\nalgorithm.b = 8\n")
    assert [ln for ln, msg in err.value.errors if "eta = auto" in msg] == [0]


def test_check_compatibility_rules():
    with pytest.raises(ConfigError):
        parse_config(
            "problem.family = quadratic\nalgorithm.name = vrccd\nalgorithm.p = 0.5\n"
            "algorithm.b = 8\ndiagnostics.checks = vr-descent"
        )
    with pytest.raises(ConfigError):
        parse_config(
            "problem.family = sigmoid\nalgorithm.name = pccd\ndiagnostics.checks = pl-envelope"
        )
    with pytest.raises(ConfigError):
        parse_config("problem.family = quadratic\nalgorithm.name = pccd\ndiagnostics.checks = nope")
    # a check that cannot apply is rejected at parse time, on its line
    with pytest.raises(ConfigError) as err:
        parse_config(
            "problem.family = quadratic\nproblem.n = 256\nproblem.d = 64\nalgorithm.name = pccd\n"
            "algorithm.K = 2000\nseeds.count = 4\ndiagnostics.checks = vr-rate"
        )
    assert err.value.errors == [(7, "check vr-rate does not apply to pccd")]
    with pytest.raises(ConfigError) as err:
        parse_config(
            "problem.family = sigmoid\nalgorithm.name = pccd\ndiagnostics.checks = grad-vs-step"
        )
    assert [ln for ln, _ in err.value.errors] == [3]
    assert "needs coupling constants" in err.value.errors[0][1]


def test_streaming_constraints():
    with pytest.raises(ConfigError):
        parse_config("problem.family = streaming\nalgorithm.name = pccd")
    cfg = parse_config(
        """
problem.family = streaming
problem.streaming_family = quadratic
algorithm.name = vrccd
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
algorithm.K = 3
diagnostics.s_surrogate_samples = 64
"""
    )
    assert cfg.problem.family == "streaming"
    res = resolve(cfg)
    assert not res.prob.is_finite
    assert math.isinf(res.prob.n or math.inf)
    # vr-rate reads F and s_k, which only a surrogate records on a stream
    with pytest.raises(ConfigError) as err:
        parse_config(
            "problem.family = streaming\nalgorithm.name = vrccd\nalgorithm.p = 0.5\n"
            "algorithm.b = 8\ndiagnostics.s_surrogate_samples = 0\ndiagnostics.checks = vr-rate"
        )
    assert err.value.errors == [
        (6, "check vr-rate needs diagnostics.s_surrogate_samples > 0 to record F on a "
            "streaming problem")
    ]


def test_backtracking_reserved_for_cyclic_runs():
    with pytest.raises(ConfigError):
        parse_config(
            "problem.family = quadratic\nalgorithm.name = vrccd\nalgorithm.p = 0.5\n"
            "algorithm.b = 8\nlambda.mode = backtracking"
        )


def test_eta_bound_enforcement():
    base = """
problem.family = quadratic
problem.n = 16
algorithm.name = vrccd
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
algorithm.eta = 50
"""
    with pytest.raises(ConfigError):
        resolve(parse_config(base))
    res = resolve(parse_config(base + "algorithm.eta_override = true\n"))
    assert "eta above the admissible bound (override)" in res.conditional


def test_config_echo_is_flat():
    cfg = parse_config(MINIMAL_PCCD)
    flat = config_to_dict(cfg)
    assert flat["problem.family"] == "quadratic"
    assert flat["algorithm.cycles"] == 50
    assert "output.trace_path" in flat
