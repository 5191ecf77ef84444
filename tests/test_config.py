import math
import re

import pytest

from ccdlab.cli import main
from ccdlab.config import STOCHASTIC, ConfigError, config_to_dict, parse_config
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
    "sccd": "algorithm.name = sccd\nalgorithm.b = 4\n",
    "vrccd-schedule": "algorithm.name = vrccd\nalgorithm.schedule = finite_sum\n",
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
        ("sccd", "algorithm.bprime = 2"),
        # b' above the b that the schedule derives (b = n = 8)
        ("vrccd-schedule", "algorithm.bprime = 9"),
        ("vrccd-schedule", "algorithm.bprime = 40"),
        ("vrccd", "problem.sigma_sq = -5"),
        # keys the problem kind, or another key's value, leaves unread
        ("pccd", "lambda.values = 1, 2, 3"),  # one scale per block of m = 2
        ("pccd", "problem.margin = 1"),
        ("pccd", "problem.streaming_family = sigmoid"),
        ("pccd", "output.report_path = elsewhere"),
        ("pccd", "algorithm.eta_override = true"),
        ("sigmoid-pccd", "problem.condition_number = 50"),
        ("sigmoid-pccd", "problem.convex = false"),
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


# resolved (p, b, b', sample sharing) at n = 16 of each stochastic method
# under explicit keys (p = 0.5 where p is not fixed, b = 8), the finite-sum
# schedule, and the schedule with bprime = 8 (None: rejected on its line)
FRESH, SHARED = "fresh_per_block", "shared_per_cycle"
_SETTINGS = (
    "algorithm.b = 8\n",
    "algorithm.schedule = finite_sum\n",
    "algorithm.schedule = finite_sum\nalgorithm.bprime = 8\n",
)
_ESTIMATOR = {
    "vrccd": ((0.5, 8, 3, FRESH), (4 / 20, 16, 4, FRESH), (8 / 24, 16, 8, FRESH)),
    "vroccd": ((0.5, 8, 3, SHARED), (4 / 20, 16, 4, SHARED), (8 / 24, 16, 8, SHARED)),
    "sccd": ((1.0, 8, 8, FRESH), (1.0, 16, 4, FRESH), None),
    "page": ((0.5, 8, 3, FRESH), (4 / 20, 16, 4, FRESH), (8 / 24, 16, 8, FRESH)),
    "sgd": ((1.0, 8, 8, FRESH), (1.0, 16, 16, FRESH), None),
}


@pytest.mark.parametrize("name", STOCHASTIC)
@pytest.mark.parametrize("setting", range(len(_SETTINGS)))
def test_estimator_settings_resolve(name, setting):
    fixed_p = name in ("sccd", "sgd")
    keys = "algorithm.p = 0.5\n" if setting == 0 and not fixed_p else ""
    text = f"problem.n = 16\nproblem.d = 4\nproblem.m = 2\nalgorithm.name = {name}\n"
    text += keys + _SETTINGS[setting]
    want = _ESTIMATOR[name][setting]
    if want is None:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [(6, f"{name} never reads algorithm.bprime")]
        return
    run = resolve(parse_config(text)).run
    assert (run.p, run.b, run.b_prime, run.sample_sharing) == want


_SIGMOID_VRCCD = """
problem.family = sigmoid
algorithm.name = vrccd
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
"""


def test_eta_auto_resolves_from_computed_constants_for_sigmoid():
    res = resolve(parse_config(_SIGMOID_VRCCD))
    assert res.profile is not None
    assert res.run.eta == res.eta_bound and res.conditional == ()
    # page and sgd derive their step from the same computed constants
    for name, keys in (("page", "algorithm.p = 0.5\n"), ("sgd", "")):
        text = f"problem.family = sigmoid\nalgorithm.name = {name}\nalgorithm.b = 8\n{keys}"
        res = resolve(parse_config(text))
        assert res.run.eta == res.eta_bound > 0


@pytest.mark.parametrize("key", ["lambda.lip_trailing", "lambda.lip_leading"])
def test_supplied_coupling_keys_are_unknown(key, tmp_path, capsys):
    text = _SIGMOID_VRCCD.lstrip() + f"{key} = 0.5\n"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    code = main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert f"line {len(text.splitlines())}: unknown key '{key}'" in err


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
    # sigmoid pccd takes the sigmoid_bound metric, whose coupling constants
    # the checks read
    res = resolve(parse_config(
        "problem.family = sigmoid\nalgorithm.name = pccd\ndiagnostics.checks = grad-vs-step"
    ))
    assert res.profile is not None


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
    assert res.prob.n == math.inf
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
    # a streaming sigmoid run computes its coupling constants and sigma^2
    # bound from the loss, so vr-rate needs neither supplied
    res = resolve(parse_config(
        "problem.family = streaming\nproblem.streaming_family = sigmoid\nalgorithm.name = vrccd\n"
        "algorithm.p = 0.5\nalgorithm.b = 8\nlambda.values = 2, 2, 2, 2\n"
        "diagnostics.checks = vr-rate"
    ))
    assert res.profile is not None and res.run.eta == res.eta_bound


@pytest.mark.parametrize("mode", ["backtracking", "sigmoid_bound"])
def test_lambda_mode_is_an_unknown_key(mode):
    # the metric follows from the family and lambda.values
    with pytest.raises(ConfigError) as err:
        parse_config(f"problem.family = sigmoid\nalgorithm.name = pccd\nlambda.mode = {mode}")
    assert err.value.errors == [(3, "unknown key 'lambda.mode'")]


def test_lambda_mode_follows_from_family_and_values():
    stream = (
        "problem.family = streaming\nalgorithm.name = vrccd\nalgorithm.p = 0.5\nalgorithm.b = 4\n"
    )
    for text, mode in (
        ("problem.family = sigmoid", "sigmoid_bound"),
        ("problem.family = quadratic", "exact_quadratic"),
        (stream, "exact_quadratic"),
        (stream + "problem.streaming_family = sigmoid\nlambda.values = 2, 2, 2, 2", "explicit"),
    ):
        assert resolve(parse_config(text)).echo()["resolved.lambda_mode"] == mode
    for family in ("quadratic", "sigmoid"):
        text = f"problem.family = {family}\nproblem.m = 2\nlambda.values = 1, 2\n"
        res = resolve(parse_config(text))
        assert res.echo()["resolved.lambda_mode"] == "explicit"
        assert list(res.run.metric.entries) == [1.0] * 8 + [2.0] * 8


@pytest.mark.parametrize("reg, code", [("zero", 3), ("l1(0.1)", 3), ("box(-2, 2)", 0)])
def test_nonconvex_quadratic_needs_a_box(reg, code, tmp_path, capsys):
    # negative curvature makes the objective unbounded below, and a linear
    # penalty does not bound it: only a box keeps the checks meaningful
    text = (
        "problem.family = quadratic\nproblem.n = 3\nproblem.d = 4\nproblem.m = 2\n"
        f"problem.convex = false\nproblem.reg = {reg}\nalgorithm.name = pccd\n"
        "algorithm.K = 30\ndiagnostics.checks = step-telescope\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert re.findall(r"line (\d+):", err) == ["5"]
        assert "only on a box" in err


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
