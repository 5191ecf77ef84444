"""Every accepted config key changes the run, or the config is rejected.

Exhaustive over ``config.KEYS`` and seven tiny base configs, which cover
every problem kind (the pccd quadratic boxed, since a nonconvex quadratic
needs a box), exact and recursive gradients, the finite-sum schedule
and the step size from the sigmoid coupling constants: each key takes one
alternative value that passes its own parser and bound. The changed config
must either be rejected on that key's line, or change the outcome: the exit
code, the output paths, a trace body (the rows under the ``#`` header, which
echoes every key) or a report byte. Every key must also be accepted, and
take effect, on some base.
"""

import tempfile
from pathlib import Path

import numpy as np

from ccdlab.config import KEYS, ConfigError, parse_config
from ccdlab.harness import run_experiment

_TINY = {"problem.n": "8", "problem.d": "4", "problem.m": "2", "algorithm.K": "3"}
_VRCCD = {"algorithm.name": "vrccd", "algorithm.p": "0.5", "algorithm.b": "4"}
_STREAM = {"problem.family": "streaming", **_TINY, "problem.n": "inf"}
BASES = {
    "quadratic vrccd": {
        "problem.family": "quadratic", **_TINY, **_VRCCD, "diagnostics.checks": "vr-rate",
    },
    "quadratic vrccd schedule": {
        "problem.family": "quadratic", **_TINY, "algorithm.name": "vrccd",
        "algorithm.schedule": "finite_sum",
    },
    # boxed, so that problem.convex = false is accepted and takes effect
    "quadratic pccd": {
        "problem.family": "quadratic", **_TINY, "problem.reg": "box(-2, 2)",
        "algorithm.name": "pccd", "diagnostics.checks": "cyclic-descent",
    },
    "sigmoid pccd": {"problem.family": "sigmoid", **_TINY, "algorithm.name": "pccd"},
    "sigmoid vrccd": {
        "problem.family": "sigmoid", **_TINY, **_VRCCD, "diagnostics.checks": "vr-rate",
    },
    "streaming quadratic vrccd": {**_STREAM, **_VRCCD, "diagnostics.s_surrogate_samples": "64"},
    "streaming sigmoid vrccd": {
        **_STREAM, "problem.streaming_family": "sigmoid", **_VRCCD, "algorithm.eta": "0.05",
        "lambda.values": "2, 2",
        "diagnostics.s_surrogate_samples": "64",
    },
}
# candidate values per key; a base takes the first one that differs from its own
ALTERNATIVES = {
    "problem.family": ["sigmoid", "quadratic"],
    "problem.n": ["6"],
    "problem.d": ["6"],
    "problem.m": ["1"],
    "problem.condition_number": ["3"],
    "problem.convex": ["false"],
    "problem.identical_curvature": ["true"],
    "problem.margin": ["0"],  # 1 and 2 flip none of the tiny base's eight labels
    "problem.reg": ["l1(0.1)"],
    "problem.streaming_family": ["sigmoid", "quadratic"],
    "problem.lin_scale": ["2"],
    "problem.sigma_sq": ["0.5"],
    "algorithm.name": ["vroccd", "prox_gd"],
    "algorithm.K": ["2"],
    "algorithm.eta": ["0.01", "0.02"],
    "algorithm.eta_scale": ["0.5"],
    "algorithm.p": ["0.25"],
    "algorithm.b": ["2"],
    "algorithm.bprime": ["1"],
    "algorithm.sample_sharing": ["shared_per_cycle"],
    "algorithm.schedule": ["finite_sum"],
    "algorithm.eta_override": ["true"],
    "lambda.values": ["3, 3"],
    "seeds.base": ["1"],
    "seeds.count": ["2"],
    "diagnostics.record_u": ["true"],
    "diagnostics.checks": ["work-accounting", "cyclic-descent"],
    "diagnostics.s_surrogate_samples": ["32"],
    "output.trace_path": ["elsewhere"],
    "output.report_path": ["elsewhere"],
    "output.record_wall": ["true"],
}
# keys that decide whether, or how, other keys are read: a change to one of
# them may be rejected on the line of a key it leaves unread or inconsistent
DECIDERS = {
    "problem.family", "problem.streaming_family", "problem.m", "algorithm.name",
    "algorithm.schedule", "diagnostics.checks",
}
# a permission, read only when eta exceeds the admissible bound: it may be
# accepted without effect, and is tested on a base whose eta does
PERMISSIONS = {"algorithm.eta_override"}
# the schedule sets p and b, which a stochastic base without it must set, so
# adding it to a base is always rejected on their lines; each base that has
# it reads it (test_config pins what it resolves to)
NEVER_ADDED = {"algorithm.schedule"}


def _text(fields: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def _outcome(text: str) -> tuple:
    """Exit code, then each output file: a trace's rows under its header, a
    report's bytes."""
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        code = run_experiment(parse_config(text), out_dir=tmp).exit_code
        files = {}
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                lines = path.read_text().splitlines()
                files[path.relative_to(tmp).as_posix()] = [ln for ln in lines if ln[:1] != "#"]
    return code, files


def test_every_key_is_rejected_on_its_line_or_takes_effect():
    assert set(ALTERNATIVES) == set(KEYS)
    took_effect = set()
    for base_name, base in BASES.items():
        before = _outcome(_text(base))
        for key, candidates in ALTERNATIVES.items():
            value = next((v for v in candidates if v != base.get(key)), None)
            if value is None:  # the base already takes the only alternative
                continue
            fields = {**base, key: value}
            line = list(fields).index(key) + 1
            case = f"{key} = {value} on {base_name}"
            try:
                parse_config(_text(fields))
            except ConfigError as err:
                assert key in DECIDERS or line in [ln for ln, _ in err.errors], f"{case}: {err}"
                continue
            if _outcome(_text(fields)) != before:
                took_effect.add(key)
            else:
                assert key in PERMISSIONS, f"{case} is accepted and changes nothing"
    assert took_effect == set(KEYS) - PERMISSIONS - NEVER_ADDED


def test_eta_override_takes_effect_above_the_bound():
    above = {**BASES["quadratic vrccd"], "algorithm.eta": "50"}
    assert _outcome(_text(above))[0] == 3
    overridden = _outcome(_text({**above, "algorithm.eta_override": "true"}))
    assert overridden[0] != 3 and overridden[1]
