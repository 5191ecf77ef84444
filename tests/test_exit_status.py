"""The exit-status contract of ``ccdlab run`` under search: a drawn quadratic
config exits 0, 1, 2 or 3, never in a traceback, and exit 3 always says why
on stderr. The draws include invalid combinations on purpose."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.cli import main


@st.composite
def quadratic_configs(draw):
    name = draw(st.sampled_from(["vrccd", "vroccd", "page", "sgd"]))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    b = draw(st.integers(1, n))
    fields = {
        "problem.family": "quadratic",
        "problem.n": n,
        "problem.d": d,
        "problem.m": draw(st.integers(1, d)),
        "problem.condition_number": draw(st.sampled_from([1, 1.01, 2, 10, 1000])),
        "problem.reg": draw(st.sampled_from(["zero", "l1(0.1)", "box(-1, 1)"])),
        "algorithm.name": name,
        "algorithm.K": draw(st.integers(1, 3)),
        "algorithm.b": b,
        "seeds.base": draw(st.integers(0, 2**31 - 1)),
        "seeds.count": 1,
    }
    if name != "sgd":
        fields["algorithm.p"] = draw(st.sampled_from([0.05, 0.5, 1.0]))
        fields["algorithm.bprime"] = draw(st.integers(1, b))
    sharing = draw(st.sampled_from([None, "shared_per_cycle", "fresh_per_block"]))
    if sharing is not None and not (name == "vroccd" and sharing == "fresh_per_block"):
        fields["algorithm.sample_sharing"] = sharing
    checks = draw(st.sampled_from([None, "vr-descent, vr-grad-vs-step", "work-accounting"]))
    if checks is not None:
        fields["diagnostics.checks"] = checks
        fields["diagnostics.record_u"] = draw(st.booleans())
    # about half the draws break one field, to reach the exit-3 paths
    broken = draw(st.sampled_from([None] * 5 + ["problem.m", "algorithm.b", "algorithm.p",
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


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(quadratic_configs())
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
