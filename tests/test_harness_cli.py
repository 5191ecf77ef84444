import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccdlab import checks, cli, harness, suites
from ccdlab.algorithms import NonFiniteObjectiveError, prox_gd_run
from ccdlab.cli import main
from ccdlab.config import parse_config
from ccdlab.harness import (
    TRACE_HEADER,
    resolve,
    run_experiment,
    run_seed,
    sweep,
)
from ccdlab.problems import QuadraticFiniteSum

VR_CHECKED = """
problem.family = quadratic
problem.n = 16
problem.d = 8
problem.m = 4
problem.condition_number = 4
algorithm.name = vrccd
algorithm.K = 12
algorithm.p = 1
algorithm.b = 8
algorithm.bprime = 8
seeds.base = 3
seeds.count = 2
diagnostics.checks = work-accounting
output.trace_path = traces
output.report_path = report
"""


def test_run_experiment_writes_deterministic_traces(tmp_path):
    cfg = parse_config(VR_CHECKED)
    result = run_experiment(cfg, out_dir=tmp_path / "a")
    assert result.exit_code == 0
    assert len(result.trace_paths) == 2
    first = result.trace_paths[0].read_text()
    assert TRACE_HEADER in first
    assert "# resolved.eta" in first  # auto-derived values are echoed
    assert "# resolved.lip_trailing" in first
    # byte-identical rerun
    again = run_experiment(cfg, out_dir=tmp_path / "b")
    assert result.trace_paths[0].read_text() == again.trace_paths[0].read_text()
    # report files exist and carry the schema
    head = result.report_csv.read_text().splitlines()[0]
    assert head == "bound_name,k,lhs,rhs,slack,verdict"
    assert "work-accounting" in result.report_txt.read_text()


def test_trace_schema_and_empty_columns(tmp_path):
    cfg = parse_config(VR_CHECKED)
    result = run_experiment(cfg, out_dir=tmp_path)
    lines = result.trace_paths[0].read_text().splitlines()
    header_at = lines.index(TRACE_HEADER)
    first_row = lines[header_at + 1].split(",")
    assert first_row[0] == "0"
    assert first_row[4] == ""  # u column empty: diagnostics off
    assert first_row[6] == ""  # wall column empty: record_wall off
    assert len(first_row) == 7


RECORD_U = """
problem.family = quadratic
problem.n = 8
problem.d = 4
problem.m = 2
algorithm.name = {name}
algorithm.K = 3
algorithm.b = 4
{extra}seeds.count = 1
diagnostics.record_u = true
output.trace_path = traces
"""


@pytest.mark.parametrize(
    "name, extra, anchored",
    [
        ("sccd", "", False),
        ("sgd", "", False),
        ("vrccd", "algorithm.p = 0.3\nalgorithm.bprime = 2\n", True),
    ],
)
def test_initial_anchor_error_only_where_an_anchor_is_drawn(tmp_path, name, extra, anchored):
    result = run_experiment(parse_config(RECORD_U.format(name=name, extra=extra)), out_dir=tmp_path)
    assert result.exit_code == 0
    lines = result.trace_paths[0].read_text().splitlines()
    u0 = lines[lines.index(TRACE_HEADER) + 1].split(",")[4]
    later = [row.split(",")[4] for row in lines[lines.index(TRACE_HEADER) + 2 :]]
    assert all(float(u) >= 0.0 for u in later)  # every cycle draws its estimate
    if anchored:
        assert float(u0) >= 0.0
    else:
        assert u0 == ""  # p = 1: no anchor batch, so no anchor error at k = 0
    if name == "sccd":  # the potential needs the cyclic order's residual column
        # it reads the missing u_0 as 0 only where its weight (1 - p) eta / (2p) is 0
        trace = result.traces[0]
        checks.potential_values(trace, 0.1, 1.0, 4, 1.0)
        with pytest.raises(ValueError, match="initial anchor error"):
            checks.potential_values(trace, 0.1, 0.3, 4, 1.0)


def test_exit_codes_for_failing_checks(tmp_path, monkeypatch):
    cfg = parse_config(VR_CHECKED)

    def hard_fail(res, traces):
        return [checks.BoundReport("demo", checks.HARD, [1], [2.0], [1.0])]

    monkeypatch.setattr("ccdlab.harness.run_checks", hard_fail)
    assert run_experiment(cfg, out_dir=tmp_path / "hard").exit_code == 2

    calls = {"n": 0}

    def soft_fail_then_pass(res, traces):
        calls["n"] += 1
        lhs = 2.0 if calls["n"] == 1 else 0.5
        return [checks.BoundReport("demo", checks.MONTE_CARLO, [1], [lhs], [1.0])]

    resolves = []

    def counting_resolve(cfg):
        resolves.append(cfg)
        return resolve(cfg)

    monkeypatch.setattr("ccdlab.harness.run_checks", soft_fail_then_pass)
    monkeypatch.setattr("ccdlab.harness.resolve", counting_resolve)
    assert run_experiment(cfg, out_dir=tmp_path / "soft").exit_code == 0
    assert calls["n"] == 2  # escalation re-ran the evidence
    assert len(resolves) == 1  # on the instance resolved for the first stage

    def soft_fail_always(res, traces):
        return [checks.BoundReport("demo", checks.MONTE_CARLO, [1], [2.0], [1.0])]

    monkeypatch.setattr("ccdlab.harness.run_checks", soft_fail_always)
    assert run_experiment(cfg, out_dir=tmp_path / "soft2").exit_code == 1


VR_RATE_L1 = """
problem.family = quadratic
problem.n = 8
problem.d = 4
problem.m = 2
problem.condition_number = 3
problem.reg = l1(0.1)
algorithm.name = vrccd
algorithm.K = 10
algorithm.p = 0.5
algorithm.b = 4
algorithm.bprime = 2
seeds.base = 4
seeds.count = 2
diagnostics.checks = vr-rate
output.trace_path = traces
output.report_path = report
"""


def test_escalation_reuses_the_reference_minimum(tmp_path, monkeypatch):
    # under l1 the reference is a high-precision solve; a vr-rate report that
    # always fails (its rhs still carries delta0, so F*) forces the 4x
    # escalation, which keeps the instance and so needs no second solve
    vr_rate = checks.check_vr_rate

    def failing_vr_rate(*args):
        rep = vr_rate(*args)
        return checks.BoundReport(rep.name, rep.kind, rep.k, rep.rhs + 1.0, rep.rhs,
                                  rep.conditional, rep.low_power)

    solves = []
    solve = harness.reference_minimum

    def counting_reference(res):
        solves.append(res)
        return solve(res)

    monkeypatch.setattr(checks, "check_vr_rate", failing_vr_rate)
    monkeypatch.setattr(harness, "reference_minimum", counting_reference)
    cfg = parse_config(VR_RATE_L1)
    result = run_experiment(cfg, out_dir=tmp_path / "run")
    assert result.exit_code == 1
    assert len(solves) == 1

    # the escalated reports as a fresh check of the 4x seeds computes them
    res = resolve(cfg)
    assert solve(res)[1] == "high_precision_run"
    cfg4 = replace(cfg, seeds=replace(cfg.seeds, count=4 * cfg.seeds.count))
    res4, traces4, _ = harness.run_traces(cfg4, res=replace(res, cfg=cfg4))
    csv, txt = harness.write_report(harness.run_checks(res4, traces4), tmp_path / "fresh" / "report")
    assert len(solves) == 2
    assert result.report_csv.read_bytes() == csv.read_bytes()
    assert result.report_txt.read_bytes() == txt.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = parse_config(VR_CHECKED)
    bad = cfg.with_override("algorithm.b", 64)  # b > n: config.validate rejects it in resolve
    assert run_experiment(bad, out_dir=tmp_path).exit_code == 3
    assert capsys.readouterr().err == "ccdlab: error: line 0: need b <= n\n"


def test_run_error_propagates_and_leaves_the_header_alone(tmp_path):
    # the engine rejects the start point before its first row; that error,
    # not one of the file writing, reaches the caller
    res = resolve(parse_config(VR_CHECKED))
    res = replace(res, run=replace(res.run, x0=np.zeros(3)))
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="x0 does not match the problem dimension"):
        harness._run_one((res, 1003, path, None))
    assert path.read_text().endswith("\n" + TRACE_HEADER + "\n")


def test_sweep_row_counts_and_m_equivalence(tmp_path):
    text = """
problem.family = quadratic
problem.n = 8
problem.d = 8
problem.m = 2
algorithm.name = pccd
algorithm.K = 10
seeds.base = 5
seeds.count = 2
"""
    cfg = parse_config(text)
    path = sweep(cfg, "algorithm.eta_scale", [0.25, 0.5, 1.0], out_dir=tmp_path)
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith(("#", "axis"))]
    assert len(rows) == 6  # 3 values x 2 seeds

    # a single-block sweep value reproduces the full-gradient baseline exactly
    path_m = sweep(cfg, "problem.m", [1, 2], out_dir=tmp_path / "m")
    m1_rows = [ln for ln in path_m.read_text().splitlines() if ln.startswith("problem.m,1,")]
    res = resolve(cfg.with_override("problem.m", 1))
    _, trace = prox_gd_run(res.prob, res.reg, res.run)
    final_f = float(m1_rows[0].split(",")[3])
    assert final_f == trace.obj[-1]


def test_sweep_rejects_non_numeric_axis(tmp_path):
    cfg = parse_config(VR_CHECKED)
    from ccdlab.config import ConfigError

    with pytest.raises(ConfigError):
        sweep(cfg, "problem.family", [1.0], out_dir=tmp_path)


DIVERGING_PCCD = """
problem.family = quadratic
problem.n = 16
problem.d = 8
problem.m = 2
algorithm.name = pccd
algorithm.K = 400
seeds.count = 1
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_sweep_exits_3_when_one_value_diverges(tmp_path, capsys, jobs):
    # two seeds, so that jobs = 2 runs them in the pool
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DIVERGING_PCCD.replace("seeds.count = 1", "seeds.count = 2"))
    args = ["--values", "1,50", "--out-dir", str(tmp_path / "sw"), "--jobs", jobs]
    code = main(["sweep", str(cfg_path), "--axis", "algorithm.eta", *args])
    assert code == 3
    assert capsys.readouterr().err == (
        "ccdlab: error: algorithm.eta = 50: objective value inf at iteration 94\n")
    assert not (tmp_path / "sw" / "sweep.csv").exists()


def test_cli_run_that_diverges_prints_only_its_error_line(tmp_path):
    """The engine's F check reports the divergence; numpy's overflow
    warnings on the way there stay silent."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DIVERGING_PCCD + "algorithm.eta = 50\n")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    script = "import sys; from ccdlab.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 3
    assert re.fullmatch(r"ccdlab: error: objective value inf at iteration \d+\n", done.stderr)


@pytest.mark.parametrize("jobs", [1, 2])
def test_diverging_seeds_exit_3_at_any_jobs_and_leave_their_rows(tmp_path, capsys, jobs):
    """A pool worker's divergence reaches the parent as its error, not as a
    broken pool, and one process, like the pool, runs every seed before it
    raises the first error: at either job count every seed's file holds the
    rows before the failing one, byte for byte as a run of that seed alone
    on one process writes it."""
    cfg = parse_config(DIVERGING_PCCD.replace("seeds.count = 1", "seeds.count = 2")
                       + "algorithm.eta = 50\n")
    with np.errstate(all="ignore"):
        result = run_experiment(cfg, out_dir=tmp_path / "pool", jobs=jobs)
    assert result.exit_code == 3
    assert capsys.readouterr().err == "ccdlab: error: objective value inf at iteration 94\n"
    paths = sorted((tmp_path / "pool").rglob("trace_seed*.csv"))
    assert [p.name for p in paths] == ["trace_seed1000.csv", "trace_seed1001.csv"]
    for path in paths:
        seed = int(path.stem.removeprefix("trace_seed"))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteObjectiveError):
            harness.run_traces(cfg, jobs=1, trace_dir=tmp_path / "serial", seeds=[seed])
        lines = path.read_text().splitlines()
        assert [int(row.split(",")[0]) for row in lines[lines.index(TRACE_HEADER) + 1 :]] == \
            list(range(94))
        assert path.read_bytes() == (tmp_path / "serial" / path.name).read_bytes()


# kappa close to 1: the top eigenvalues of the coupling sum nearly tie, and
# power iteration does not converge within its iteration cap
NEAR_TIED = """
problem.family = quadratic
problem.n = 63
problem.d = 10
problem.m = 2
problem.condition_number = 1.01
algorithm.name = pccd
algorithm.K = 5
seeds.base = 265767123
diagnostics.checks = cyclic-descent, grad-vs-step, stationarity-rate
"""


def test_cli_run_with_near_tied_top_eigenvalues(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(NEAR_TIED)
    code = main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass grad-vs-step" in out


def test_sweep_rejects_non_integral_value_on_integer_axis(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DIVERGING_PCCD)
    args = ["--values", "2.5", "--out-dir", str(tmp_path / "sw"), "--jobs", "1"]
    code = main(["sweep", str(cfg_path), "--axis", "seeds.count", *args])
    err = capsys.readouterr().err
    assert code == 3
    assert "sweep axis seeds.count takes integers, got 2.5" in err
    assert not (tmp_path / "sw").exists()

    from ccdlab.config import ConfigError

    # rejected before any value runs, even after an integral one
    with pytest.raises(ConfigError, match="takes integers"):
        sweep(parse_config(DIVERGING_PCCD), "problem.m", [2, 1.5], out_dir=tmp_path / "m")
    assert not (tmp_path / "m").exists()


SIGMOID_VRCCD = """
problem.family = sigmoid
problem.n = 16
problem.d = 8
problem.m = 4
algorithm.name = vrccd
algorithm.K = 5
algorithm.p = 0.5
algorithm.b = 8
seeds.count = 2
"""


def test_sweep_takes_every_numeric_config_field(tmp_path):
    # a float field sweeps too; eta = auto scales the step-size bound that
    # the sigmoid run computes from its coupling constants
    path = sweep(parse_config(SIGMOID_VRCCD), "algorithm.eta_scale", [0.5, 1.0], out_dir=tmp_path)
    rows = [ln.split(",") for ln in path.read_text().splitlines()
            if ln.startswith("algorithm.eta_scale,")]
    assert len(rows) == 4  # 2 values x 2 seeds
    final_f = {(value, seed): f for _, value, seed, f, _, _ in rows}
    assert all(final_f["0.5", seed] != final_f["1", seed] for _, _, seed, *_ in rows)


def test_parallel_jobs_match_serial(tmp_path):
    cfg = parse_config(VR_CHECKED)
    serial = run_experiment(cfg, out_dir=tmp_path / "s", jobs=1)
    # jobs = 8 exceeds the two seeds: the pool is capped at one worker per seed
    for jobs in (2, 8):
        parallel = run_experiment(cfg, out_dir=tmp_path / f"p{jobs}", jobs=jobs)
        assert len(parallel.trace_paths) == len(serial.trace_paths) == 2
        for a, b in zip(serial.trace_paths, parallel.trace_paths):
            assert a.read_text() == b.read_text()


def test_pool_resolves_once(tmp_path, monkeypatch):
    # forked workers inherit the wrapper, so a resolve in a worker would
    # leave its own pid in the log
    log = tmp_path / "resolve_pids"

    def logging_resolve(cfg):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return resolve(cfg)

    monkeypatch.setattr(harness, "resolve", logging_resolve)
    cfg = parse_config(VR_CHECKED).with_override("seeds.count", 4)
    result = run_experiment(cfg, out_dir=tmp_path / "out", jobs=2)
    assert result.exit_code == 0
    assert len(result.trace_paths) == 4
    assert log.read_text().split() == [str(os.getpid())]


@pytest.mark.parametrize("check, algorithm", [
    ("vr-pl-rate", "algorithm.name = vrccd\nalgorithm.schedule = finite_sum\n"),
    ("pl-envelope", "algorithm.name = pccd\n"),
], ids=["vr-pl-rate", "pl-envelope"])
def test_pl_constant_computed_once_per_experiment(tmp_path, monkeypatch, check, algorithm):
    # resolve computes the PL constant; the step size and the check read it
    calls = []
    family_pl_constant = QuadraticFiniteSum.pl_constant

    def counting_pl_constant(prob, metric):
        calls.append(prob)
        return family_pl_constant(prob, metric)

    monkeypatch.setattr(QuadraticFiniteSum, "pl_constant", counting_pl_constant)
    cfg = parse_config(
        "problem.n = 16\nproblem.d = 8\nproblem.m = 4\nalgorithm.K = 10\n"
        f"{algorithm}seeds.count = 2\ndiagnostics.checks = {check}\n"
    )
    result = run_experiment(cfg, out_dir=tmp_path / "out")
    assert {r.name for r in result.reports} == {check}
    assert len(calls) == 1


_SMALL = "problem.n = 8\nproblem.d = 6\nproblem.m = 3\n"
_STREAM = (
    "problem.family = streaming\nproblem.n = inf\nproblem.d = 6\nproblem.m = 3\n"
    "algorithm.name = vrccd\nalgorithm.p = 0.5\nalgorithm.b = 4\n"
)


@pytest.mark.parametrize("text, provenance", [
    (_SMALL, "closed_form"),
    (_SMALL + "problem.reg = l1(0.1)\n", "high_precision_run"),
    (_SMALL + "problem.reg = box(-0.5, 0.5)\n", "high_precision_run"),
    (_SMALL + "problem.convex = false\nproblem.reg = box(-1, 1)\n", "unavailable"),
    (_SMALL + "problem.family = sigmoid\n", "unavailable"),
    (_STREAM, "unavailable"),
    (_STREAM + "problem.streaming_family = sigmoid\nlambda.values = 2, 2, 2\n", "unavailable"),
], ids=["quadratic-zero", "quadratic-l1", "quadratic-box", "nonconvex-box", "sigmoid",
        "streaming-quadratic", "streaming-sigmoid"])
def test_reference_minimum_by_family_and_regularizer(text, provenance):
    # the closed form when the instance has one, the high-precision solve
    # when it reaches F*, no reference otherwise
    res = resolve(parse_config(text))
    value, got = harness.reference_minimum(res)
    assert got == provenance
    if provenance == "closed_form":
        assert value == res.prob.f_star
    elif provenance == "high_precision_run":
        start = res.prob.value(res.run.x0) + res.reg.value(res.run.x0, res.prob.partition)
        assert value < start
    else:
        assert math.isnan(value)


@pytest.mark.parametrize("check, algorithm", [
    ("vr-pl-rate", "algorithm.name = vrccd\nalgorithm.schedule = finite_sum\n"),
    ("pl-envelope", "algorithm.name = pccd\n"),
], ids=["vr-pl-rate", "pl-envelope"])
def test_pl_constant_is_the_smallest_metric_normalized_eigenvalue(check, algorithm):
    res = resolve(parse_config(
        f"problem.n = 16\nproblem.d = 8\nproblem.m = 4\n{algorithm}"
        f"diagnostics.checks = {check}\n"
    ))
    inv_rt = 1.0 / res.run.metric.sqrt_entries
    scaled = inv_rt[:, None] * res.prob.mean_quad * inv_rt[None, :]
    assert res.mu == float(np.linalg.eigvalsh(scaled)[0])


def test_cli_run_and_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(VR_CHECKED)
    code = main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "work-accounting" in out and "trace:" in out

    code = main(
        [
            "sweep",
            str(cfg_path),
            "--axis",
            "algorithm.eta_scale",
            "--values",
            "0.5,1.0",
            "--out-dir",
            str(tmp_path / "sw"),
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()

    code = main(["run", str(tmp_path / "missing.cfg")])
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "nosuch"], "invalid choice: 'nosuch'"),
        (["run"], "the following arguments are required: config"),
        (["run", "exp.cfg", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
        (["sweep", "exp.cfg", "--axis", "algorithm.K", "--values", "1", "--jobs", "-2"],
         "argument --jobs: must be >= 1, got -2"),
    ],
)
def test_cli_usage_errors_exit_3(argv, message, capsys):
    # argparse's own exit 2 would read as a deterministic bound violation
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cli_check_reports_a_suite_error_and_exits_3(monkeypatch, capsys):
    # an escaped exception would exit 1, which reads as a Monte Carlo failure;
    # check all runs the other suites, and a FAIL among them still shows
    def raising():
        raise ValueError("no instance")

    def failing():
        return suites.SuiteResult("b-fails", ["forced"], oracle_failed=True)

    monkeypatch.setattr(suites, "SUITES", {"a-raises": raising, "b-fails": failing})
    monkeypatch.setattr(cli, "SUITES", suites.SUITES)
    assert main(["check", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback")
    assert 'raise ValueError("no instance")' in captured.err
    assert captured.err.endswith("ccdlab: error: a-raises: no instance\n")
    assert captured.out.startswith("FAIL b-fails")


def test_vr_potential_inexact_anchor_fails_the_suite_without_raising(monkeypatch):
    """The exact-anchor case's u_k <= 1e-20 is part of the verdict, so it
    holds under ``python -O`` and ``ccdlab check`` prints a FAIL line. Every
    run keeps 4 seeds, and every bound report still passes: the forced u_k
    alone fails the suite."""
    check = suites._check
    reports = []

    def inexact_anchor(seed, problem, algorithm, checked, seeds, **fields):
        res, traces, reps = check(seed, problem, algorithm, checked, seeds[:4], **fields)
        reports.extend(reps)
        if seed == 7100:
            traces[0].est_err_sq[-1] = 1e-19
        return res, traces, reps

    monkeypatch.setattr(suites, "_check", inexact_anchor)
    result = suites.suite_vr_potential()
    assert len(reports) == 2 and all(rep.passed for rep in reports)
    assert result.passed is False
    assert "exact-anchor estimates: 1 u_k above 1e-20, largest=1.000e-19" in result.lines


@pytest.mark.parametrize(
    "forced, status",
    [((7200,), 1), ((7100,), 2), ((7100, 7200), 2)],
    ids=["monte-carlo", "hard", "both"],
)
def test_cli_check_exits_by_the_kind_of_failed_report(forced, status, monkeypatch, capsys):
    """``ccdlab check`` exits 1 when only a Monte Carlo report of a suite
    fails and 2 when a hard one does, as ``ccdlab run`` does. vr-potential's
    exact-anchor case (instance 7100) makes a hard report and its generic
    case (7200) a Monte Carlo one; each run keeps 4 seeds."""
    check = suites._check
    kinds = {}

    def forced_fail(seed, problem, algorithm, checked, seeds, **fields):
        res, traces, reps = check(seed, problem, algorithm, checked, seeds[:4], **fields)
        (rep,) = reps
        kinds[seed] = rep.kind
        if seed in forced:
            rep = checks.BoundReport(rep.name, rep.kind, [1], [1.0], [0.0])
        return res, traces, [rep]

    monkeypatch.setattr(suites, "_check", forced_fail)
    assert main(["check", "vr-potential"]) == status
    assert kinds == {7100: checks.HARD, 7200: checks.MONTE_CARLO}
    assert capsys.readouterr().out.startswith("FAIL vr-potential")


def _failing_report(kind, advisory=False):
    return checks.BoundReport("stub", kind, [1], [1.0], [0.0], advisory=advisory)


@pytest.mark.parametrize(
    "result, verdict, status",
    [
        (suites.SuiteResult("stub", reports=[_failing_report(checks.HARD)]), "FAIL", 2),
        (suites.SuiteResult("stub", reports=[_failing_report(checks.MONTE_CARLO)]), "FAIL", 1),
        (suites.SuiteResult("stub", oracle_failed=True), "FAIL", 2),
        (suites.SuiteResult("stub", reports=[_failing_report(checks.HARD, advisory=True)]),
         "PASS", 0),
    ],
    ids=["hard", "monte-carlo", "oracle", "advisory"],
)
def test_cli_check_judges_a_suite_by_the_rule_run_uses(result, verdict, status, monkeypatch,
                                                         capsys):
    """A suite's verdict is ``harness.failed`` over its reports, as in
    ``ccdlab run``: a failing hard report or oracle comparison exits 2, a
    failing Monte Carlo report 1, and a failing advisory report never gates."""
    monkeypatch.setattr(suites, "SUITES", {"stub": lambda: result})
    monkeypatch.setattr(cli, "SUITES", suites.SUITES)
    assert main(["check", "stub"]) == status
    assert capsys.readouterr().out.startswith(f"{verdict} stub")


def test_check_and_run_share_one_exit_rule(monkeypatch, tmp_path):
    seen = []
    rule = harness.exit_status

    def recording(hard_failed, monte_carlo_failed):
        seen.append((hard_failed, monte_carlo_failed))
        return rule(hard_failed, monte_carlo_failed)

    monkeypatch.setattr(harness, "exit_status", recording)
    monkeypatch.setattr(cli, "exit_status", recording)
    monkeypatch.setattr(suites, "SUITES", {
        "mc": lambda: suites.SuiteResult("mc", reports=[_failing_report(checks.MONTE_CARLO)]),
        "ok": lambda: suites.SuiteResult("ok"),
    })
    monkeypatch.setattr(cli, "SUITES", suites.SUITES)
    assert main(["check", "all"]) == 1
    assert seen == [(False, True), (False, False)]
    assert run_experiment(parse_config(VR_CHECKED), out_dir=tmp_path).exit_code == 0
    assert seen[2:] == [(False, False)]
    assert [rule(h, m) for h in (False, True) for m in (False, True)] == [0, 1, 2, 2]


def test_cli_seed_override_changes_instance(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(VR_CHECKED)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", str(cfg_path), "--out-dir", str(out1), "--jobs", "1"]) == 0
    assert main(["run", str(cfg_path), "--seed", "99", "--out-dir", str(out2), "--jobs", "1"]) == 0
    a = sorted(out1.glob("traces/*.csv"))[0].read_text()
    b = sorted(out2.glob("traces/*.csv"))[0].read_text()
    assert a != b


def test_run_seed_matches_experiment_rows(tmp_path):
    cfg = parse_config(VR_CHECKED)
    res = resolve(cfg)
    _, trace = run_seed(res, cfg.seeds.base + 1000)
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.traces[0].obj == trace.obj


def test_advisory_reference_never_gates_exit(tmp_path):
    # no certified minimum exists for a nonconvex instance; telescoping and
    # rate reports fall back to the best observed objective and are
    # report-only, so the exit code stays green either way
    cfg = parse_config(
        """
problem.family = quadratic
problem.n = 6
problem.d = 8
problem.m = 2
problem.convex = false
problem.reg = box(-2, 2)
algorithm.name = pccd
algorithm.K = 15
seeds.base = 17
diagnostics.checks = step-telescope, stationarity-rate, cyclic-descent
"""
    )
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.exit_code == 0
    by_name = {}
    for rep in result.reports:
        by_name.setdefault(rep.name, []).append(rep)
    assert all(r.advisory for r in by_name["step-telescope"])
    assert all(r.advisory for r in by_name["stationarity-rate"])
    assert all("best-observed" in " ".join(r.conditional) for r in by_name["stationarity-rate"])
    assert not any(r.advisory for r in by_name["cyclic-descent"])
    assert all(r.passed for r in by_name["cyclic-descent"])


_SIGMOID = """\
problem.family = sigmoid
problem.n = 16
problem.d = 8
problem.m = 4
algorithm.K = 15
seeds.base = 7
"""


@pytest.mark.parametrize("run", [
    "algorithm.name = pccd\ndiagnostics.checks = grad-vs-step, stationarity-rate\n",
    "algorithm.name = vrccd\nalgorithm.p = 0.3\nalgorithm.b = 8\nseeds.count = 4\n"
    "diagnostics.record_u = true\ndiagnostics.checks = vr-grad-vs-step, vr-potential, vr-rate\n",
])
def test_sigmoid_verdicts_rest_on_no_supplied_or_start_point_premise(run, tmp_path):
    # the coupling constants and sigma^2 come from the loss; only the
    # missing certified minimum leaves a tag
    result = run_experiment(parse_config(_SIGMOID + run), out_dir=tmp_path)
    assert result.exit_code == 0
    tags = {tag for rep in result.reports for tag in rep.conditional}
    assert tags <= {"best-observed objective as reference"}
    assert all(not rep.conditional for rep in result.reports if "grad-vs-step" in rep.name)


def test_fixed_sigmoid_metric_is_load_bearing(tmp_path):
    """Negative control: on the golden sigmoid instance, cyclic-descent
    passes under the sigmoid_bound block scales (0.0531, 0.0841, 0.0510,
    0.0631) and fails hard at 0.05 times them. The measured critical factor
    is about 0.0566: 0.06 times the scales passes, 0.055 times fails."""
    text = _SIGMOID + "algorithm.name = pccd\ndiagnostics.checks = cyclic-descent\n"
    res = resolve(parse_config(text))
    scales = [float(res.run.metric.entries[cols.start]) for cols in res.prob.partition.slices]
    for factor, code in ((1.0, 0), (0.05, 2)):
        values = ", ".join(repr(factor * scale) for scale in scales)
        cfg = parse_config(text + f"lambda.values = {values}\n")
        assert run_experiment(cfg, out_dir=tmp_path / str(factor)).exit_code == code


# lambda.values far below the curvature: the run diverges
SMALL_METRIC_L1 = """
problem.family = quadratic
problem.n = 8
problem.d = 8
problem.m = 2
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = 20
lambda.values = 0.01, 0.01
diagnostics.checks = step-telescope
"""


def test_reference_solve_takes_the_instance_metric(tmp_path, capsys):
    # F* belongs to the instance: its high-precision solve converges under
    # the exact metric although the run's metric diverges
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_METRIC_L1)
    argv = ["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]
    assert main(argv) == 2
    assert "FAIL step-telescope (hard" in capsys.readouterr().out
    assert (tmp_path / "out" / "report.txt").exists()


def test_streaming_sigmoid_without_explicit_metric_exits_3(tmp_path, capsys):
    # without lambda.values the metric would be exact_quadratic, which this
    # family lacks
    text = """
problem.family = streaming
problem.streaming_family = sigmoid
problem.d = 6
problem.m = 2
algorithm.name = sgd
algorithm.K = 3
algorithm.eta = 0.1
algorithm.b = 8
diagnostics.s_surrogate_samples = 64
"""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]) == 3
    assert (
        "line 3: a streaming sigmoid problem has no exact_quadratic metric; set lambda.values"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()
    cfg_path.write_text(text + "lambda.values = 1, 1\n")
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "ok"), "--jobs", "1"]) == 0


def test_streaming_experiment_smoke(tmp_path):
    cfg = parse_config(
        """
problem.family = streaming
problem.streaming_family = quadratic
problem.d = 6
problem.m = 2
algorithm.name = vrccd
algorithm.K = 4
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
seeds.base = 11
diagnostics.s_surrogate_samples = 128
"""
    )
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.exit_code == 0
    trace = result.traces[0]
    assert all(v is not None for v in trace.obj)  # surrogate objective recorded
    assert all(v is not None for v in trace.stat_sq[1:])
    # byte-identical rerun holds for the surrogate path too
    again = run_experiment(cfg, out_dir=tmp_path / "again")
    assert result.trace_paths[0].read_text() == again.trace_paths[0].read_text()


def test_header_echoes_the_instance_n(tmp_path):
    # a stream that leaves problem.n at its default still has n = inf
    stream = parse_config(
        "problem.family = streaming\nproblem.d = 6\nproblem.m = 2\nalgorithm.name = vrccd\n"
        "algorithm.K = 2\nalgorithm.p = 0.5\nalgorithm.b = 8\n"
    )
    assert stream.problem.n == 32
    (path,) = run_experiment(stream, out_dir=tmp_path).trace_paths
    assert "# problem.n = inf\n" in path.read_text()
    # a finite instance echoes the config's n, as the integer it is
    res = resolve(parse_config(VR_CHECKED))
    assert res.echo()["problem.n"] == 16 and type(res.echo()["problem.n"]) is int


@pytest.mark.parametrize(
    "line, argv, message",
    [
        ("problem.condition_number = nan", ["run"],
         "problem.condition_number: expected a finite number, got 'nan'"),
        ("problem.reg = l1(nan)", ["run"], "problem.reg: expected a finite number, got 'nan'"),
        ("algorithm.eta = inf", ["run"], "algorithm.eta: expected a finite number, got 'inf'"),
        ("lambda.values = 1, -inf", ["run"], "lambda.values: expected a finite number, got '-inf'"),
        ("", ["sweep", "--axis", "algorithm.eta_scale", "--values", "1,nan"],
         "sweep axis algorithm.eta_scale takes finite numbers, got nan"),
        ("", ["sweep", "--axis", "problem.n", "--values", "8,inf"],
         "sweep axis problem.n takes finite numbers, got inf"),
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, line, argv, message):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DIVERGING_PCCD + line + "\n")
    command, *rest = argv
    code = main([command, str(cfg_path), *rest, "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert message in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--axis", "algorithm.eta_scale", "--values", "0.5,1"]],
                         ids=["run", "sweep"])
def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys, argv):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes(DIVERGING_PCCD.encode() + b"# caf\xe9\n")
    command, *rest = argv
    code = main([command, str(cfg_path), *rest, "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    line = DIVERGING_PCCD.count("\n") + 1
    assert code == 3
    assert f"ccdlab: line {line}: {cfg_path} is not UTF-8 text" in err
    assert "Traceback" not in err and "--values" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_bad_run_parameter_rejected_before_any_trace_file(tmp_path, capsys):
    # the run config is built and checked once, when the experiment resolves
    cfg = parse_config(VR_CHECKED).with_override("algorithm.eta", float("nan"))
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.exit_code == 3
    assert "ccdlab: error: eta must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
