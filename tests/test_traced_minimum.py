"""F* read off a pccd run (``harness.traced_minimum``) against the reference
solve it replaces (``harness.reference_minimum``).

When a checked run steps the solve's trajectory (pccd, eta = 1, the family's
``metric()``, the run's start point), the checks take the solve's F* from
the run's rows: up to the first squared step at most 1e-28, or every row of
a replayed orbit. Both values must agree bit for bit wherever the shortcut
applies, and every other run must still be solved, once per experiment.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from test_benchmark_inputs import _workloads
from test_golden_traces import CONFIGS
from test_trace_chunks import PCCD_L1

from ccdlab import harness, problems, suites
from ccdlab.config import parse_config
from ccdlab.harness import run_experiment

PCCD_L1_MANY = _workloads()["pccd-l1-many"]
SOLVE = harness.reference_minimum


def _solved(res) -> float:
    return SOLVE(res)[0]


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def _stop_row(trace):
    return next((k for k, v in enumerate(trace.step_sq) if k and v <= 1e-28), None)


def _counting_solves(monkeypatch) -> list:
    """Record every ``reference_minimum`` call the harness makes."""
    solves = []

    def counting(res):
        solves.append(res)
        return SOLVE(res)

    monkeypatch.setattr(harness, "reference_minimum", counting)
    return solves


@pytest.mark.parametrize("seed", range(5))
def test_pccd_l1_many_reads_the_solved_minimum(seed):
    for text in PCCD_L1_MANY.configs(seed, False):
        res, (trace,), _ = harness.run_traces(parse_config(text))
        f_star = harness.traced_minimum(res, trace)
        assert f_star is not None
        assert _same_bits(f_star, _solved(res))


def test_golden_configs_read_the_solved_minimum_where_they_can():
    applied = 0
    for text in CONFIGS.values():
        res, traces, _ = harness.run_traces(parse_config(text))
        f_star = harness.traced_minimum(res, traces[0])
        if f_star is not None:
            applied += 1
            assert _same_bits(f_star, _solved(res))
    assert applied >= 1


def test_stationarity_rate_suite_reads_the_solved_minimum(monkeypatch):
    # the one suite that runs pccd on an instance whose F* is solved
    # (vr-potential's l1 instances run vrccd): each of its 100 instances
    # reads F* off its run and solves none
    solves = _counting_solves(monkeypatch)
    read = []
    traced = harness.traced_minimum

    def recording(res, trace):
        f_star = traced(res, trace)
        read.append((res, f_star))
        return f_star

    monkeypatch.setattr(harness, "traced_minimum", recording)
    assert suites.suite_stationarity_rate().passed
    assert len(read) == 100 and not solves
    for res, f_star in read:
        assert f_star is not None and _same_bits(f_star, _solved(res))


# pccd-l1-many's first instance at workload seed 0, checked
CHECKED_PCCD_L1 = PCCD_L1 + """\
diagnostics.checks = step-telescope, stationarity-rate
output.trace_path = traces
output.report_path = report
"""


def _pccd_l1(overrides: dict):
    lines = [line for line in CHECKED_PCCD_L1.splitlines()
             if line.split(" = ")[0] not in overrides]
    return parse_config("\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n")


@pytest.mark.parametrize("overrides", [
    # K = 5 ends before the stop (row 24) and before an orbit is seen
    {"algorithm.K": 5},
    {"algorithm.eta_scale": 0.5},
    {"lambda.values": "2, 2, 2, 2"},
    {"algorithm.name": "prox_gd", "diagnostics.checks": "step-telescope"},
    {"algorithm.name": "vrccd", "algorithm.p": 0.5, "algorithm.b": 4, "algorithm.bprime": 2,
     "diagnostics.checks": "vr-rate"},
], ids=["short-run", "eta-scale", "lambda-values", "prox_gd", "vrccd"])
def test_a_run_off_the_solve_trajectory_is_solved_once(overrides, tmp_path, monkeypatch):
    solves = _counting_solves(monkeypatch)
    result = run_experiment(_pccd_l1(overrides), out_dir=tmp_path)
    assert result.reports and len(solves) == 1
    if "algorithm.K" in overrides:
        (trace,) = result.traces
        assert _stop_row(trace) is None and "orbit" not in trace.meta


@pytest.mark.parametrize("index, orbit", [(0, (31, 1)), (2, (31, 2))])
def test_orbit_experiments_solve_nothing_and_write_the_same_bytes(index, orbit, tmp_path,
                                                                   monkeypatch):
    # pccd-l1-many's seed-0 experiments 0 and 2, as the benchmark runs them
    text = PCCD_L1_MANY.configs(0, False)[index]
    solves = _counting_solves(monkeypatch)
    read = run_experiment(parse_config(text), out_dir=tmp_path / "read")
    assert not solves
    assert read.traces[0].meta["orbit"] == orbit
    monkeypatch.setattr(harness, "traced_minimum", lambda res, trace: None)
    solved = run_experiment(parse_config(text), out_dir=tmp_path / "solved")
    assert len(solves) == 1
    assert read.exit_code == solved.exit_code
    for a, b in zip(read.trace_paths + [read.report_csv, read.report_txt],
                    solved.trace_paths + [solved.report_csv, solved.report_txt]):
        assert a.read_bytes() == b.read_bytes()


SMALL_PCCD = """\
problem.family = quadratic
problem.n = 4
problem.d = 8
problem.m = 4
problem.condition_number = 3
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = 300
seeds.base = {seed}
"""


def _scaled(seed: int, scale: float):
    """The Resolved of a small pccd instance with its linear terms and start
    point scaled: far from 0 its iterates end in an orbit a few ulps wide,
    whose squared steps stay above the solve's stop."""
    res = harness.resolve(parse_config(SMALL_PCCD.format(seed=seed)))
    p = res.prob
    prob = problems.QuadraticFiniteSum(p.quad, p.lin * scale, p.const, p.partition)
    run = replace(res.run, metric=prob.metric(), x0=res.run.x0 * scale)
    return replace(res, prob=prob, run=run)


@pytest.mark.parametrize("seed, orbit", [(36, (31, 2)), (38, (63, 20))])
def test_an_orbit_without_a_stop_row_reads_the_solved_minimum(seed, orbit):
    res = _scaled(seed, 1e6)
    _, trace = harness.run_seed(res, 0)
    assert _stop_row(trace) is None and trace.meta["orbit"] == orbit
    f_star = harness.traced_minimum(res, trace)
    assert f_star is not None and _same_bits(f_star, _solved(res))
    # the least objective lies before the orbit, not in the last row
    assert f_star == min(trace.obj) < trace.obj[-1]


def test_the_read_off_computes_the_family_metric_once(tmp_path, monkeypatch):
    # resolve builds the run's metric from metric(); reading F* off the run
    # asks no second call, and solves nothing
    solves = _counting_solves(monkeypatch)
    calls = []
    metric = problems.QuadraticFiniteSum.metric

    def counting(prob):
        calls.append(prob)
        return metric(prob)

    monkeypatch.setattr(problems.QuadraticFiniteSum, "metric", counting)
    result = run_experiment(_pccd_l1({}), out_dir=tmp_path)
    assert result.reports and not solves and len(calls) == 1
