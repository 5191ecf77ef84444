"""The benchmark's tracer (``perfbench/tracing.py``) counts cycles through
the optimizer entry points it rebinds. Every harness run must reach those
entry points, or the benchmark's per-layer numbers silently read zero."""

import importlib.util
from pathlib import Path

import pytest

from ccdlab.config import parse_config
from ccdlab.harness import run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PCCD = """
problem.n = 8
problem.d = 6
problem.m = 3
algorithm.name = pccd
algorithm.K = 5
seeds.count = 2
"""
VRCCD = """
problem.n = 8
problem.d = 6
problem.m = 3
algorithm.name = vrccd
algorithm.K = 5
algorithm.p = 0.5
algorithm.b = 4
seeds.count = 4
"""
# both checks read the reference minimum, which l1 makes a high-precision solve
PCCD_L1_REFERENCE = PCCD + """
problem.reg = l1(0.1)
diagnostics.checks = step-telescope, stationarity-rate
"""
# the names that fix an estimator setting run through the same entry point
SCCD = """
problem.n = 8
problem.d = 6
problem.m = 3
algorithm.name = sccd
algorithm.K = 5
algorithm.b = 4
seeds.count = 3
"""
VROCCD = """
problem.n = 8
problem.d = 6
problem.m = 3
algorithm.name = vroccd
algorithm.K = 5
algorithm.p = 0.5
algorithm.b = 4
seeds.count = 2
"""


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "text, cycles",
    [(PCCD, 5 * 2), (VRCCD, 5 * 4), (SCCD, 5 * 3), (VROCCD, 5 * 2)],
    ids=["pccd", "vrccd", "sccd", "vroccd"],
)
def test_traced_entry_points_see_every_cycle(tmp_path, text, cycles):
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result = run_experiment(parse_config(text), out_dir=tmp_path, jobs=1)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    assert tracer.counts["algorithms.cycles"] == cycles


def test_metric_and_coupling_matrices_record_coupling_spans(tmp_path):
    # the tracer rebinds problems.exact_quadratic_metric and
    # problems.exact_coupling_matrices; a vrccd resolve must reach both
    # through the module, the metric by way of the quadratic's metric()
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result = run_experiment(parse_config(VRCCD), out_dir=tmp_path, jobs=1)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    resolves = [i for i, span in enumerate(tracer.spans) if span[0] == "harness.resolve"]
    assert len(resolves) == 1
    coupling = [span for span in tracer.spans if span[0] == "problems.coupling"]
    assert len(coupling) == 2 and all(span[3] == resolves[0] for span in coupling)


def test_anchor_draws_record_sampling_spans(tmp_path):
    # the tracer rebinds sampling.draw_minibatch; a vrccd run with b < n
    # draws its anchor batch through it, one call per seed
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result = run_experiment(parse_config(VRCCD), out_dir=tmp_path, jobs=1)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    draws = [span for span in tracer.spans if span[0] == "sampling.draw"]
    assert len(draws) >= 1
    assert tracer.counts["sampling.indices_drawn"] == 4 * len(draws)


def test_reference_solve_records_its_metric_and_run_spans(tmp_path):
    # the tracer rebinds harness.reference_minimum; its solve calibrates the
    # instance's metric through problems.exact_quadratic_metric and runs
    # through algorithms.pccd_run, so both spans nest under it
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result = run_experiment(parse_config(PCCD_L1_REFERENCE), out_dir=tmp_path, jobs=1)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    spans = tracer.spans
    checks_run = [i for i, span in enumerate(spans) if span[0] == "checks.run"]
    reference = [i for i, span in enumerate(spans) if span[0] == "harness.reference_min"]
    assert len(checks_run) == 1 and len(reference) == 1
    assert spans[reference[0]][3] == checks_run[0]
    children = sorted(span[0] for span in spans if span[3] == reference[0])
    assert children == ["algorithms.run", "problems.coupling"]
