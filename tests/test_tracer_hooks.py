"""The benchmark's tracer (``perfbench/tracing.py``) counts cycles through
the optimizer entry points it rebinds. Every harness run must reach those
entry points, or the benchmark's per-layer numbers silently read zero. A
traced run of either update order must write what an untraced one writes,
and every gradient method the tracer wraps by name must keep the signature
its cost hook reads."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ccdlab.blocks import BlockPartition
from ccdlab.config import parse_config
from ccdlab.harness import run_experiment
from ccdlab.problems import generate_quadratic, generate_streaming_quadratic

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


# the simultaneous order: the full-gradient baseline and the recursive one
PROX_GD = PCCD.replace("algorithm.name = pccd", "algorithm.name = prox_gd")
PAGE = VRCCD.replace("algorithm.name = vrccd", "algorithm.name = page")


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


def test_each_trace_file_is_written_once_outside_the_run(tmp_path):
    # the tracer rebinds TraceCsvWriter.__init__, sink and close: each of
    # the four files opens, takes its whole trace in one sink and closes,
    # and none of it happens inside an optimizer run
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        result = run_experiment(parse_config(VRCCD), out_dir=tmp_path, jobs=1)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0 and len(result.trace_paths) == 4
    spans = tracer.spans
    writes = [span for span in spans if span[0] == "harness.trace_write"]
    assert len(writes) == 12
    assert not any(parent >= 0 and spans[parent][0] == "algorithms.run"
                   for _, _, _, parent, _, _ in writes)


@pytest.mark.parametrize("text", [PROX_GD, PAGE], ids=["prox_gd", "page"])
def test_traced_simultaneous_runs_write_the_untraced_bytes(tmp_path, text):
    plain = run_experiment(parse_config(text), out_dir=tmp_path / "plain", jobs=1)
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = run_experiment(parse_config(text), out_dir=tmp_path / "traced", jobs=1)
        # every gradient method the tracer wraps, called by its public
        # signature on each quadratic family, records one span and its cost
        part = BlockPartition((2, 2, 2))
        x = np.linspace(-1.0, 1.0, 6)
        finite = generate_quadratic(3, n=5, d=6, partition=part)
        stream = generate_streaming_quadratic(3, d=6, partition=part)
        rng = np.random.default_rng(0)
        before = sum(span[0] == "problems.grad" for span in tracer.spans)
        called = 0
        for prob in (finite, stream):
            batch = prob.draw_batch(rng, 3)
            args = {"block_grad": (1, x), "full_grad": (x,), "batch_block_grad": (batch, 1, x),
                    "batch_full_grad": (batch, x)}
            for method in tracing.GRAD_METHODS:
                if hasattr(prob, method):
                    getattr(prob, method)(*args[method])
                    called += 1
    finally:
        tracer.uninstall()
    assert plain.exit_code == traced.exit_code == 0
    files = sorted(p for p in (tmp_path / "plain").rglob("*") if p.is_file())
    assert len(files) == (2 if text is PROX_GD else 4)  # one trace per seed
    for path in files:
        twin = tmp_path / "traced" / path.relative_to(tmp_path / "plain")
        assert twin.read_bytes() == path.read_bytes()
    assert sum(span[0] == "problems.grad" for span in tracer.spans) - before == called == 4
    assert tracer.counts["problems.flops_computed"] > 0
