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
