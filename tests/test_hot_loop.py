"""The cycle engine reads the block plan it builds before cycle 1: neither
the range-checked ``BlockPartition.block_slice`` nor the validated
``regularizers.metric_prox`` runs inside the cycle loop."""

from collections import Counter

import pytest

from ccdlab import algorithms, regularizers
from ccdlab.blocks import BlockPartition
from ccdlab.config import parse_config
from ccdlab.harness import run_experiment

PCCD_L1 = """\
problem.family = quadratic
problem.n = 4
problem.d = 16
problem.m = 4
problem.condition_number = 3
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = {cycles}
diagnostics.checks = cyclic-descent, step-telescope, grad-vs-step, stationarity-rate
"""

VRCCD = """\
problem.family = quadratic
problem.n = 32
problem.d = 16
problem.m = 4
problem.condition_number = 3
problem.reg = l1(0.1)
algorithm.name = vrccd
algorithm.K = {cycles}
algorithm.p = 0.25
algorithm.b = 16
algorithm.bprime = 4
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-descent, vr-grad-vs-step
"""


def _counted(monkeypatch, calls):
    def wrap(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    wrap(BlockPartition, "block_slice")
    wrap(regularizers, "metric_prox")
    wrap(algorithms, "metric_prox")  # the name the engine would call it by


@pytest.mark.parametrize("text", [PCCD_L1, VRCCD], ids=["pccd-l1", "vrccd-l1"])
def test_cycle_loop_calls_no_validating_helper(text, tmp_path, monkeypatch):
    calls = Counter()
    _counted(monkeypatch, calls)
    seen = []
    for cycles in (2, 20):
        calls.clear()
        result = run_experiment(parse_config(text.format(cycles=cycles)), out_dir=tmp_path / str(cycles))
        assert result.exit_code == 0
        seen.append(dict(calls))
    # set-up may slice a fixed number of times; nothing may scale with K
    assert seen[0] == seen[1]
    assert "metric_prox" not in seen[0]
