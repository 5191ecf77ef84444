"""The benchmark's stored output digests, checked in the test suite.

``perfbench/run.py`` rejects a change whose experiments write other bytes
than ``perfbench/expected.json`` stores for seed 0. This test runs the first
seed-0 experiment of three workloads through ``run_experiment`` and compares
its digest, computed by the benchmark's own ``check_outputs``, and its exit
code with the stored ones, so a change that moves them fails here first.
pccd-l1-many's first run replays a period-1 orbit; its third experiment,
whose run replays a period-2 orbit, is checked too.
``vr-pool`` runs the ``vr-finite-sum`` experiments in a pool and shares its
digests, so it needs no run of its own. The digests depend on the numpy
build and the BLAS kernels; on any other numerics signature the test skips.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from test_golden_traces import numerics_signature

from ccdlab.config import parse_config
from ccdlab.harness import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module; it imports ``workloads`` from its own directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        yield module


# the experiment's index in its round, and the (cycle found, period) of the
# orbit each of its runs replays, None where none is
@pytest.mark.parametrize("name, index, orbit", [
    pytest.param("vr-finite-sum", 0, None, id="vr-finite-sum"),
    pytest.param("pccd-l1-many", 0, (31, 1), id="pccd-l1-many"),
    pytest.param("pccd-l1-many", 2, (31, 2), id="pccd-l1-many-period-2"),
    pytest.param("streaming-surrogate", 0, None, id="streaming-surrogate"),
])
def test_first_seed0_experiment_matches_stored_digest(bench, name, index, orbit, tmp_path):
    stored = json.loads(bench.EXPECTED.read_text(encoding="utf-8"))
    here = numerics_signature()
    if stored["signature"] != here:
        pytest.skip(f"digests stored for {stored['signature']}, this build is {here}")
    wl = bench.WORKLOADS[name]
    text = wl.configs(bench.DEFAULT_SEED, False)[index]
    result = run_experiment(parse_config(text), out_dir=tmp_path, jobs=1)
    digest, problems, _, _ = bench.check_outputs(tmp_path, wl.streaming)
    assert result.exit_code == stored["exit_codes"][name]
    assert problems == []
    assert digest == stored["digests"][name][index]
    assert all(t.meta.get("orbit") == orbit for t in result.traces)
