"""The benchmark (``perfbench/``) runs fixed experiment configs. Each of
them must parse and resolve, so that a stricter ``config.validate`` can
never turn a benchmark run into exit 3."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ccdlab.config import parse_config
from ccdlab.harness import resolve

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize(
    "name", ["vr-finite-sum", "pccd-l1-many", "streaming-surrogate", "vr-pool"]
)
def test_every_workload_config_resolves(name, tiny):
    texts = _workloads()[name].configs(0, tiny)
    assert texts
    for text in texts:
        resolve(parse_config(text))
