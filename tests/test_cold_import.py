"""``import ccdlab`` loads numpy and the standard library only; scipy is
imported when a sigmoid family is first evaluated."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys, tempfile

import ccdlab

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {"import": scipy_modules()}
quadratic = '''
problem.family = quadratic
problem.n = 8
problem.d = 4
problem.m = 2
algorithm.name = pccd
algorithm.K = 5
seeds.count = 1
diagnostics.checks = cyclic-descent
'''
with tempfile.TemporaryDirectory() as tmp:
    out["quadratic_exit"] = ccdlab.run_experiment(ccdlab.parse_config(quadratic), out_dir=tmp).exit_code
    out["quadratic"] = scipy_modules()
    sigmoid = quadratic.replace("quadratic", "sigmoid")
    out["sigmoid_exit"] = ccdlab.run_experiment(ccdlab.parse_config(sigmoid), out_dir=tmp).exit_code
out["sigmoid_special"] = "scipy.special" in sys.modules
print(json.dumps(out))
"""


def test_import_and_quadratic_run_load_no_scipy():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["import"] == []
    assert out["quadratic_exit"] == 0
    assert out["quadratic"] == []
    assert out["sigmoid_exit"] == 0
    assert out["sigmoid_special"]
