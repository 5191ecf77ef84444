"""Golden digests of trace and report bytes, one small experiment per runner path.

Every algorithm name gets one ``run_experiment`` config, plus vrccd with
anchor diagnostics under a box, a streaming run with a surrogate, and one
config for each check input the others leave out: the gradient-dominance
checks, pccd on a sigmoid problem under the sigmoid_bound metric and its
coupling constants computed from the loss, with a best-observed reference,
shared-batch sampling, the deterministic (p = 1, b = n) and pathwise forms,
a supplied ``sigma_sq`` and the exact streaming ``sigma_sq``. Three more
run pccd, prox_gd and vrccd (shared batches, anchor errors) on an uneven
partition, blocks (3, 3, 2, 2), whose equal-size blocks form two runs, and
three run the simultaneous order on the sigmoid losses: prox_gd and page
(anchor errors) on the finite family, and page on a streaming sigmoid under
``lambda.values`` with a surrogate. The test
hashes every trace and report file and compares the SHA-256 digests, and the
exit code, with the stored record in ``golden_traces.json``. Float results
depend on the numpy build and the BLAS kernels, so the record carries the
numerics signature it was taken under, and the test skips, saying why, on
any other signature.

Re-record (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden_traces.py --record

It prints, for each entry, whether its outcome changed against the stored
record (or is new, or was removed).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ccdlab.config import parse_config
from ccdlab.harness import run_experiment

RECORD = Path(__file__).with_name("golden_traces.json")

_QUAD = """\
problem.family = quadratic
problem.n = 12
problem.d = 8
problem.m = 4
problem.condition_number = 4
seeds.base = 5
output.trace_path = traces
output.report_path = report
"""

# d = 10 over m = 4 blocks: sizes (3, 3, 2, 2), two runs of equal-size blocks
_UNEVEN = _QUAD.replace("problem.d = 8", "problem.d = 10")

# the sigmoid family under its sigmoid_bound metric, on the uneven partition
_SIGMOID = """\
problem.family = sigmoid
problem.n = 16
problem.d = 10
problem.m = 4
seeds.base = 7
output.trace_path = traces
output.report_path = report
"""

CONFIGS = {
    "pccd": _QUAD + """\
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = 20
diagnostics.checks = cyclic-descent, step-telescope, grad-vs-step, stationarity-rate
""",
    "prox_gd": _QUAD + """\
problem.reg = box(-0.5, 0.5)
algorithm.name = prox_gd
algorithm.K = 20
diagnostics.checks = cyclic-descent, step-telescope
""",
    "vrccd": _QUAD + """\
problem.reg = l1(0.05)
algorithm.name = vrccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.checks = vr-rate, work-accounting
""",
    "vroccd": _QUAD + """\
algorithm.name = vroccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.checks = work-accounting
""",
    "sccd": _QUAD + """\
algorithm.name = sccd
algorithm.K = 15
algorithm.b = 4
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-descent, work-accounting
""",
    "page": _QUAD + """\
problem.reg = l1(0.05)
algorithm.name = page
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = work-accounting
""",
    "sgd": _QUAD + """\
algorithm.name = sgd
algorithm.K = 15
algorithm.b = 4
seeds.count = 2
diagnostics.checks = work-accounting
""",
    "vrccd-record-u-box": _QUAD + """\
problem.reg = box(-0.5, 0.5)
algorithm.name = vrccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-descent, vr-grad-vs-step, vr-potential
""",
    "pccd-uneven": _UNEVEN + """\
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = 20
diagnostics.checks = cyclic-descent, step-telescope, grad-vs-step, stationarity-rate
""",
    "prox_gd-uneven-box": _UNEVEN + """\
problem.reg = box(-0.5, 0.5)
algorithm.name = prox_gd
algorithm.K = 20
diagnostics.checks = cyclic-descent, step-telescope
""",
    "vrccd-uneven-shared-record-u": _UNEVEN + """\
problem.reg = zero
algorithm.name = vrccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
algorithm.sample_sharing = shared_per_cycle
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-descent, vr-grad-vs-step, vr-rate
""",
    "pccd-pl-envelope": _QUAD + """\
algorithm.name = pccd
algorithm.K = 20
diagnostics.checks = pl-envelope, stationarity-rate
""",
    "pccd-sigmoid-computed-constants": """\
problem.family = sigmoid
problem.n = 16
problem.d = 8
problem.m = 4
algorithm.name = pccd
algorithm.K = 15
seeds.base = 7
diagnostics.checks = grad-vs-step, stationarity-rate, step-telescope
output.trace_path = traces
output.report_path = report
""",
    "vrccd-vr-pl-rate": _QUAD + """\
algorithm.name = vrccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.checks = vr-pl-rate, vr-rate
""",
    "vroccd-vr-rate": _QUAD + """\
algorithm.name = vroccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-rate, vr-potential, work-accounting
""",
    "vrccd-deterministic-vr-rate": _QUAD + """\
algorithm.name = vrccd
algorithm.K = 15
algorithm.p = 1
algorithm.b = 12
algorithm.bprime = 12
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-rate, vr-pl-rate, vr-potential, work-accounting
""",
    "vrccd-sigma-sq-supplied": _QUAD + """\
problem.sigma_sq = 0.75
algorithm.name = vrccd
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = vr-rate, vr-potential
""",
    "vrccd-streaming-vr-rate": """\
problem.family = streaming
problem.n = inf
problem.d = 8
problem.m = 4
problem.condition_number = 4
algorithm.name = vrccd
algorithm.K = 5
algorithm.p = 0.5
algorithm.b = 8
algorithm.bprime = 2
seeds.base = 9
seeds.count = 2
diagnostics.s_surrogate_samples = 500
diagnostics.checks = vr-rate
output.trace_path = traces
output.report_path = report
""",
    "sgd-streaming-surrogate": """\
problem.family = streaming
problem.n = inf
problem.d = 8
problem.m = 4
problem.condition_number = 4
algorithm.name = sgd
algorithm.K = 10
algorithm.b = 8
seeds.base = 9
seeds.count = 2
diagnostics.s_surrogate_samples = 2000
diagnostics.checks = work-accounting
output.trace_path = traces
output.report_path = report
""",
    "prox_gd-sigmoid": _SIGMOID + """\
problem.reg = l1(0.02)
algorithm.name = prox_gd
algorithm.K = 20
diagnostics.checks = cyclic-descent, step-telescope
""",
    "page-sigmoid-record-u": _SIGMOID + """\
algorithm.name = page
algorithm.K = 15
algorithm.p = 0.3
algorithm.b = 8
algorithm.bprime = 3
seeds.count = 2
diagnostics.record_u = true
diagnostics.checks = work-accounting
""",
    # exit 1: twenty work increments put the low-power Monte Carlo mean
    # outside its 2 % band; the bytes are pinned all the same
    "page-streaming-sigmoid-surrogate": """\
problem.family = streaming
problem.streaming_family = sigmoid
problem.n = inf
problem.d = 10
problem.m = 4
problem.reg = l1(0.02)
lambda.values = 0.5, 1, 2, 1.5
algorithm.name = page
algorithm.K = 10
algorithm.p = 0.4
algorithm.b = 8
algorithm.bprime = 3
seeds.base = 9
seeds.count = 2
diagnostics.s_surrogate_samples = 700
diagnostics.checks = work-accounting
output.trace_path = traces
output.report_path = report
""",
}


def _openblas_core():
    """Kernel family of the OpenBLAS numpy loaded, or None (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        lib = ctypes.CDLL(paths[0])
    except (OSError, IndexError):
        return None
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            core = fn()
            return core.decode() if core else None
    return None


def numerics_signature() -> dict:
    """What decides the float results: numpy version, BLAS build and kernels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
    }


def outcome(name: str, out_dir: Path) -> dict:
    """Exit code and SHA-256 digest of every file the experiment wrote."""
    with np.errstate(all="ignore"):
        result = run_experiment(parse_config(CONFIGS[name]), out_dir=out_dir)
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return {
        "exit_code": result.exit_code,
        "digests": {
            p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files
        },
    }


@pytest.fixture(scope="module")
def record():
    stored = json.loads(RECORD.read_text(encoding="utf-8"))
    here = numerics_signature()
    if stored["signature"] != here:
        pytest.skip(f"golden digests were recorded under {stored['signature']}, this is {here}")
    return stored["outcomes"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_and_report_bytes_match_golden(name, record, tmp_path):
    got = outcome(name, tmp_path)
    assert got["exit_code"] == record[name]["exit_code"]
    assert got["digests"] == record[name]["digests"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    stored = json.loads(RECORD.read_text(encoding="utf-8"))["outcomes"]
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = {name: outcome(name, Path(tmp) / name) for name in sorted(CONFIGS)}
    RECORD.write_text(
        json.dumps({"signature": numerics_signature(), "outcomes": outcomes}, indent=1) + "\n",
        encoding="utf-8",
    )
    for name, got in outcomes.items():
        moved = "new" if name not in stored else (
            "unchanged" if stored[name] == got else "changed")
        print(f"{name}: exit {got['exit_code']}, {len(got['digests'])} files, {moved}")
    for name in sorted(set(stored) - set(outcomes)):
        print(f"{name}: removed")
