"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py      (from the root of a ccdlab checkout)

Runs every workload untraced and traced and asserts that every metric
BENCHMARK.json names is reported with its unit, that no experiment fails,
that the sampling layer is bypassed where it should be, that a wrong expected
digest or exit code is reported as a failure, and that the benchmark refuses
to run without the ccdlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from run import END_TO_END, ROOT, Expected, run_workload
from workloads import WORKLOADS

BYPASS_SAMPLING = ("pccd-l1-many", "streaming-surrogate")


def check_metrics(metrics: dict, declared: list[dict], where: str):
    for entry in declared:
        name = entry["name"]
        assert name in metrics, f"{where}: {name} missing"
        assert metrics[name][1] == entry["unit"], f"{where}: {name} unit {metrics[name][1]}"
    assert metrics["failed_share"][0] == 0.0, f"{where}: failed_share {metrics['failed_share']}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)

    for name, wl in WORKLOADS.items():
        plain = run_workload(wl, run.DEFAULT_SEED, 0, False, tiny=True)
        check_metrics(plain.metrics, spec["end_to_end"], f"{name} untraced")
        traced = run_workload(wl, run.DEFAULT_SEED, 0, True, tiny=True)
        check_metrics(traced.metrics, spec["per_layer"], f"{name} traced")
        draws = traced.metrics["sampling.draw_calls"][0]
        assert (draws == 0) == (name in BYPASS_SAMPLING), f"{name}: sampling.draw_calls {draws}"
        print(f"ok {name}")

    wl = WORKLOADS["vr-finite-sum"]
    count = len(wl.configs(run.DEFAULT_SEED, True))
    for wrong in (Expected(exit_code=0, digests=["0" * 64] * count), Expected(exit_code=1)):
        outcome = run_workload(wl, run.DEFAULT_SEED, 0, False, tiny=True, expected=wrong)
        # the warm-up experiment and every experiment of the measured round fail
        assert len(outcome.failures) == 1 + count, outcome.failures
        assert outcome.metrics["failed_share"][0] == 1.0
    print("ok a wrong expected digest or exit code fails the gate")

    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "vr-finite-sum",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print("ok refuses to run without the ccdlab sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
