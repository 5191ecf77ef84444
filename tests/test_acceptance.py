"""Acceptance gate: every criterion suite must pass at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or ``ccdlab check all`` for the same suites from the CLI.

Each suite's verdict and report lines are also pinned in
``golden_suites.json``, keyed like ``golden_traces.json`` by the numerics
signature (the comparison skips on any other signature). The suites run
once per session; the golden comparison reuses those results.

Re-record (only when a change of suite output is intended):

    PYTHONPATH=src python tests/test_acceptance.py --record
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from ccdlab.suites import SUITE_BUDGETS, SUITES, run_suite
from test_golden_traces import numerics_signature

CRITERIA = list(SUITES)
RECORD = Path(__file__).with_name("golden_suites.json")


@functools.cache
def suite_result(name):
    return run_suite(name)


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance_criterion(name):
    result = suite_result(name)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"\n[acceptance] {verdict} {name} ({result.elapsed_s:.1f}s)")
    for line in result.lines:
        print(f"[acceptance]     {line}")
    budget = SUITE_BUDGETS[name]
    if budget is not None:
        assert result.elapsed_s < budget, f"{name} exceeded its {budget}s budget"
    assert result.passed, f"criterion suite {name} failed"


@pytest.fixture(scope="module")
def record():
    stored = json.loads(RECORD.read_text(encoding="utf-8"))
    here = numerics_signature()
    if stored["signature"] != here:
        pytest.skip(f"golden suite lines were recorded under {stored['signature']}, this is {here}")
    return stored["suites"]


@pytest.mark.parametrize("name", CRITERIA)
def test_suite_lines_match_golden(name, record):
    result = suite_result(name)
    assert {"passed": bool(result.passed), "lines": result.lines} == record[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    suites = {}
    for name in CRITERIA:
        result = run_suite(name)
        suites[name] = {"passed": bool(result.passed), "lines": result.lines}
        print(f"{name}: passed={result.passed} ({result.elapsed_s:.1f}s)")
    RECORD.write_text(
        json.dumps({"signature": numerics_signature(), "suites": suites}, indent=1) + "\n",
        encoding="utf-8",
    )
