"""An exact run whose iterate repeats an earlier one bit for bit records its
remaining rows as copies of the rows one period before. With detection
switched off (``_orbit_period`` patched to find no period) every cycle
steps, and the two runs agree bit for bit: every trace column but the wall
times, the iterates and the returned point; every row appears once, in
order."""

import numpy as np
import pytest

from ccdlab import algorithms
from ccdlab.algorithms import RunConfig, _orbit_period, pccd_run, prox_gd_run
from ccdlab.blocks import BlockPartition
from ccdlab.problems import generate_quadratic
from ccdlab.regularizers import L1, Box, Zero

COLUMNS = ("k", "obj", "stat_sq", "step_sq", "est_err_sq", "mid_resid_sq", "work")
REGS = {"zero": Zero(), "l1": L1(0.1), "box": Box(-0.5, 0.5)}
PARTS = [BlockPartition.even(8, 4), BlockPartition((3, 3, 2, 2))]
RUNS = [pccd_run, prox_gd_run]


def _bits(v):
    """A value as its exact bits: -0.0 and 0.0 differ, and a NaN matches."""
    return v.hex() if isinstance(v, float) else v


def _record(run, prob, reg, cfg):
    """The run's returned point, trace columns and iterates, as bits."""
    x, trace = run(prob, reg, cfg)
    assert trace.k == list(range(len(trace.k)))  # every row once, in order
    assert all(isinstance(w, int) and w >= 0 for w in trace.wall_ns)
    assert sum(trace.wall_ns) <= trace.meta["wall_total_ns"]
    columns = {c: [_bits(v) for v in getattr(trace, c)] for c in COLUMNS}
    iterates = None if trace.iterates is None else [xi.tobytes() for xi in trace.iterates]
    return (x.tobytes(), columns, iterates), trace


def _replayed_and_stepped(run, prob, reg, cfg, monkeypatch):
    replayed, trace = _record(run, prob, reg, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_orbit_period", lambda xs: 0)
        stepped, full = _record(run, prob, reg, cfg)
    assert "orbit" not in full.meta
    assert replayed == stepped
    return trace, full


# record_u, keep_iterates and stop_step_sq, each on and off and in pairs
OPTIONS = [(False, False, None), (True, True, None), (True, False, 1e-300), (False, True, 1e-300)]


@pytest.mark.parametrize("record_u, keep, stop", OPTIONS,
                         ids=["plain", "record_u-keep", "record_u-stop", "keep-stop"])
@pytest.mark.parametrize("part", PARTS, ids=lambda p: str(p.block_sizes))
@pytest.mark.parametrize("reg", list(REGS))
@pytest.mark.parametrize("run", RUNS, ids=["pccd", "prox_gd"])
def test_replayed_run_matches_the_stepped_run_bitwise(run, reg, part, record_u, keep, stop,
                                                      monkeypatch):
    prob = generate_quadratic(3, n=12, d=part.dim, partition=part, condition_number=4.0)
    fired = []
    for cycles in (1, 63, 64, 65, 200, 500):
        cfg = RunConfig(cycles=cycles, x0=np.linspace(-1.0, 1.0, part.dim), metric=prob.metric(),
                        eta=0.7, record_u=record_u, keep_iterates=keep, stop_step_sq=stop)
        trace, _ = _replayed_and_stepped(run, prob, REGS[reg], cfg, monkeypatch)
        fired.append("orbit" in trace.meta)
    # every instance here enters its orbit by cycle 63; a stop at v_k = 0
    # ends a period-1 orbit before it is replayed
    assert fired[:2] == [False, False]
    assert all(fired[2:]) or (stop is not None and not any(fired))


# the rows of a period-2 orbit share v_k and the intermediate residual, which
# the period-8 orbit tells apart; most orbits also share F, but seed 4's does not
@pytest.mark.parametrize("seed, reg, eta, found, period",
                         [(3, "l1", 0.7, 63, 1), (3, "zero", 0.7, 63, 2), (4, "l1", 0.7, 63, 2),
                          (3, "zero", 1.0, 31, 8)])
@pytest.mark.parametrize("run", RUNS, ids=["pccd", "prox_gd"])
def test_orbit_of_each_period_is_replayed(run, seed, reg, eta, found, period, monkeypatch):
    part = PARTS[0]
    prob = generate_quadratic(seed, n=12, d=part.dim, partition=part, condition_number=4.0)
    cfg = RunConfig(cycles=300, x0=np.linspace(-1.0, 1.0, part.dim), metric=prob.metric(),
                    eta=eta, record_u=True, keep_iterates=True)
    trace, full = _replayed_and_stepped(run, prob, REGS[reg], cfg, monkeypatch)
    assert trace.meta["orbit"] == (found, period)
    p = period
    # the stepped run really cycles: from found - p on, each iterate repeats
    # the one p cycles before it bit for bit, and none before found - p + 1
    # repeats its predecessor at a shorter period
    bits = [x.tobytes() for x in full.iterates]
    assert all(bits[k] == bits[k - p] for k in range(found, len(bits)))
    assert p == 1 or bits[found] != bits[found - 1]


def test_orbit_period_compares_bits():
    a, b = np.array([1.0, -0.0]), np.array([1.0, 0.0])
    nan = np.array([np.nan, 2.0])
    assert _orbit_period(np.stack([a, b, a])) == 2
    assert _orbit_period(np.stack([a, a, b, a])) == 2  # the latest match
    assert _orbit_period(np.stack([a, b])) == 0  # -0.0 is not 0.0
    assert _orbit_period(np.stack([nan, nan])) == 1  # a NaN's bits repeat
    assert _orbit_period(a[None]) == 0
