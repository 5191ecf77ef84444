"""The cycle engine computes its trace diagnostics once per chunk of cycles
(1, 2, 4, ... up to ``CHUNK_CYCLES``), and the rows keep every bit: a
shorter run is a prefix of a longer one across every chunk boundary, F and
v_k match a row-by-row recomputation, an early stop ends the trace at its
row, and a diverging run raises at its first non-finite row with only the
rows before it in the error's trace."""

import math
import pickle

import numpy as np
import pytest

from ccdlab import algorithms, harness
from ccdlab.algorithms import CHUNK_CYCLES, NonFiniteObjectiveError, RunConfig
from ccdlab.blocks import BlockPartition, DiagonalMetric, weighted_norm_sq
from ccdlab.config import METHODS, parse_config
from ccdlab.problems import (
    QuadraticFiniteSum,
    generate_classification,
    generate_quadratic,
    generate_streaming_quadratic,
)
from ccdlab.regularizers import L1, Box, Zero, total_value
from ccdlab.sampling import RngBundle

COLUMNS = ("obj", "stat_sq", "step_sq", "est_err_sq", "mid_resid_sq", "work")
LONG = 200
REGS = {"zero": Zero(), "l1": L1(0.1), "box": Box(-0.5, 0.5)}
PARTS = [BlockPartition.even(8, 4), BlockPartition((3, 3, 2, 2))]


def _run(name, prob, reg, cycles, record_u, surrogate=0):
    """One run of algorithm ``name`` with its iterates kept."""
    method = METHODS[name]
    d = prob.dim
    metric = prob.metric() if prob.metric_mode else DiagonalMetric(np.full(d, 2.0), prob.partition)
    fields = {}
    if method.stochastic:
        b = 6
        fields = dict(p=0.3 if method.p is None else method.p, b=b,
                      b_prime=b if method.bprime_is_b else 2,
                      sample_sharing=method.sample_sharing or "fresh_per_block")
    cfg = RunConfig(cycles=cycles, x0=np.linspace(-1.0, 1.0, d), metric=metric, eta=0.7,
                    record_u=record_u, keep_iterates=True, surrogate_samples=surrogate, **fields)
    args = (prob, reg, cfg) + ((RngBundle.from_seed(5),) if method.stochastic else ())
    _, trace = getattr(algorithms, method.entry)(*args)
    assert trace.k == list(range(cycles + 1))  # every row once, in order
    return cfg, trace


def _assert_prefixes(name, prob, reg, record_u, surrogate=0):
    _, full = _run(name, prob, reg, LONG, record_u, surrogate)
    for cycles in (1, 2, 3, CHUNK_CYCLES - 1, CHUNK_CYCLES, CHUNK_CYCLES + 1, 130):
        _, trace = _run(name, prob, reg, cycles, record_u, surrogate)
        assert trace.k == list(range(cycles + 1))
        for column in COLUMNS:
            assert getattr(trace, column) == getattr(full, column)[: cycles + 1], (cycles, column)


@pytest.mark.parametrize("record_u", [False, True], ids=["plain", "record_u"])
@pytest.mark.parametrize("reg", list(REGS), ids=list(REGS))
@pytest.mark.parametrize("part", PARTS, ids=lambda p: str(p.block_sizes))
@pytest.mark.parametrize("name", list(METHODS))
def test_short_run_is_a_bitwise_prefix_of_a_long_one(name, part, reg, record_u):
    prob = generate_quadratic(3, n=12, d=part.dim, partition=part, condition_number=4.0)
    _assert_prefixes(name, prob, REGS[reg], record_u)


@pytest.mark.parametrize("name", ["pccd", "vrccd", "prox_gd", "page"])
def test_sigmoid_rows_are_prefixes_too(name):
    """The generic per-row ``values_and_grads`` across the same boundaries."""
    part = PARTS[1]
    prob = generate_classification(4, n=12, d=part.dim, partition=part)
    _assert_prefixes(name, prob, L1(0.05), record_u=False)


@pytest.mark.parametrize("surrogate", [0, 40])
@pytest.mark.parametrize("name", ["vrccd", "vroccd", "page"])
def test_streaming_rows_are_prefixes_too(name, surrogate):
    """A stream draws its surrogate batches row by row, in cycle order."""
    part = PARTS[0]
    prob = generate_streaming_quadratic(6, d=part.dim, partition=part)
    _assert_prefixes(name, prob, Zero(), record_u=False, surrogate=surrogate)


@pytest.mark.parametrize("reg", list(REGS), ids=list(REGS))
@pytest.mark.parametrize("name", ["pccd", "vrccd", "prox_gd", "sgd"])
def test_objective_and_step_match_a_row_by_row_recomputation(name, reg):
    part = PARTS[1]
    prob = generate_quadratic(8, n=12, d=part.dim, partition=part, condition_number=4.0)
    cfg, trace = _run(name, prob, REGS[reg], CHUNK_CYCLES + 9, record_u=False)
    lam = cfg.metric.entries
    xs = trace.iterates
    for k, x in enumerate(xs):
        assert trace.obj[k] == prob.value(x) + total_value(REGS[reg], x, part)
        if k:
            v_k = 0.0
            for cols in part.slices:
                v_k += weighted_norm_sq((x - xs[k - 1])[cols], lam[cols])
            assert trace.step_sq[k] == v_k


# one pccd-l1-many instance (perfbench workload seed 0, its first instance)
PCCD_L1 = """\
problem.family = quadratic
problem.n = 4
problem.d = 16
problem.m = 4
problem.condition_number = 3
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = 500
seeds.base = 1826701614
"""


def test_reference_solve_stops_at_its_first_small_step(monkeypatch):
    solve = algorithms.pccd_run
    traces = []

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        traces.append(out[1])
        return out

    monkeypatch.setattr(algorithms, "pccd_run", recording)
    f_star, how = harness.reference_minimum(harness.resolve(parse_config(PCCD_L1)))
    (trace,) = traces
    # the stop falls inside a chunk; the cycles stepped past it leave no row
    assert trace.cycles == 24
    assert trace.step_sq[-1] <= 1e-28 and all(v > 1e-28 for v in trace.step_sq[1:-1])
    assert how == "high_precision_run"
    assert f_star == float.fromhex("-0x1.ec6b21157cc62p-1")  # the per-cycle engine's bits


def _concave():
    d = 4
    part = BlockPartition((d,))
    prob = QuadraticFiniteSum((-np.eye(d))[None], np.zeros((1, d)), np.zeros(1), part)
    cfg = RunConfig(cycles=5000, x0=np.ones(d), metric=DiagonalMetric.identity(part))
    return lambda: algorithms.pccd_run(prob, Zero(), cfg)


def _eta_50():
    res = harness.resolve(parse_config(
        "problem.family = quadratic\nproblem.n = 16\nproblem.d = 8\nproblem.m = 2\n"
        "algorithm.name = pccd\nalgorithm.K = 400\nalgorithm.eta = 50\n"))
    return lambda: harness.run_seed(res, 0)


@pytest.mark.parametrize("run, iteration, value", [(_concave, 512, -math.inf), (_eta_50, 94, math.inf)],
                         ids=["concave", "eta-50"])
def test_diverging_run_raises_at_its_first_nonfinite_row(run, iteration, value):
    """Both iterations, and the values, are those of the per-cycle engine.
    512 opens a chunk and 94 sits inside one; either way the run steps to
    the chunk's end before it raises at the failing row."""
    with np.errstate(all="ignore"), pytest.raises(NonFiniteObjectiveError) as err:
        run()()
    assert (err.value.iteration, err.value.value) == (iteration, value)
    trace = err.value.trace
    assert trace.k == list(range(iteration))
    assert all(math.isfinite(f) for f in trace.obj)


def test_nonfinite_error_survives_a_pickle_round_trip():
    """A pool worker hands its error to the parent pickled: the iteration,
    value, quantity, message and trace all arrive."""
    with np.errstate(all="ignore"), pytest.raises(NonFiniteObjectiveError) as err:
        _eta_50()()
    sent = err.value
    back = pickle.loads(pickle.dumps(sent))
    assert type(back) is NonFiniteObjectiveError
    assert str(back) == str(sent) == "objective value inf at iteration 94"
    assert (back.iteration, back.value, back.quantity) == (94, math.inf, "objective value")
    assert back.trace.k == sent.trace.k == list(range(94))
    assert back.trace.obj == sent.trace.obj
    bare = NonFiniteObjectiveError(3, math.nan, "objective value not recorded; squared step v_k =")
    back = pickle.loads(pickle.dumps(bare))
    assert str(back) == str(bare) == "objective value not recorded; squared step v_k = nan at iteration 3"
    assert back.quantity == bare.quantity and back.trace is None


def test_recorded_wall_times_add_up_within_the_run(tmp_path):
    text = PCCD_L1.replace("algorithm.K = 500", "algorithm.K = 150") + "output.record_wall = true\n"
    result = harness.run_experiment(parse_config(text), out_dir=tmp_path)
    assert result.exit_code == 0
    (trace,) = result.traces
    lines = result.trace_paths[0].read_text().splitlines()
    body = lines[lines.index(harness.TRACE_HEADER) + 1 :]
    walls = [int(row.split(",")[6]) for row in body]
    assert walls == trace.wall_ns and len(walls) == 151
    assert walls[0] == 0 and all(w >= 0 for w in walls)
    assert sum(walls) <= trace.meta["wall_total_ns"]
