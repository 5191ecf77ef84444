"""The cycle engine reads the step plan it builds before cycle 1: neither
the range-checked ``BlockPartition.block_slice`` nor the validated
``regularizers.metric_prox`` runs inside the cycle loop, each unit of the
plan (one block in the cyclic order, every block in the simultaneous one)
makes one call to its bound gradient kernel and one to its bound prox step
per cycle, and both are built once per unit per run. A recursive correction
gathers its batch rows once for both of its points, and a sigmoid problem
takes one coefficient pass per batch and point in either order. The trace
diagnostics take whole-vector calls: no per-block gradient beyond the
units' own, and one stacked value and gradient call per chunk of cycles,
not one per cycle. An exact run that enters its floating-point orbit makes
no call for the cycles it replays."""

from collections import Counter

import numpy as np
import pytest

from ccdlab import algorithms, problems, regularizers
from ccdlab.algorithms import (
    CHUNK_CYCLES,
    FRESH_PER_BLOCK,
    SHARED_PER_CYCLE,
    RunConfig,
    page_run,
    pccd_run,
    prox_gd_run,
    vrccd_run,
)
from ccdlab.blocks import BlockPartition, DiagonalMetric
from ccdlab.config import parse_config
from ccdlab.harness import run_experiment
from ccdlab.problems import (
    QuadraticFiniteSum,
    exact_quadratic_metric,
    generate_classification,
    generate_quadratic,
    generate_streaming_classification,
)
from ccdlab.regularizers import L1
from ccdlab.sampling import RngBundle, bernoulli_switch, bernoulli_switches

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


class _GatherCounting(np.ndarray):
    """A view of ``quad`` that counts gathers of batch rows: an index whose
    first entry is an index array."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, tuple) and isinstance(key[0], np.ndarray):
            type(self).gathers += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("sharing", [FRESH_PER_BLOCK, SHARED_PER_CYCLE])
def test_correction_gathers_batch_rows_once(sharing):
    n, d, m = 24, 12, 3
    prob = generate_quadratic(7, n=n, d=d, partition=BlockPartition.even(d, m))
    metric = exact_quadratic_metric(prob)
    # b = n: the anchor and every refresh use the exact mean, so the only
    # gathers left are the corrections' size-b' batches
    cfg = RunConfig(cycles=12, eta=0.5, p=0.3, b=n, b_prime=4, x0=np.ones(d), metric=metric,
                      sample_sharing=sharing)
    _, reference = vrccd_run(prob, L1(0.1), cfg, RngBundle.from_seed(3))

    object.__setattr__(prob, "quad", prob.quad.view(_GatherCounting))
    _GatherCounting.gathers = 0
    _, trace = vrccd_run(prob, L1(0.1), cfg, RngBundle.from_seed(3))

    # the run's switches, read back from a fresh copy of its switch stream:
    # one per estimate, or one per cycle shared by the m blocks
    per_switch = m if sharing == SHARED_PER_CYCLE else 1
    switch = RngBundle.from_seed(3).switch
    switches = [bernoulli_switch(switch, cfg.p) for _ in range(cfg.cycles * m // per_switch)]
    corrections = per_switch * switches.count(False)
    assert 0 < corrections < per_switch * len(switches)
    assert _GatherCounting.gathers == corrections
    assert trace.obj == reference.obj and trace.step_sq == reference.step_sq


def _count_bound(monkeypatch, calls, owner, factory, name):
    """Count the functions ``owner.factory`` builds and their calls."""
    build = getattr(owner, factory)

    def counting_build(*args, **kwargs):
        calls[factory] += 1
        bound = build(*args, **kwargs)

        def counting(*a, **kw):
            calls[name] += 1
            return bound(*a, **kw)

        return counting

    monkeypatch.setattr(owner, factory, counting_build)


@pytest.mark.parametrize("part", [BlockPartition.even(16, 4), BlockPartition((3, 3, 2, 2, 1))],
                         ids=lambda p: str(p.block_sizes))
def test_trace_diagnostics_make_no_per_block_calls(part, monkeypatch):
    calls = Counter()
    _count_bound(monkeypatch, calls, QuadraticFiniteSum, "group_kernel", "kernel")
    prob = generate_quadratic(5, n=4, d=part.dim, partition=part, condition_number=3.0)
    metric = exact_quadratic_metric(prob)
    m = part.num_blocks
    for cycles in (3, 17):
        calls.clear()
        cfg = RunConfig(cycles=cycles, x0=np.ones(part.dim), metric=metric)
        pccd_run(prob, L1(0.1), cfg)
        # one kernel built per block per run (a block_grad call would build
        # another) and one call to it per block step; F(x_k) and s_k add none
        assert calls == Counter({"group_kernel": m, "kernel": m * cycles})


@pytest.mark.parametrize("run, units", [(pccd_run, 5), (prox_gd_run, 1)], ids=["pccd", "prox_gd"])
def test_one_prox_call_per_estimate_unit(run, units, monkeypatch):
    calls = Counter()
    _count_bound(monkeypatch, calls, L1, "prox_step", "step")
    prox = L1.prox

    def counting_prox(self, *args):
        calls["prox"] += 1
        return prox(self, *args)

    monkeypatch.setattr(L1, "prox", counting_prox)
    part = BlockPartition((3, 3, 2, 2, 1))
    prob = generate_quadratic(5, n=4, d=part.dim, partition=part, condition_number=3.0)
    metric = exact_quadratic_metric(prob)
    for cycles in (3, 11):
        for record_u in (False, True):
            calls.clear()
            cfg = RunConfig(cycles=cycles, x0=np.ones(part.dim), metric=metric, eta=0.5,
                            record_u=record_u)
            run(prob, L1(0.1), cfg)
            # the cyclic order steps each of the 5 blocks, the simultaneous
            # one all of them at once: the prox step, and with it L1's
            # threshold eta * weight / lam, is built once per unit per run;
            # the step runs once per unit per cycle and the public prox not
            # at all
            assert calls == Counter({"prox_step": units, "step": units * cycles})


@pytest.mark.parametrize("run", [pccd_run, prox_gd_run], ids=["pccd", "prox_gd"])
def test_trace_values_and_gradients_are_stacked_per_chunk(run, monkeypatch):
    calls = Counter()
    for name in ("values_and_grads", "value", "full_grad"):
        fn = getattr(QuadraticFiniteSum, name)

        def counting(self, *args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(QuadraticFiniteSum, name, counting)
    # every cycle steps: the longer runs enter an orbit, whose replay would
    # end the chunks early
    monkeypatch.setattr(algorithms, "_orbit_period", lambda xs: 0)
    part = BlockPartition((3, 3, 2, 2))
    prob = generate_quadratic(5, n=4, d=part.dim, partition=part, condition_number=3.0)
    metric = exact_quadratic_metric(prob)
    assert CHUNK_CYCLES == 64
    for cycles, chunks in ((1, 1), (3, 2), (64, 7), (200, 9), (500, 13)):
        calls.clear()
        run(prob, L1(0.1), RunConfig(cycles=cycles, x0=np.ones(part.dim), metric=metric))
        # chunks of 1, 2, 4, ... up to CHUNK_CYCLES, plus the start row's F
        assert calls == Counter({"values_and_grads": chunks + 1})


@pytest.mark.parametrize("run, units", [(pccd_run, 4), (prox_gd_run, 1)], ids=["pccd", "prox_gd"])
def test_a_run_in_its_orbit_steps_no_further(run, units, monkeypatch):
    """Once an exact run's iterate repeats an earlier one bit for bit, its
    remaining rows are copies: no kernel, prox or diagnostic call."""
    calls = Counter()
    _count_bound(monkeypatch, calls, QuadraticFiniteSum, "group_kernel", "kernel")
    _count_bound(monkeypatch, calls, L1, "prox_step", "step")
    values_and_grads = QuadraticFiniteSum.values_and_grads

    def counting(self, points):
        calls["values_and_grads"] += 1
        return values_and_grads(self, points)

    monkeypatch.setattr(QuadraticFiniteSum, "values_and_grads", counting)
    part = BlockPartition((3, 3, 2, 2))
    prob = generate_quadratic(5, n=4, d=part.dim, partition=part, condition_number=3.0)
    cfg = RunConfig(cycles=500, x0=np.ones(part.dim), metric=exact_quadratic_metric(prob))
    _, trace = run(prob, L1(0.1), cfg)
    found, period = trace.meta["orbit"]
    assert trace.cycles == 500 and found < 500 and period >= 1
    # found is the last stepped cycle, at the end of the chunks 1, 2, 4, ...
    chunks = (found + 1).bit_length() - 1
    assert found + 1 == 2**chunks
    assert calls == Counter({"group_kernel": units, "kernel": units * found, "prox_step": units,
                             "step": units * found, "values_and_grads": chunks + 1})


SIGMOID_RUNS = {"pccd": (pccd_run, 5), "prox_gd": (prox_gd_run, 1), "vrccd": (vrccd_run, 5),
                "page": (page_run, 1)}  # each entry point and its units per cycle


@pytest.mark.parametrize("name, streaming, sharing", [
    ("pccd", False, FRESH_PER_BLOCK), ("prox_gd", False, FRESH_PER_BLOCK),
    ("vrccd", False, FRESH_PER_BLOCK), ("vrccd", False, SHARED_PER_CYCLE),
    ("page", False, FRESH_PER_BLOCK), ("vrccd", True, FRESH_PER_BLOCK),
    ("vrccd", True, SHARED_PER_CYCLE), ("page", True, FRESH_PER_BLOCK),
])
def test_sigmoid_coefficients_once_per_batch_and_point(name, streaming, sharing, monkeypatch):
    """Both sigmoid families, in either order, take one coefficient pass per
    (batch, point): per unit estimate, one for an exact gradient or a refresh
    and two for a correction; one for the anchor; and one per trace row's
    gradient (the start row of a stream reads no gradient)."""
    calls = []
    coeffs = problems._sigmoid_coeffs

    def counting(*args):
        calls.append(1)
        return coeffs(*args)

    monkeypatch.setattr(problems, "_sigmoid_coeffs", counting)
    monkeypatch.setattr(algorithms, "_orbit_period", lambda xs: 0)
    part = BlockPartition((3, 3, 2, 2, 1))
    if streaming:
        prob = generate_streaming_classification(11, d=part.dim, partition=part)
        metric = DiagonalMetric.from_block_scales(part, [2.0, 1.0, 0.5, 1.5, 1.0])
    else:
        prob = generate_classification(11, n=24, d=part.dim, partition=part)
        metric = prob.metric()
    run, units = SIGMOID_RUNS[name]
    K = 9
    rows = K if streaming else K + 1
    if run in (pccd_run, prox_gd_run):
        run(prob, L1(0.05), RunConfig(cycles=K, x0=np.linspace(-1.0, 1.0, part.dim), metric=metric))
        assert len(calls) == units * K + rows
        return
    cfg = RunConfig(cycles=K, x0=np.linspace(-1.0, 1.0, part.dim), metric=metric, eta=0.5, p=0.4,
                    b=8, b_prime=3, sample_sharing=sharing, surrogate_samples=50 if streaming else 0)
    run(prob, L1(0.05), cfg, RngBundle.from_seed(13))
    # the run's switches, read back from a fresh copy of its switch stream:
    # one per unit estimate, or one per cycle shared by every unit
    per_switch = units if sharing == SHARED_PER_CYCLE else 1
    switches = bernoulli_switches(RngBundle.from_seed(13).switch, cfg.p, K * units // per_switch)
    estimates = sum(per_switch * (1 if refresh else 2) for refresh in switches.tolist())
    assert len(calls) == 1 + estimates + rows
