"""The engine steps the seeds of a recursive run as one (S, d) stack. Each
seed keeps its own streams, draws, output index and refresh or correction
branch, so its trace, output index and returned iterate are bit for bit
those of its run alone, a stack of one: for every recursive method name,
both sharing modes, every regularizer, with and without ``record_u``, on the
quadratic and sigmoid finite sums and both streaming families. A seed that
diverges leaves the stack and the others run on; the harness writes the same
files at any ``--jobs`` and raises the first error in seed order. Each seed
is charged an equal share of the stack's time."""

import math

import numpy as np
import pytest

from ccdlab import algorithms, harness
from ccdlab.algorithms import FRESH_PER_BLOCK, SHARED_PER_CYCLE, RunConfig, SeedStack
from ccdlab.blocks import BlockPartition, DiagonalMetric
from ccdlab.config import METHODS, STOCHASTIC, parse_config
from ccdlab.problems import (
    generate_classification,
    generate_quadratic,
    generate_streaming_classification,
    generate_streaming_quadratic,
)
from ccdlab.regularizers import L1, Box, Zero
from ccdlab.sampling import RngBundle, bernoulli_switches

PART = BlockPartition((3, 2, 2, 1))
SEEDS = [11, 12, 13, 14, 15]
# each regularizer, and L1 both with and without record_u (on a stream, a
# surrogate in place of record_u)
PASSES = [(Zero(), False), (L1(0.05), False), (L1(0.05), True), (Box(-0.6, 0.7), True)]
FAMILIES = {
    "quadratic": lambda: generate_quadratic(3, n=24, d=PART.dim, partition=PART, condition_number=4.0),
    "sigmoid": lambda: generate_classification(5, n=24, d=PART.dim, partition=PART),
    "streaming-quadratic": lambda: generate_streaming_quadratic(7, d=PART.dim, partition=PART),
    "streaming-sigmoid": lambda: generate_streaming_classification(9, d=PART.dim, partition=PART),
}
# every recursive name with the settings it fixes, under both sharing modes
# unless the name fixes one
NAMED = [(name, sharing) for name in STOCHASTIC
         for sharing in ([METHODS[name].sample_sharing] if METHODS[name].sample_sharing
                         else [FRESH_PER_BLOCK, SHARED_PER_CYCLE])]


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


def _record(x, trace):
    """Everything a run returns, floats as their bits."""
    return (_bits(x), trace.k, _bits(trace.obj), _bits(trace.stat_sq), _bits(trace.step_sq),
            _bits(trace.est_err_sq), _bits(trace.mid_resid_sq), trace.work, trace.seed,
            trace.meta["output_index"])


def _config(name, sharing, prob, record_u):
    method = METHODS[name]
    p = 0.4 if method.p is None else method.p
    b = 12  # batches of 8 or more rows are summed pairwise
    metric = prob.metric() if prob.is_finite else DiagonalMetric.from_block_scales(
        PART, [1.5, 1.0, 2.0, 0.8])
    return RunConfig(cycles=7, x0=np.linspace(-0.5, 0.6, PART.dim), metric=metric, eta=0.5, p=p,
                     b=b, b_prime=b if method.bprime_is_b else 9, sample_sharing=sharing,
                     record_u=record_u and prob.is_finite,
                     surrogate_samples=20 if record_u and not prob.is_finite else 0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name, sharing", NAMED, ids=[f"{n}-{s}" for n, s in NAMED])
def test_each_seed_of_a_stack_runs_as_it_runs_alone(name, sharing, family):
    prob = FAMILIES[family]()
    entry = getattr(algorithms, METHODS[name].entry)
    mixed = False
    for reg, record_u in PASSES:
        cfg = _config(name, sharing, prob, record_u)
        alone = [_record(*entry(prob, reg, cfg, RngBundle.from_seed(s))) for s in SEEDS]
        for size in (1, 2, 5):
            seats = SeedStack([RngBundle.from_seed(s) for s in SEEDS[:size]]).seats
            stacked = [_record(*entry(prob, reg, cfg, seat)) for seat in seats]
            assert stacked == alone[:size]
        steps = cfg.cycles * (1 if sharing == SHARED_PER_CYCLE else 4 if entry is
                              algorithms.vrccd_run else 1)
        switches = np.array([bernoulli_switches(RngBundle.from_seed(s).switch, cfg.p, steps)
                             for s in SEEDS])
        mixed = mixed or bool((switches.any(axis=0) & ~switches.all(axis=0)).any())
    # a stack of seeds that refresh and correct at the same step was among them
    assert mixed or METHODS[name].p == 1.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_row_of_a_stacked_group_gradient_is_its_seeds_block_gradients(family):
    """The stacked kernels the engine calls: for a stack of seeds, row s of a
    group's exact or batch gradient is seed s's one-block gradients joined,
    bit for bit, for one-block groups and the whole vector, with a width-1
    block and batches summed in order (under 8 rows) and pairwise."""
    prob = FAMILIES[family]()
    rng = np.random.default_rng(23)
    m = PART.num_blocks
    for blocks in [slice(j, j + 1) for j in range(m)] + [slice(None)]:
        js = range(*blocks.indices(m))
        grads = prob.group_batch_grads(blocks)
        for size, seeds in ((1, 3), (9, 3), (12, 1)):
            batches = [prob.draw_batch(rng, size) for _ in range(seeds)]
            x, old = rng.standard_normal((seeds, PART.dim)), rng.standard_normal((seeds, PART.dim))
            g_x, g_old = grads(batches, np.array([x, old]))
            for s, batch in enumerate(batches):
                for got, point in ((g_x[s], x[s]), (g_old[s], old[s])):
                    want = np.concatenate([prob.batch_block_grad(batch, j, point) for j in js])
                    assert got.tobytes() == want.tobytes()
            if prob.is_finite:
                for s, row in enumerate(prob.group_kernel(blocks)(x[:, :, None])[:, :, 0]):
                    want = np.concatenate([prob.block_grad(j, x[s]) for j in js])
                    assert row.tobytes() == want.tobytes()


def test_the_harness_stacks_at_most_stack_seeds_seeds(monkeypatch):
    sizes = []
    run_stack = algorithms._run_stack

    def counting(prob, reg, cfg, cyclic, bundles):
        sizes.append(len(bundles))
        return run_stack(prob, reg, cfg, cyclic, bundles)

    monkeypatch.setattr(algorithms, "_run_stack", counting)
    text = DIVERGING.replace("algorithm.K = 196", "algorithm.K = 20")
    harness.run_traces(parse_config(text.replace("seeds.count = 8", "seeds.count = 20")))
    assert harness.STACK_SEEDS == 8 and sizes == [8, 8, 4]
    sizes.clear()
    # an exact run has no seed to stack
    harness.run_traces(parse_config("problem.n = 8\nproblem.d = 4\nproblem.m = 2\n"
                                    "algorithm.name = pccd\nalgorithm.K = 20\nseeds.count = 6\n"))
    assert sizes == [1] * 6


def test_a_stack_steps_one_run():
    prob = FAMILIES["quadratic"]()
    cfg = _config("vrccd", FRESH_PER_BLOCK, prob, False)
    seats = SeedStack([RngBundle.from_seed(s) for s in SEEDS[:2]]).seats
    algorithms.vrccd_run(prob, Zero(), cfg, seats[0])
    with pytest.raises(ValueError, match="share one problem"):
        algorithms.vrccd_run(prob, L1(0.1), cfg, seats[1])
    # a run the engine refuses fails every seat, without a second attempt
    bad = RunConfig(cycles=3, x0=np.zeros(PART.dim + 1), metric=cfg.metric, p=0.5, b=4, b_prime=2)
    seats, reg = SeedStack([RngBundle.from_seed(s) for s in SEEDS[:2]]).seats, Zero()
    for seat in seats:
        with pytest.raises(ValueError, match="x0 does not match"):
            algorithms.vrccd_run(prob, reg, bad, seat)


# at 26 times the admissible eta every seed's iterate overflows within
# 190-200 cycles, each at its own cycle: at K = 196 the seeds 1004 and 1007
# diverge at 190, in the chunk of cycles 128-191, so they leave the stack
# before 1001 (192), 1003 (196), 1005 and 1006 (195) diverge in the next;
# 1000 and 1002 do not diverge
DIVERGING = """\
problem.family = quadratic
problem.n = 8
problem.d = 4
problem.m = 2
problem.condition_number = 10
algorithm.name = vrccd
algorithm.K = 196
algorithm.p = 0.2
algorithm.b = 4
algorithm.bprime = 1
algorithm.eta_scale = 26
algorithm.eta_override = true
seeds.count = 8
output.record_wall = false
"""


def test_a_diverging_seed_leaves_the_stack_and_the_others_run_on(tmp_path, capsys):
    cfg = parse_config(DIVERGING)
    files = {}
    with np.errstate(all="ignore"):
        for jobs in (1, 2):
            result = harness.run_experiment(cfg, out_dir=tmp_path / str(jobs), jobs=jobs)
            assert result.exit_code == 3
            # the first error in seed order
            assert capsys.readouterr().err == "ccdlab: error: objective value inf at iteration 192\n"
            files[jobs] = {p.name: p.read_bytes() for p in (tmp_path / str(jobs)).rglob("*.csv")}
        res = harness.resolve(cfg)
        alone = {}
        for seed in harness._seed_list(cfg):
            path = tmp_path / "alone" / f"trace_seed{seed}.csv"
            try:
                harness._execute_seed(res, seed, path)
            except algorithms.NonFiniteObjectiveError as exc:
                alone[seed] = exc.iteration
            else:
                alone[seed] = None
    assert alone == {1000: None, 1001: 192, 1002: None, 1003: 196, 1004: 190, 1005: 195, 1006: 195,
                     1007: 190}
    assert files[1] == files[2]
    assert files[1] == {p.name: p.read_bytes() for p in (tmp_path / "alone").rglob("*.csv")}
    for seed, failed_at in alone.items():
        text = files[1][f"trace_seed{seed}.csv"].decode()
        rows = text[text.index(harness.TRACE_HEADER):].splitlines()[1:]
        # a diverging seed keeps every row before its failing one
        assert [int(r.split(",")[0]) for r in rows] == list(range(failed_at or 197))


def test_the_first_error_in_seed_order_is_raised_at_any_jobs():
    cfg = parse_config(DIVERGING)
    for jobs in (1, 2):
        with np.errstate(all="ignore"), pytest.raises(algorithms.NonFiniteObjectiveError) as err:
            harness.run_traces(cfg, jobs=jobs)
        assert err.value.iteration == 192
        assert err.value.trace.k == list(range(192))


class _Clock:
    """A stand-in for ``time`` whose ``perf_counter_ns`` steps by a prime."""

    def __init__(self):
        self.readings = []

    def perf_counter_ns(self):
        self.readings.append(1009 * len(self.readings))
        return self.readings[-1]


@pytest.mark.parametrize("cycles, diverging", [(100, False), (196, True)])
def test_seed_wall_times_are_equal_shares_of_the_stack(monkeypatch, cycles, diverging):
    cfg = parse_config(DIVERGING.replace("algorithm.K = 196", f"algorithm.K = {cycles}"))
    res = harness.resolve(cfg)
    clock = _Clock()
    monkeypatch.setattr(algorithms, "time", clock)
    stack = SeedStack([RngBundle.from_seed(s) for s in harness._seed_list(cfg)])
    with np.errstate(all="ignore"):
        results = [stack.result(i, res.prob, res.reg, res.run, True) for i in range(8)]
    traces = [r.trace if isinstance(r, Exception) else r[1] for r in results]
    # each seed's own error, that of its run alone: 1004 and 1007 left the
    # stack at the end of cycle 191
    failed_at = [getattr(r, "iteration", None) for r in results]
    assert failed_at == ([None, 192, None, 196, 190, 195, 195, 190] if diverging else [None] * 8)
    totals = [t.meta["wall_total_ns"] for t in traces]
    # the stack's time from its first reading to its last, split among the
    # seeds in it, rounded down once per chunk and seed
    loop = clock.readings[-1] - clock.readings[0]
    chunks = 6 + math.ceil((cycles - 63) / 64)
    assert loop - 8 * chunks <= sum(totals) <= loop
    if not diverging:
        assert len(set(totals)) == 1
    for trace in traces:
        assert trace.wall_ns[0] == 0 and sum(trace.wall_ns) <= trace.meta["wall_total_ns"]
