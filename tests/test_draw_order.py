"""The engine draws a recursive run's switches and minibatches before cycle 1.
A per-step loop that draws one switch and one batch when each estimate needs
them, in the order the streams are read, must give the same iterates bit for
bit. With b < n a refresh batch draws randomness too, so refresh (size b)
and correction (size b') draws interleave on the batch stream."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.algorithms import FRESH_PER_BLOCK, SHARED_PER_CYCLE, RunConfig, page_run, vrccd_run
from ccdlab.blocks import BlockPartition
from ccdlab.problems import exact_quadratic_metric, generate_quadratic
from ccdlab.regularizers import L1
from ccdlab.sampling import RngBundle, bernoulli_switch


def _per_step_iterates(prob, reg, cfg, rngs, cyclic):
    """x_0, ..., x_K of a recursive run, with each switch and batch drawn
    when its estimate is made."""
    d = prob.partition.dim
    units = list(enumerate(prob.partition.slices)) if cyclic else [(None, slice(0, d))]
    shared = cfg.sample_sharing == SHARED_PER_CYCLE

    def grad(j, batch, point):
        return prob.batch_full_grad(batch, point) if j is None else prob.batch_block_grad(batch, j, point)

    rngs.output.integers(1, cfg.cycles + 1)  # the output index comes first, as in the engine
    x = np.array(cfg.x0, dtype=float)
    anchors = [None] * len(units)
    if cfg.p < 1.0:
        g_init = prob.batch_full_grad(prob.draw_batch(rngs.batch, cfg.b), x)
        anchors = [np.array(g_init[cols]) for _, cols in units]
    iterates = [x.copy()]
    x_prev, x_prev2 = x.copy(), x.copy()
    for _ in range(cfg.cycles):
        for u, (j, cols) in enumerate(units):
            if u == 0 or not shared:
                refresh = bernoulli_switch(rngs.switch, cfg.p)
                batch = prob.draw_batch(rngs.batch, cfg.b if refresh else cfg.b_prime)
            if refresh:
                g = grad(j, batch, x)
            else:
                old = np.concatenate((x_prev[:cols.start], x_prev2[cols.start:]))
                g = anchors[u] + (grad(j, batch, x) - grad(j, batch, old))
            anchors[u] = g
            x[cols] = reg.prox(j, x_prev[cols], g, cfg.eta, cfg.metric.entries[cols])
        x_prev2, x_prev = x_prev, x.copy()
        iterates.append(x.copy())
    return iterates


@st.composite
def _configs(draw):
    m = draw(st.integers(1, 3))
    d = m * draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    b = draw(st.integers(1, n - 1))
    p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 0.95)))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        n=n, d=d, m=m, b=b,
        b_prime=draw(st.integers(1, b)),
        p=p,
        cycles=draw(st.integers(1, 6)),
        sharing=draw(st.sampled_from([FRESH_PER_BLOCK, SHARED_PER_CYCLE])),
        cyclic=draw(st.booleans()),
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_engine_draws_match_a_per_step_loop_bitwise(c):
    prob = generate_quadratic(c["seed"], n=c["n"], d=c["d"], partition=BlockPartition.even(c["d"], c["m"]))
    reg = L1(0.05)
    cfg = RunConfig(cycles=c["cycles"], eta=0.5, p=c["p"], b=c["b"], b_prime=c["b_prime"],
                    x0=np.linspace(-1.0, 1.0, c["d"]), metric=exact_quadratic_metric(prob),
                    sample_sharing=c["sharing"], keep_iterates=True)
    entry = vrccd_run if c["cyclic"] else page_run
    _, trace = entry(prob, reg, cfg, RngBundle.from_seed(c["seed"]))
    want = _per_step_iterates(prob, reg, cfg, RngBundle.from_seed(c["seed"]), c["cyclic"])
    assert len(trace.iterates) == len(want)
    for got, ref in zip(trace.iterates, want):
        assert np.array_equal(got, ref)
