"""The engine draws a recursive run's switches and minibatches before cycle 1
and steps each estimate unit through the plan it builds then, one group of
blocks per unit: each block in the cyclic order, all of them in the
simultaneous one. A per-step loop that draws one switch and one batch when
each estimate needs them, in the order the streams are read, and that calls
the public per-block ``block_grad``, ``batch_block_grad`` and ``prox`` at
each step (concatenated over the blocks for a whole-vector unit), must give
the same iterates bit for bit, signed zeros included: for the recursive runs
and the exact pccd and prox_gd runs, on even and uneven partitions, under
every regularizer, for the quadratic family and for the sigmoid family,
whose group gradients share one coefficient pass over the blocks.
With ``record_u`` on, the anchor-error column u_k must match too, bit for
bit: the loop takes each estimate's ``weighted_norm_sq`` against the exact
gradient at the point the estimate was made, per block in the cyclic order
and over the whole vector in the simultaneous one, and adds them in step
order. With b < n a refresh batch draws randomness too, so refresh (size b)
and correction (size b') draws interleave on the batch stream."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdlab.algorithms import (
    FRESH_PER_BLOCK,
    SHARED_PER_CYCLE,
    RunConfig,
    page_run,
    pccd_run,
    prox_gd_run,
    vrccd_run,
)
from ccdlab.blocks import BlockPartition, weighted_norm_sq
from ccdlab.problems import exact_quadratic_metric, generate_classification, generate_quadratic
from ccdlab.regularizers import L1, Box, Zero

ENTRIES = {"vrccd": (vrccd_run, True), "page": (page_run, False),
           "pccd": (pccd_run, True), "prox_gd": (prox_gd_run, False)}
REGULARIZERS = {"zero": Zero(), "l1": L1(0.05), "box": Box(-0.3, 0.4)}
from ccdlab.sampling import RngBundle, bernoulli_switch


def _per_step_run(prob, reg, cfg, rngs, cyclic):
    """x_0, ..., x_K of a run and its u_0, ..., u_K (None unless recorded),
    with each switch and batch drawn when its estimate is made; exact
    gradients when ``rngs`` is None."""
    d = prob.partition.dim
    inv = cfg.metric.inv_entries
    units = list(enumerate(prob.partition.slices)) if cyclic else [(None, slice(0, d))]
    shared = cfg.sample_sharing == SHARED_PER_CYCLE

    def per_block(j, grad):
        blocks = range(prob.partition.num_blocks) if j is None else [j]
        return np.concatenate([grad(i) for i in blocks])

    def grad(j, batch, point):
        return per_block(j, lambda i: prob.batch_block_grad(batch, i, point))

    def exact(j, point):
        return per_block(j, lambda i: prob.block_grad(i, point))

    x = np.array(cfg.x0, dtype=float)
    anchors = [None] * len(units)
    # u_0: zero for exact gradients, unrecorded at p = 1 (no anchor batch)
    u_k = 0.0 if cfg.record_u and (rngs is None or cfg.p < 1.0) else None
    if rngs is not None:
        rngs.output.integers(1, cfg.cycles + 1)  # the output index comes first, as in the engine
        if cfg.p < 1.0:
            g_init = grad(None, prob.draw_batch(rngs.batch, cfg.b), x)
            anchors = [np.array(g_init[cols]) for _, cols in units]
            if cfg.record_u:
                for (j, cols), anchor in zip(units, anchors):
                    u_k += weighted_norm_sq(anchor - exact(j, x), inv[cols])
    iterates, us = [x.copy()], [u_k]
    x_prev, x_prev2 = x.copy(), x.copy()
    for _ in range(cfg.cycles):
        u_k = 0.0 if cfg.record_u else None
        for u, (j, cols) in enumerate(units):
            if rngs is None:
                g = exact(j, x)
            else:
                if u == 0 or not shared:
                    refresh = bernoulli_switch(rngs.switch, cfg.p)
                    batch = prob.draw_batch(rngs.batch, cfg.b if refresh else cfg.b_prime)
                if refresh:
                    g = grad(j, batch, x)
                else:
                    old = np.concatenate((x_prev[:cols.start], x_prev2[cols.start:]))
                    g = anchors[u] + (grad(j, batch, x) - grad(j, batch, old))
                anchors[u] = g
            if cfg.record_u:
                u_k += weighted_norm_sq(g - exact(j, x), inv[cols])
            x[cols] = reg.prox(x_prev[cols], g, cfg.eta, cfg.metric.entries[cols])
        x_prev2, x_prev = x_prev, x.copy()
        iterates.append(x.copy())
        us.append(u_k)
    return iterates, us


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


@st.composite
def _configs(draw):
    sizes = draw(st.one_of(
        st.integers(1, 3).flatmap(lambda m: st.integers(1, 3).map(lambda w: (w,) * m)),
        st.lists(st.integers(1, 3), min_size=2, max_size=4).map(tuple),
    ))
    n = draw(st.integers(2, 12))
    b = draw(st.integers(1, n - 1))
    p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 0.95)))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        n=n, sizes=sizes, b=b,
        b_prime=draw(st.integers(1, b)),
        p=p,
        eta=draw(st.sampled_from([0.5, 1.0])),
        cycles=draw(st.integers(1, 6)),
        sharing=draw(st.sampled_from([FRESH_PER_BLOCK, SHARED_PER_CYCLE])),
        entry=draw(st.sampled_from(sorted(ENTRIES))),
        reg=draw(st.sampled_from(sorted(REGULARIZERS))),
        record_u=draw(st.booleans()),
        family=draw(st.sampled_from(["quadratic", "sigmoid"])),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_engine_draws_match_a_per_step_loop_bitwise(c):
    part = BlockPartition(c["sizes"])
    d = part.dim
    if c["family"] == "quadratic":
        prob = generate_quadratic(c["seed"], n=c["n"], d=d, partition=part)
        metric = exact_quadratic_metric(prob)
    else:
        prob = generate_classification(c["seed"], n=c["n"], d=d, partition=part)
        metric = prob.metric()
    reg = REGULARIZERS[c["reg"]]
    entry, cyclic = ENTRIES[c["entry"]]
    recursive = entry in (vrccd_run, page_run)
    sampling = dict(p=c["p"], b=c["b"], b_prime=c["b_prime"], sample_sharing=c["sharing"])
    cfg = RunConfig(cycles=c["cycles"], eta=c["eta"], x0=np.linspace(-1.0, 1.0, d),
                    metric=metric, keep_iterates=True,
                    record_u=c["record_u"], **(sampling if recursive else {}))
    if recursive:
        _, trace = entry(prob, reg, cfg, RngBundle.from_seed(c["seed"]))
        want, want_u = _per_step_run(prob, reg, cfg, RngBundle.from_seed(c["seed"]), cyclic)
    else:
        _, trace = entry(prob, reg, cfg)
        want, want_u = _per_step_run(prob, reg, cfg, None, cyclic)
    assert len(trace.iterates) == len(want)
    for got, ref in zip(trace.iterates, want):
        assert got.tobytes() == ref.tobytes()
    assert _bits(trace.est_err_sq) == _bits(want_u)
