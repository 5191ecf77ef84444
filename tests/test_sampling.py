import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ccdlab.blocks import BlockPartition, DiagonalMetric
from ccdlab.problems import generate_quadratic
from ccdlab.sampling import (
    STREAM_IDS,
    RngBundle,
    bernoulli_switch,
    bernoulli_switches,
    draw_minibatch,
    draw_minibatches,
    stream,
    subset_variance_identity,
    variance_factor,
)


def test_streams_are_reproducible_and_independent():
    a = stream(123, "batch")
    b = stream(123, "batch")
    assert np.array_equal(a.random(10), b.random(10))
    # consuming one stream must not perturb another under the same seed
    bundle = RngBundle.from_seed(5)
    switch_draws_ref = stream(5, "switch").random(6)
    bundle.batch.random(100)  # interleave heavy consumption
    got = np.array([bundle.switch.random() for _ in range(6)])
    assert np.array_equal(got, switch_draws_ref)
    with pytest.raises(ValueError):
        stream(1, "nope")


def test_bundle_holds_one_stream_per_label():
    bundle = RngBundle.from_seed(7)
    assert bundle.seed == 7
    assert [f for f in vars(bundle) if f != "seed"] == list(STREAM_IDS)
    for label in STREAM_IDS:
        assert np.array_equal(getattr(bundle, label).random(4), stream(7, label).random(4))


def test_minibatch_basics():
    rng = stream(7, "batch")
    full = draw_minibatch(rng, 6, 6)
    assert np.array_equal(full, np.arange(6))
    got = draw_minibatch(rng, 10, 4)
    assert len(set(got.tolist())) == 4
    assert got.min() >= 0 and got.max() < 10
    again = draw_minibatch(stream(7, "batch"), 6, 6)
    assert np.array_equal(again, np.arange(6))
    with pytest.raises(ValueError):
        draw_minibatch(rng, 5, 6)
    with pytest.raises(ValueError):
        draw_minibatch(rng, 5, 0)


def test_minibatch_determinism_across_runs():
    seqs = []
    for _ in range(2):
        rng = stream(99, "batch")
        seqs.append([draw_minibatch(rng, 12, 5).tolist() for _ in range(20)])
    assert seqs[0] == seqs[1]


def _swap_loop_minibatch(rng, n, b):
    """The array-swap partial Fisher-Yates that ``draw_minibatch`` replaced,
    kept as its oracle."""
    idx = np.arange(n)
    if b == n:
        return idx
    offsets = rng.integers(np.arange(n, n - b, -1))
    for t in range(b):
        s = t + int(offsets[t])
        idx[t], idx[s] = idx[s], idx[t]
    return idx[:b].copy()


@pytest.mark.parametrize("n, b", [(1, 1), (2, 1), (9, 1), (9, 8), (9, 9), (256, 16), (256, 255)])
def test_minibatch_is_the_swap_loop_bitwise(n, b):
    for seed in range(60):
        rng, ref = stream(seed, "batch"), stream(seed, "batch")
        for _ in range(3):
            got, want = draw_minibatch(rng, n, b), _swap_loop_minibatch(ref, n, b)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the stream is left where the swap loop leaves it
        assert rng.integers(2**62) == ref.integers(2**62)


@st.composite
def _bulk_cases(draw):
    n = draw(st.integers(1, 300))
    size = st.one_of(st.just(1), st.just(n), st.integers(1, n))
    sizes = draw(st.lists(size, min_size=1, max_size=12))
    return n, sizes, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_bulk_cases())
def test_bulk_minibatches_are_consecutive_draws_bitwise(case):
    n, sizes, seed, spare_half_word = case
    bulk, single, oracle = (np.random.default_rng(seed) for _ in range(3))
    if spare_half_word:  # a bounded draw below 2**32 leaves half a 64-bit word spare
        for rng in (bulk, single, oracle):
            rng.integers(5)
    got = draw_minibatches(bulk, n, sizes)
    assert len(got) == len(sizes)
    for b, batch in zip(sizes, got):
        for want in (draw_minibatch(single, n, b), _swap_loop_minibatch(oracle, n, b)):
            assert batch.dtype == want.dtype and np.array_equal(batch, want)
    # each leaves the generator where the one-batch calls leave it
    nxt = bulk.integers(2**62)
    assert nxt == single.integers(2**62) and nxt == oracle.integers(2**62)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([0.0, 0.3, 0.999, 1.0]),
       st.booleans())
def test_bulk_switches_are_consecutive_switches_bitwise(seed, count, p, spare_half_word):
    """Bulk and single switches both equal one scalar uniform draw per
    switch compared with p, and leave the stream where those draws do."""
    bulk, single, oracle = (np.random.default_rng(seed) for _ in range(3))
    if spare_half_word:
        for rng in (bulk, single, oracle):
            rng.integers(5)
    got = bernoulli_switches(bulk, p, count)
    want = [bool(oracle.random() < p) for _ in range(count)]
    assert got.tolist() == want
    assert [bernoulli_switch(single, p) for _ in range(count)] == want
    assert bulk.integers(2**62) == single.integers(2**62) == oracle.integers(2**62)


def test_bulk_draws_reject_bad_arguments():
    for sizes in ([4, 6], [0], [3, -1]):
        with pytest.raises(ValueError):
            draw_minibatches(stream(1, "batch"), 5, sizes)
    assert draw_minibatches(stream(1, "batch"), 5, []) == []
    with pytest.raises(ValueError):
        bernoulli_switches(stream(1, "switch"), 1.5, 3)


def test_single_draw_uniformity_chi_square():
    rng = stream(2024, "batch")
    n, draws = 8, 100_000
    # the same indices as `draws` draw_minibatch(rng, n, 1) calls, bitwise
    firsts = np.concatenate(draw_minibatches(rng, n, [1] * draws))
    counts = np.bincount(firsts, minlength=n).astype(float)
    expected = draws / n
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    assert statistic < chi2.ppf(1 - 1e-3, df=n - 1)


def test_switch_probabilities():
    rng = stream(3, "switch")
    assert all(bernoulli_switch(rng, 1.0) for _ in range(100))
    assert not any(bernoulli_switch(rng, 0.0) for _ in range(100))
    with pytest.raises(ValueError):
        bernoulli_switch(rng, 1.5)
    draws = 1_000_000
    hits = sum(bernoulli_switch(rng, 0.25) for _ in range(draws))
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert abs(hits - draws * 0.25) < 3 * sigma


def test_variance_factor_values():
    assert variance_factor(6, 6) == 0.0
    assert variance_factor(9, 1) == 1.0
    assert variance_factor(5, 2) == pytest.approx(3 / 8)
    assert variance_factor(np.inf, 5) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        variance_factor(4, 5)


def test_subset_enumeration_identity():
    part = BlockPartition.even(5, 2)
    prob = generate_quadratic(71, n=6, d=5, partition=part, condition_number=3.0)
    metric = DiagonalMetric.identity(part)
    x = np.random.default_rng(4).standard_normal(5)
    # full batch: both sides vanish
    lhs, rhs = subset_variance_identity(prob, metric, x, 0, 6)
    assert lhs == 0.0 and rhs == 0.0
    # two components, single draws: the factor is one
    two = generate_quadratic(73, n=2, d=5, partition=part)
    lhs, rhs = subset_variance_identity(two, metric, x, 1, 1)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # generic case is an identity, not an inequality
    lhs, rhs = subset_variance_identity(prob, metric, x, 1, 3)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    big = generate_quadratic(79, n=11, d=5, partition=part)
    with pytest.raises(ValueError):
        subset_variance_identity(big, metric, x, 0, 2)
