import numpy as np
import pytest
from scipy.stats import chi2

from ccdlab.blocks import BlockPartition, DiagonalMetric
from ccdlab.problems import generate_quadratic
from ccdlab.sampling import (
    RngBundle,
    bernoulli_switch,
    draw_minibatch,
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


def test_single_draw_uniformity_chi_square():
    rng = stream(2024, "batch")
    n, draws = 8, 100_000
    counts = np.zeros(n)
    for _ in range(draws):
        counts[draw_minibatch(rng, n, 1)[0]] += 1
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
