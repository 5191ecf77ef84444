import numpy as np
import pytest

from ccdlab import problems
from ccdlab.algorithms import RunConfig, prox_gd_run
from ccdlab.blocks import BlockPartition, DiagonalMetric, weighted_norm_sq
from ccdlab.problems import (
    SIGMOID_CURVATURE_BOUND,
    QuadraticFiniteSum,
    SigmoidClassification,
    StreamingQuadratic,
    estimate_sigma_sq,
    exact_metric_scales,
    exact_quadratic_metric,
    generate_classification,
    generate_quadratic,
    generate_streaming_classification,
    generate_streaming_quadratic,
)
from ccdlab.regularizers import L1, Zero
from ccdlab.smoothness import SmoothnessProfile

PART = BlockPartition.even(8, 3)


def test_generator_determinism():
    a = generate_quadratic(7, n=5, d=8, partition=PART)
    b = generate_quadratic(7, n=5, d=8, partition=PART)
    assert np.array_equal(a.quad, b.quad)
    assert np.array_equal(a.lin, b.lin)
    assert np.array_equal(a.const, b.const)
    s1 = generate_classification(9, n=6, d=8, partition=PART)
    s2 = generate_classification(9, n=6, d=8, partition=PART)
    assert np.array_equal(s1.rows, s2.rows)
    assert np.array_equal(s1.labels, s2.labels)


def test_condition_one_minimizer_matches_descent_run():
    prob = generate_quadratic(11, n=4, d=8, partition=PART, condition_number=1.0)
    metric = exact_quadratic_metric(prob)
    x0 = np.zeros(8)
    x_out, _ = prox_gd_run(
        prob, Zero(), RunConfig(cycles=400, x0=x0, metric=metric, eta=1.0)
    )
    assert np.linalg.norm(x_out + prob.mean_lin) < 1e-10
    assert np.linalg.norm(x_out - prob.x_star) < 1e-10


def test_nonconvex_stays_finite_on_box_corners():
    prob = generate_quadratic(13, n=3, d=8, partition=PART, convex=False)
    assert not prob.is_strongly_convex
    lo, hi = -2.0, 2.0
    rng = np.random.default_rng(0)
    for _ in range(8):
        corner = np.where(rng.random(8) < 0.5, lo, hi)
        assert np.isfinite(prob.value(corner))


def test_gradient_block_consistency():
    for prob in (
        generate_quadratic(17, n=5, d=8, partition=PART),
        generate_classification(17, n=5, d=8, partition=PART),
    ):
        x = np.random.default_rng(1).standard_normal(8)
        full = prob.full_grad(x)
        stitched = np.concatenate([prob.block_grad(j, x) for j in range(PART.num_blocks)])
        assert np.array_equal(stitched, full)
        # component average reproduces the averaged gradient
        for j in range(PART.num_blocks):
            comp = prob.component_block_grads(j, x)
            avg = comp.mean(axis=0)
            ref = prob.block_grad(j, x)
            assert np.allclose(avg, ref, rtol=1e-12, atol=1e-12)


def test_batch_full_equals_explicit_average():
    prob = generate_quadratic(19, n=6, d=8, partition=PART)
    x = np.random.default_rng(2).standard_normal(8)
    idx = np.array([0, 2, 5])
    got = prob.batch_block_grad(idx, 1, x)
    want = prob.component_block_grads(1, x)[idx].mean(axis=0)
    assert np.allclose(got, want, rtol=1e-12)
    # the full index set routes through the exact averaged matrices
    full_idx = np.arange(prob.n)
    assert np.array_equal(prob.batch_block_grad(full_idx, 1, x), prob.block_grad(1, x))


def test_sigmoid_examples():
    prob = generate_classification(23, n=10, d=8, partition=PART)
    for i in range(prob.n):
        assert prob.component_value(i, np.zeros(8)) == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert prob.value(rng.standard_normal(8)) >= 0.0


def test_exact_coupling_projector_example():
    # one component, identity curvature and metric: the coupling matrix is
    # the 0/1 diagonal projector onto the block
    d = 6
    part = BlockPartition((2, 4))
    quad = np.eye(d)[None, :, :]
    prob = QuadraticFiniteSum(quad, np.zeros((1, d)), np.zeros(1), part)
    metric = DiagonalMetric.identity(part)
    q0 = prob.coupling_matrix(0, metric)
    want = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(q0, want, atol=1e-15)
    # zero curvature gives a zero coupling matrix
    prob0 = QuadraticFiniteSum(np.zeros((1, d, d)), np.zeros((1, d)), np.zeros(1), part)
    assert np.all(prob0.coupling_matrix(1, metric) == 0.0)


@pytest.mark.parametrize("n", [1, 3])
def test_expected_block_deviation_equals_coupling_form(n):
    part = BlockPartition((2, 2))
    prob = generate_quadratic(29 + n, n=n, d=4, partition=part, condition_number=3.0)
    metric = exact_quadratic_metric(prob)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    for j in range(2):
        qj = prob.coupling_matrix(j, metric)
        inv = 1.0 / metric.block(j)
        devs = prob.component_block_grads(j, x) - prob.component_block_grads(j, y)
        lhs = float(np.mean(np.sum(devs * devs * inv, axis=1)))
        rhs = float((x - y) @ qj @ (x - y))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("n, d, m", [(16, 8, 4), (64, 12, 3)])
def test_sigmoid_block_deviation_is_at_most_the_coupling_form(n, d, m):
    # the <= form of the quadratic equality above, on random pairs, close
    # pairs and far-apart pairs
    part = BlockPartition.even(d, m)
    prob = generate_classification(53 + n, n=n, d=d, partition=part)
    metric = prob.metric()
    rng = np.random.default_rng(13)
    for j in range(m):
        qj = prob.coupling_matrix(j, metric)
        inv = 1.0 / metric.block(j)
        for step in (1e-3, 1.0, 10.0):
            for _ in range(30):
                x = rng.standard_normal(d)
                y = x + step * rng.standard_normal(d)
                devs = prob.component_block_grads(j, x) - prob.component_block_grads(j, y)
                lhs = float(np.mean(devs * devs @ inv))
                assert lhs <= float((x - y) @ qj @ (x - y)) * (1 + 1e-12)


def test_streaming_sigmoid_coupling_closed_form_matches_monte_carlo():
    # the mean of (C^2 ||a[j]||^2_{Lam_j^-1}) a a^T over 2e5 fixed-seed rows;
    # over five seeds the largest entry error was 1.5 % of the largest entry
    part = BlockPartition((2, 4))
    prob = generate_streaming_classification(59, d=6, partition=part)
    metric = DiagonalMetric.from_block_scales(part, [2.0, 0.5])
    rows = prob.draw_batch(np.random.default_rng(3), 200_000).rows
    for j, cols in enumerate(part.slices):
        weights = rows[:, cols] ** 2 @ (1.0 / metric.block(j)) * SIGMOID_CURVATURE_BOUND**2
        sampled = rows.T @ (weights[:, None] * rows) / len(rows)
        q = prob.coupling_matrix(j, metric)
        assert np.max(np.abs(sampled - q)) <= 0.03 * np.max(q)


def test_sigmoid_sigma_sq_bounds_hold_at_every_point():
    part = BlockPartition.even(8, 4)
    rng = np.random.default_rng(17)
    points = [np.zeros(8)] + [s * rng.standard_normal(8) for s in (1.0, 10.0, 1e3) for _ in range(5)]
    finite = generate_classification(61, n=32, d=8, partition=part)
    metric = finite.metric()
    bound = finite.sigma_sq(metric, None)[0]
    assert all(estimate_sigma_sq(finite, metric, x) <= bound for x in points)
    # a stream's variance, by Monte Carlo: 1e5 drawn rows enumerated as a
    # finite sum; at x = 0, the closest point, it is 0.92 of the bound
    stream = generate_streaming_classification(67, d=8, partition=part)
    metric = DiagonalMetric.from_block_scales(part, [2.0, 1.0, 0.5, 3.0])
    batch = stream.draw_batch(np.random.default_rng(19), 100_000)
    sample = SigmoidClassification(batch.rows, batch.labels, part)
    bound = stream.sigma_sq(metric, None)[0]
    assert all(estimate_sigma_sq(sample, metric, x) <= bound for x in points)


def test_sigmoid_coupling_constants_of_the_golden_instance():
    # the pccd-sigmoid-computed-constants golden config's instance
    part = BlockPartition.even(8, 4)
    prob = generate_classification(7, n=16, d=8, partition=part)
    metric = prob.metric()
    q_list = problems.exact_coupling_matrices(prob, metric)
    profile = SmoothnessProfile.from_coupling_matrices(metric, q_list)
    assert profile.lip_trailing == pytest.approx(0.470, abs=1e-3)
    assert profile.lip_leading == pytest.approx(0.267, abs=1e-3)


def test_block_smoothness_global_inequality():
    # with the calibrated metric, gradients of points differing in one block
    # are non-expansive in the paired norms; same for the sigmoid bound
    part = BlockPartition.even(8, 3)
    quad = generate_quadratic(31, n=4, d=8, partition=part, convex=False)
    sig = generate_classification(37, n=12, d=8, partition=part)
    for prob, metric in ((quad, exact_quadratic_metric(quad)), (sig, sig.metric())):
        rng = np.random.default_rng(11)
        for _ in range(40):
            j = int(rng.integers(part.num_blocks))
            cols = part.block_slice(j)
            x = rng.standard_normal(8)
            y = x.copy()
            y[cols] += rng.standard_normal(cols.stop - cols.start)
            lam = metric.block(j)
            lhs = weighted_norm_sq(prob.block_grad(j, x) - prob.block_grad(j, y), 1.0 / lam)
            rhs = weighted_norm_sq(x[cols] - y[cols], lam)
            assert lhs <= rhs * (1 + 1e-10)


def test_sigma_examples():
    part = BlockPartition((2,))
    ident = DiagonalMetric.identity(part)
    # single component: zero variance
    one = generate_quadratic(41, n=1, d=2, partition=part)
    assert estimate_sigma_sq(one, exact_quadratic_metric(one), np.zeros(2)) == 0.0
    # identical components: zero variance
    same = QuadraticFiniteSum(
        np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
        np.tile([1.0, -1.0], (3, 1)),
        np.zeros(3),
        part,
        identical_components=True,
    )
    assert estimate_sigma_sq(same, ident, np.ones(2)) == 0.0
    # opposite unit linear terms: unit deviation for each component
    pair = QuadraticFiniteSum(
        np.broadcast_to(np.eye(2), (2, 2, 2)).copy(),
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.zeros(2),
        part,
    )
    assert estimate_sigma_sq(pair, ident, np.zeros(2)) == pytest.approx(1.0)


def test_pl_constant_identity_case():
    part = BlockPartition((3,))
    eigs = np.array([0.5, 2.0, 4.0])
    quad = np.diag(eigs)[None, :, :]
    prob = QuadraticFiniteSum(quad, np.zeros((1, 3)), np.zeros(1), part)
    assert prob.pl_constant(DiagonalMetric.identity(part)) == pytest.approx(0.5, rel=1e-12)


def test_gap_has_no_cancellation():
    prob = generate_quadratic(43, n=3, d=8, partition=PART, condition_number=4.0)
    x = prob.x_star + 1e-9
    gap = prob.gap(x)
    assert 0.0 < gap < 1e-15
    assert prob.gap(prob.x_star) == 0.0


def test_streaming_quadratic_contracts():
    part = BlockPartition.even(6, 2)
    prob = generate_streaming_quadratic(47, d=6, partition=part, lin_scale=0.5)
    rng = np.random.default_rng(0)
    b1 = prob.draw_batch(rng, 4)
    b2 = prob.draw_batch(np.random.default_rng(0), 4)
    assert np.array_equal(b1.lin, b2.lin)
    x = np.ones(6)
    big = prob.draw_batch(rng, 20000)
    (approx,) = prob.group_batch_grads(slice(None))(big, (x,))
    assert np.allclose(approx, prob.population_grad(x), atol=0.05)
    metric = exact_quadratic_metric(prob)
    exact = prob.sigma_sq(metric, None)[0]
    # the component gradients differ only in their linear terms, so a batch
    # mean of size b deviates from the population gradient by sigma^2 / b
    size = 8
    dev = np.array([prob.draw_batch(rng, size).lin - prob.lin_mean for _ in range(2500)])
    sampled = float(np.mean(np.sum(dev * dev * metric.inv_entries, axis=1))) * size
    assert sampled == pytest.approx(exact, rel=0.1)


# every block at least 2 wide: such a block's column mean rounds as the
# whole batch's does
CHUNK_PARTS = [BlockPartition.even(2, 1), BlockPartition.even(3, 1),
               BlockPartition.even(8, 4), BlockPartition.even(64, 4)]


@pytest.mark.parametrize("part", CHUNK_PARTS, ids=lambda p: f"d{p.dim}")
def test_streaming_quadratic_chunked_mean_is_bitwise_the_batch_mean(part):
    d, chunk = part.dim, problems._STREAM_CHUNK
    prob = generate_streaming_quadratic(59, d=d, partition=part, lin_scale=0.7)
    x = np.random.default_rng(61).standard_normal(d)
    for size in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 100_000):
        ours, plain = np.random.default_rng(size), np.random.default_rng(size)
        batch = prob.draw_batch(ours, size)
        lin = prob.lin_mean + prob.lin_scale * plain.standard_normal((size, d))
        assert np.array_equal(batch.lin, np.add.reduce(lin, axis=0) / size)
        # the values and block gradients of the whole (size, d) batch
        assert prob.batch_value(batch, x) == float(
            0.5 * x @ (prob.quad @ x) + lin.mean(axis=0) @ x
        )
        for j, cols in enumerate(part.slices):
            assert np.array_equal(
                prob.batch_block_grad(batch, j, x), prob.quad[cols] @ x + lin[:, cols].mean(axis=0)
            )
        # both generators stand at the same point of the stream
        assert ours.standard_normal() == plain.standard_normal()


def test_streaming_quadratic_width_one_block_sums_sequentially():
    # a width-1 block reads its column of the batch's column sum, which adds
    # the rows one after another (a lone column would be summed pairwise)
    part = BlockPartition((1, 2))
    prob = generate_streaming_quadratic(67, d=3, partition=part)
    size = 3 * problems._STREAM_CHUNK + 5
    x = np.random.default_rng(71).standard_normal(3)
    batch = prob.draw_batch(np.random.default_rng(73), size)
    lin = prob.lin_mean + prob.lin_scale * np.random.default_rng(73).standard_normal((size, 3))
    total = 0.0
    for value in lin[:, 0].tolist():
        total += value
    assert np.array_equal(prob.batch_block_grad(batch, 0, x), prob.quad[:1] @ x + total / size)


def test_sigmoid_full_gradients_slice_into_block_gradients_bitwise(monkeypatch):
    """The all-blocks group of either sigmoid family takes one coefficient
    pass per batch and point, and each of its slices is the block's own
    gradient, bit for bit: the exact kernel, and batch gradients at one or
    two points, of any batch size."""
    part = BlockPartition((1, 2, 5))
    rng = np.random.default_rng(79)
    finite = generate_classification(83, n=40, d=8, partition=part)
    stream = generate_streaming_classification(89, d=8, partition=part)
    calls = []
    coeffs = problems._sigmoid_coeffs

    def counting(*args):
        calls.append(1)
        return coeffs(*args)

    monkeypatch.setattr(problems, "_sigmoid_coeffs", counting)
    kernel = finite.group_kernel(slice(None))
    batches = [(finite, finite.draw_batch(rng, size)) for size in (1, 16, 40)]
    batches += [(stream, stream.draw_batch(rng, size)) for size in (1, 8, 100)]
    for _ in range(3):
        x, old = rng.standard_normal(8), rng.standard_normal(8)
        calls.clear()
        full = kernel(x)
        assert len(calls) == 1
        # the anchor's b = n case: a full batch's gradient is full_grad
        assert np.array_equal(finite.group_batch_grads(slice(None))(np.arange(40), (x,))[0], full)
        for j, cols in enumerate(part.slices):
            assert np.array_equal(full[cols], finite.block_grad(j, x))
        for prob, batch in batches:
            calls.clear()
            g_x, g_old = prob.group_batch_grads(slice(None))(batch, (x, old))
            assert len(calls) == 2
            for j, cols in enumerate(part.slices):
                assert np.array_equal(g_x[cols], prob.batch_block_grad(batch, j, x))
                assert np.array_equal(g_old[cols], prob.batch_block_grad(batch, j, old))


def test_streaming_classification_batches():
    part = BlockPartition.even(6, 3)
    prob = generate_streaming_classification(53, d=6, partition=part)
    batch = prob.draw_batch(np.random.default_rng(5), 32)
    assert set(np.unique(batch.labels)) <= {-1.0, 1.0}
    g = prob.batch_block_grad(batch, 1, np.zeros(6))
    assert g.shape == (2,)
    assert 0.0 <= prob.batch_value(batch, np.zeros(6)) <= 1.0


# -- the contiguous coupling slab and the paired batch gradients ------------

UNEVEN = [
    BlockPartition((1, 5, 5, 5)),
    BlockPartition((2, 3, 5, 7, 11, 36)),
    BlockPartition((1, 1, 1, 1)),
    BlockPartition.even(7, 3),
]


def _strided_coupling(prob, j, metric):
    """The coupling matrix as computed on the strided block-row view, and
    for the streaming quadratic on its one curvature matrix: the oracle the
    family's ``coupling_matrix`` must match bit for bit."""
    cols = prob.partition.block_slice(j)
    inv = 1.0 / metric.block(j)
    if isinstance(prob, StreamingQuadratic):
        rows_mat = prob.quad[cols]
        out = rows_mat.T @ (inv[:, None] * rows_mat)
    elif prob.identical_components:
        rows_mat = prob.quad[0, cols]
        out = rows_mat.T @ (inv[:, None] * rows_mat)
    else:
        stacked = prob.quad[:, cols, :]
        out = np.einsum("nrd,nre->de", stacked * inv[None, :, None], stacked) / prob.n
    return 0.5 * (out + out.T)


def _strided_metric_scales(prob):
    scales = []
    for cols in prob.partition.slices:
        if isinstance(prob, StreamingQuadratic):
            sub = prob.quad[cols, cols]
            msq = sub @ sub
        elif prob.identical_components:
            sub = prob.quad[0, cols, cols]
            msq = sub @ sub
        else:
            subs = prob.quad[:, cols, cols]
            msq = np.einsum("nab,nbc->ac", subs, subs) / prob.n
        top = float(np.linalg.eigvalsh(msq)[-1])
        scales.append(max(np.sqrt(max(top, 0.0)) * (1.0 + 1e-12), 1e-12))
    return np.array(scales)


@pytest.mark.parametrize("part", UNEVEN, ids=lambda p: "-".join(map(str, p.block_sizes)))
@pytest.mark.parametrize("n", [1, 2, 256])
def test_coupling_matrices_match_the_strided_einsum_bitwise(part, n):
    d = part.dim
    instances = [
        (seed, generate_quadratic(
            seed, n=n, d=d, partition=part, convex=convex, identical_curvature=identical
        ))
        for seed, convex, identical in ((3, True, False), (4, False, False), (5, True, True))
    ]
    # a stream has no n: the streaming quadratic is checked once per partition
    if n == 1:
        instances.append((6, generate_streaming_quadratic(6, d=d, partition=part)))
    for seed, prob in instances:
        assert np.array_equal(exact_metric_scales(prob), _strided_metric_scales(prob))
        # a metric that varies within blocks as well as across them
        entries = np.random.default_rng(seed).uniform(0.5, 4.0, size=d)
        for metric in (exact_quadratic_metric(prob), DiagonalMetric(entries, part)):
            for j in range(part.num_blocks):
                assert np.array_equal(
                    prob.coupling_matrix(j, metric), _strided_coupling(prob, j, metric)
                )


def _assert_pairs_match(prob, batch, x, old):
    for j in range(prob.partition.num_blocks):
        g_x, g_old = prob.group_batch_grads(slice(j, j + 1))(batch, (x, old))
        assert np.array_equal(g_x, prob.batch_block_grad(batch, j, x))
        assert np.array_equal(g_old, prob.batch_block_grad(batch, j, old))


@pytest.mark.parametrize("part", UNEVEN[:2], ids=["1-5-5-5", "2-3-5-7-11-36"])
def test_paired_batch_gradients_match_two_calls_bitwise(part):
    d = part.dim
    rng = np.random.default_rng(17)
    x, old = rng.standard_normal(d), rng.standard_normal(d)
    quad = generate_quadratic(19, n=40, d=d, partition=part)
    sigmoid = generate_classification(23, n=40, d=d, partition=part)
    for prob in (quad, sigmoid):
        for size in (1, 16, 40):  # b' < n, and the full batch b = n
            _assert_pairs_match(prob, prob.draw_batch(rng, size), x, old)
    for prob in (
        generate_streaming_quadratic(29, d=d, partition=part),
        generate_streaming_classification(31, d=d, partition=part),
    ):
        for size in (1, 16):
            _assert_pairs_match(prob, prob.draw_batch(rng, size), x, old)


def test_batch_gradient_sum_rounds_as_mean():
    # the batch kernel divides an add.reduce by the count, which is np.mean
    prob = generate_quadratic(37, n=64, d=8, partition=PART)
    rng = np.random.default_rng(41)
    for size in (1, 3, 16, 63):
        idx = prob.draw_batch(rng, size)
        x = rng.standard_normal(8)
        for j, cols in enumerate(PART.slices):
            g = prob.quad[idx, cols, :] @ x + prob.lin[idx, cols]
            assert np.array_equal(prob.batch_block_grad(idx, j, x), g.mean(axis=0))


CONTRACT_PARTS = [
    BlockPartition((1, 2, 5)),
    BlockPartition((3, 3, 2, 2, 1)),
    BlockPartition.even(64, 4),
    BlockPartition.even(7, 3),
    BlockPartition.even(5, 5),
]


@pytest.mark.parametrize("part", CONTRACT_PARTS, ids=lambda p: str(p.block_sizes))
def test_stacked_values_and_gradients_are_the_per_row_calls_bitwise(part):
    """``values_and_grads`` over a (c, d) stack, as the cycle engine reads a
    chunk's rows, gives each row's ``value`` and ``full_grad`` bit for bit:
    the quadratic family's stacked matmuls and the sigmoid's per-row loop."""
    d = part.dim
    rng = np.random.default_rng(d + 11)
    fams = [generate_quadratic(d, n=5, d=d, partition=part, convex=convex) for convex in (True, False)]
    fams.append(generate_classification(d, n=9, d=d, partition=part))
    for prob in fams:
        for count in (1, 2, 7, 64):
            points = rng.standard_normal((count, d)) * rng.uniform(0.01, 100.0, (count, 1))
            values, grads = prob.values_and_grads(points)
            assert values == [prob.value(x) for x in points]
            assert all(type(v) is float for v in values)
            assert np.array_equal(grads, np.array([prob.full_grad(x) for x in points]))


@pytest.mark.parametrize("part", CONTRACT_PARTS, ids=lambda p: str(p.block_sizes))
def test_quadratic_full_gradient_slices_are_block_gradients_bitwise(part):
    """``full_grad`` makes one stacked matmul per run of equal-size blocks;
    every slice must still be the block kernel's output, bit for bit. A
    batch's full-vector gradient, of any size and from either quadratic
    family, is its block batch gradients concatenated, bit for bit."""
    d = part.dim
    rng = np.random.default_rng(d)

    def assert_batch_full_is_stitched(prob, batch, x):
        stitched = [prob.batch_block_grad(batch, j, x) for j in range(part.num_blocks)]
        assert np.array_equal(prob.group_batch_grads(slice(None))(batch, (x,))[0], np.concatenate(stitched))

    for convex in (True, False):
        prob = generate_quadratic(d + 3, n=5, d=d, partition=part, convex=convex)
        full_idx = np.arange(prob.n)
        for _ in range(3):
            x = rng.standard_normal(d) * rng.uniform(0.1, 100.0)
            full = prob.full_grad(x)
            assert np.array_equal(prob.group_batch_grads(slice(None))(full_idx, (x,))[0], full)
            for j, cols in enumerate(part.slices):
                assert np.array_equal(full[cols], prob.block_grad(j, x))
            for size in (1, prob.n - 2, prob.n):
                assert_batch_full_is_stitched(prob, prob.draw_batch(rng, size), x)
    stream = generate_streaming_quadratic(d + 5, d=d, partition=part)
    for size in (1, 7):
        x = rng.standard_normal(d) * rng.uniform(0.1, 100.0)
        assert_batch_full_is_stitched(stream, stream.draw_batch(rng, size), x)


# -- the premises each family states about itself ---------------------------

PREMISE_PART = BlockPartition((2, 3, 3))


def _premise_instances():
    """(instance, metric_mode, whether its sigma_sq holds at every x, whether
    it states F* and mu: True, False, or "raises" for mu)."""
    part = PREMISE_PART
    return [
        (generate_quadratic(71, n=5, d=8, partition=part), "exact_quadratic", False, True),
        (
            generate_quadratic(73, n=5, d=8, partition=part, identical_curvature=True),
            "exact_quadratic",
            True,
            True,
        ),
        (
            generate_quadratic(75, n=5, d=8, partition=part, convex=False),
            "exact_quadratic",
            False,
            "raises",
        ),
        (generate_classification(79, n=12, d=8, partition=part), "sigmoid_bound", True, False),
        (generate_streaming_quadratic(83, d=8, partition=part), "exact_quadratic", True, False),
        (generate_streaming_classification(89, d=8, partition=part), None, True, False),
    ]


@pytest.mark.parametrize(
    "index", range(6),
    ids=["quadratic", "identical-quadratic", "nonconvex-quadratic", "sigmoid",
         "streaming-quadratic", "streaming-sigmoid"],
)
def test_each_family_states_its_premises(index):
    prob, mode, everywhere, reference = _premise_instances()[index]
    d = prob.dim
    assert prob.metric_mode == mode
    if mode is None:
        with pytest.raises(ValueError, match="lambda.values"):
            prob.metric()
        metric = DiagonalMetric.from_block_scales(PREMISE_PART, [2.0, 1.0, 0.5])
    else:
        metric = prob.metric()
        assert isinstance(metric, DiagonalMetric) and metric.partition == PREMISE_PART
        assert np.all(metric.entries > 0)
    for j in range(PREMISE_PART.num_blocks):
        q = prob.coupling_matrix(j, metric)
        assert q.shape == (d, d)
        assert np.array_equal(q, q.T)
    x0 = np.random.default_rng(97).standard_normal(d)
    value, holds = prob.sigma_sq(metric, x0)
    assert holds == everywhere
    assert isinstance(value, float) and value >= 0.0
    # F* in closed form only without a regularizer; a solve reaches it with one
    assert prob.solve_reaches_minimum == (reference is True)
    assert prob.closed_form_minimum(L1(0.1)) is None
    if reference is True:
        assert prob.closed_form_minimum(Zero()) == prob.f_star
        assert prob.pl_constant(metric) > 0.0
        return
    assert prob.closed_form_minimum(Zero()) is None
    if reference == "raises":
        with pytest.raises(ValueError, match="strongly convex"):
            prob.pl_constant(metric)
    else:
        assert prob.pl_constant(metric) is None
