"""Seeded randomness: named independent streams, without-replacement
minibatches, the estimator refresh switch, and the exact subset-enumeration
oracle for the minibatch variance identity.

All randomness in a run derives from one base seed. Each consumer gets its
own named stream so that algorithm variants that consume different amounts
of randomness stay comparable under a shared seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

STREAM_IDS = {"switch": 0, "batch": 1, "output": 2, "surrogate": 3}


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible generator for (seed, label)."""
    if label not in STREAM_IDS:
        raise ValueError(f"unknown stream label {label!r}; expected one of {sorted(STREAM_IDS)}")
    ss = np.random.SeedSequence(int(seed), spawn_key=(STREAM_IDS[label],))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(eq=False)
class RngBundle:
    """The named streams one optimizer run consumes."""

    seed: int
    switch: np.random.Generator
    batch: np.random.Generator
    output: np.random.Generator
    surrogate: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngBundle":
        return cls(
            seed=int(seed),
            switch=stream(seed, "switch"),
            batch=stream(seed, "batch"),
            output=stream(seed, "output"),
            surrogate=stream(seed, "surrogate"),
        )


def draw_minibatch(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """b distinct indices from range(n), uniform over size-b subsets: the
    one-batch case of :func:`draw_minibatches`. The full batch b == n is
    returned in natural order without consuming randomness."""
    return draw_minibatches(rng, n, [b])[0]


def draw_minibatches(rng: np.random.Generator, n: int, sizes: list[int]) -> list[np.ndarray]:
    """One minibatch from range(n) per entry of ``sizes``, bitwise equal to
    consecutive ``draw_minibatch(rng, n, b)`` calls, leaving ``rng`` where
    they leave it.

    Each batch of size b < n is a partial Fisher-Yates shuffle: step t swaps
    slot t with slot t + offset_t, offset_t uniform below n - t, and settles
    slot t. All batches' offsets come from one ``rng.integers`` call over
    their concatenated bounds, and the swaps are settled together without a
    loop over steps. Step t takes the index that its target slot holds just
    before it: that is the index held by the latest earlier step of its batch
    with the same target, just before that step swapped, or else the target
    itself. So sorting the steps by (batch, target) links each step to its
    predecessor, and pointer jumping follows each chain to the index it
    started from. Memory is O(indices drawn), never O(batches * n).
    """
    for b in sizes:
        if not 1 <= b <= n:
            raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    drawn = [b for b in sizes if b < n]
    pieces = iter(())
    if drawn:
        lengths = np.array(drawn)
        ends = lengths.cumsum()
        starts = ends - lengths
        total = int(ends[-1])
        step = np.arange(total)
        t = step - starts.repeat(lengths)  # each step's slot in its batch
        # slot s of the k-th drawn batch has the key k * n + s, so the
        # batches' slots stay apart when the steps are sorted by target
        own = t + np.arange(0, n * len(drawn), n).repeat(lengths)
        offsets = rng.integers(n - t)
        key = own + offsets  # the target's key
        order = key.argsort(kind="stable")
        sorted_key = key[order]
        # prev: the latest earlier step with the same target, or -1
        prev = np.full(total, -1)
        same = sorted_key[1:] == sorted_key[:-1]
        prev[order[1:][same]] = order[:-1][same]
        # link: the latest earlier step that targeted this step's own slot,
        # or the step itself; a step that swaps with itself is the last to
        # target its own slot, so the search steps back past it
        last = sorted_key.searchsorted(own, side="right") - 1 - (offsets == 0)
        link = np.where(sorted_key[last] == own, order[last], step)
        while True:
            jumped = link[link]
            if (jumped == link).all():
                break
            link = jumped
        # t[link]: the index each step's slot held just before that step
        out = np.where(prev >= 0, t[link][prev], t + offsets)
        pieces = (out[a:e] for a, e in zip(starts.tolist(), ends.tolist()))
    return [next(pieces) if b < n else np.arange(n) for b in sizes]


def bernoulli_switch(rng: np.random.Generator, p: float) -> bool:
    """True with probability p (the full-batch refresh branch).

    Always consumes exactly one uniform draw, so p = 0 and p = 1 keep the
    stream aligned with intermediate values.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"refresh probability must lie in [0, 1], got {p}")
    return bool(rng.random() < p)


def bernoulli_switches(rng: np.random.Generator, p: float, count: int) -> np.ndarray:
    """``count`` refresh switches, bitwise equal to consecutive
    ``bernoulli_switch(rng, p)`` calls and leaving ``rng`` where they leave
    it: one uniform draw each, made in one call."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"refresh probability must lie in [0, 1], got {p}")
    return rng.random(count) < p


def variance_factor(n: float, b: int) -> float:
    """Without-replacement minibatch variance factor (n - b) / (b (n - 1)).

    1/b for a stream (n = math.inf); zero for the full batch b = n.
    """
    if b < 1:
        raise ValueError("batch size must be positive")
    if n == math.inf:
        return 1.0 / b
    n = int(n)
    if b > n:
        raise ValueError(f"need b <= n, got b={b}, n={n}")
    if b == n:
        return 0.0
    return (n - b) / (b * (n - 1))


def subset_variance_identity(
    prob, metric, x: np.ndarray, j: int, b: int, max_n: int = 10
) -> tuple[float, float]:
    """Exact check of the minibatch variance identity by full enumeration.

    Returns (lhs, rhs): lhs averages, over all C(n, b) subsets, the squared
    inverse-metric deviation of the subset-mean block gradient from the full
    block gradient; rhs is variance_factor(n, b) times the single-component
    deviation moment. The two are equal as an identity; tests assert it to
    1e-10 relative.
    """
    if not prob.is_finite:
        raise ValueError("subset enumeration needs a finite-sum objective")
    n = prob.n
    if n > max_n:
        raise ValueError(f"enumeration limited to n <= {max_n}, got n={n}")
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}")
    x = np.asarray(x, dtype=float)
    grads = prob.component_block_grads(j, x)  # (n, d_j)
    full = grads.mean(axis=0)
    inv = 1.0 / metric.block(j)

    combos = np.array(list(itertools.combinations(range(n), b)))
    dev = grads[combos].mean(axis=1) - full  # (C(n,b), d_j)
    lhs = float(np.mean(np.sum(dev * dev * inv, axis=1)))

    comp_dev = grads - full
    second_moment = float(np.mean(np.sum(comp_dev * comp_dev * inv, axis=1)))
    rhs = variance_factor(n, b) * second_moment
    return lhs, rhs
