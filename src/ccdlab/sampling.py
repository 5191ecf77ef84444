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
    """b distinct indices from range(n), uniform over size-b subsets.

    Partial Fisher-Yates shuffle: only the first b slots are settled, and
    only the slots a swap has touched are stored, in a dict. The full batch
    b == n is returned in natural order without consuming randomness.
    """
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    if b == n:
        return np.arange(n)
    offsets = rng.integers(np.arange(n, n - b, -1)).tolist()
    moved = {}  # slot -> the index it now holds, for the slots a swap touched
    out = []
    for t, off in enumerate(offsets):
        s = t + off
        # swap slots t and s; slot t is settled, slot s keeps slot t's index
        out.append(moved.get(s, s))
        moved[s] = moved.get(t, t)
    return np.array(out)


def bernoulli_switch(rng: np.random.Generator, p: float) -> bool:
    """True with probability p (the full-batch refresh branch).

    Always consumes exactly one uniform draw, so p = 0 and p = 1 keep the
    stream aligned with intermediate values.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"refresh probability must lie in [0, 1], got {p}")
    return bool(rng.random() < p)


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
