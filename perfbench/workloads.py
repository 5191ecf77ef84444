"""The benchmark's workloads: which experiment configs each one runs.

Every instance seed is derived from the workload seed, so the same seed gives
the same experiments. ``tiny`` shrinks run lengths and counts for the
self-test; the instance families stay the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# the vr-rate acceptance suite's family: b = n = 256, b' = 16, p = 16/272
VR_FINITE_SUM = """\
problem.family = quadratic
problem.n = 256
problem.d = 64
problem.m = 4
problem.condition_number = 10
algorithm.name = vrccd
algorithm.schedule = finite_sum
algorithm.K = {cycles}
seeds.base = {seed}
seeds.count = {count}
diagnostics.checks = vr-rate
"""

# the stationarity-rate acceptance suite's family
PCCD_L1 = """\
problem.family = quadratic
problem.n = 4
problem.d = 16
problem.m = 4
problem.condition_number = 3
problem.reg = l1(0.1)
algorithm.name = pccd
algorithm.K = {cycles}
seeds.base = {seed}
seeds.count = 1
diagnostics.checks = cyclic-descent, step-telescope, grad-vs-step, stationarity-rate
"""

# no checks: vr-potential and work-accounting are left out on purpose, see README
STREAMING = """\
problem.family = streaming
problem.n = inf
problem.d = 64
problem.m = 4
problem.condition_number = 10
algorithm.name = vrccd
algorithm.K = {cycles}
algorithm.p = 0.1
algorithm.b = 256
algorithm.bprime = 16
seeds.base = {seed}
seeds.count = 1
"""


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _vr_finite_sum(seed: int, tiny: bool) -> list[str]:
    instances, count, cycles = (1, 2, 10) if tiny else (4, 4, 100)
    return [VR_FINITE_SUM.format(cycles=cycles, seed=s, count=count)
            for s in instance_seeds(seed, instances)]


def _pccd_l1_many(seed: int, tiny: bool) -> list[str]:
    instances, cycles = (3, 50) if tiny else (24, 500)
    return [PCCD_L1.format(cycles=cycles, seed=s) for s in instance_seeds(seed, instances)]


def _streaming(seed: int, tiny: bool) -> list[str]:
    instances, cycles = (1, 1) if tiny else (3, 2)
    return [STREAMING.format(cycles=cycles, seed=s) for s in instance_seeds(seed, instances)]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int, bool], list[str]]
    # one round runs every config once; a run makes a number of rounds fixed by
    # --seconds and this nominal round time, so two commits do equal work
    round_s: float
    pool: bool = False  # jobs = os.cpu_count() instead of 1
    streaming: bool = False  # digest covers the optimizer columns only
    digest_of: str | None = None  # shares another workload's stored digests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vr-finite-sum", _vr_finite_sum, round_s=1.9),
        Workload("pccd-l1-many", _pccd_l1_many, round_s=3.75),
        Workload("streaming-surrogate", _streaming, round_s=2.0, streaming=True),
        Workload("vr-pool", _vr_finite_sum, round_s=3.5, pool=True, digest_of="vr-finite-sum"),
    )
}
