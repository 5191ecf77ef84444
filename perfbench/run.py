"""Time-to-verdict benchmark for ccdlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ccdlab checkout; the package is imported from
``src/``. Each workload runs its experiments as a closed loop in this
process: config text -> ``parse_config`` -> ``harness.run_experiment`` ->
exit code plus trace and report files, the next experiment starting only
after the previous one returns. A run repeats that fixed set of experiments
(a round) a fixed number of times for a given ``--seconds``, and checks
every experiment's exit code and output digest.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See README.md in this directory for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 3
MIN_EXPERIMENTS = 24  # per run, so the tail (10 experiments above it) is p58 or higher
DEFAULT_SEED = 0  # the seed whose output digests expected.json stores

END_TO_END = ("wall_s", "setup_s", "cycles_per_s", "experiment_s_p50",
              "experiment_s_tail", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

# On a shared virtual machine the CPU alternates between speeds up to 1.6x
# apart, for seconds to minutes at a time, so raw seconds measure the
# neighbours as much as ccdlab. Two fixed speed kernels are timed between
# experiments and around each set-up probe: one of small numpy calls and
# interpreter work, one of large vectorised draws and a reduction, the two
# kinds of work ccdlab spends its time on. The mean of their times over their
# reference times is the machine's slowdown at that moment, and end-to-end
# times are reported in reference seconds: measured seconds divided by that
# slowdown.
_MATRIX = np.random.default_rng(0).standard_normal((16, 64))
_RNG = np.random.default_rng(0)
_DRAWS = np.empty((10_000, 64))  # reused, so the kernel adds no allocations


def _interpreter_kernel():
    x = np.ones(64)
    for _ in range(600):
        g = _MATRIX @ x
        x[:16] -= 1e-3 * g
        total = 0
        for j in range(30):
            total += j


def _vector_kernel():
    _RNG.standard_normal(out=_DRAWS)
    _DRAWS[:, :16].mean(axis=0)


# each with its reference time: its 5th percentile over many runs on the
# reference machine
KERNELS = ((_interpreter_kernel, 0.0022), (_vector_kernel, 0.0109))


@contextlib.contextmanager
def one_cpu():
    """Pin this thread, and the processes it starts, to one CPU, so the speed
    kernels run on the CPU the measured work runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def slowdown() -> float:
    ratios = []
    for kernel, reference_s in KERNELS:
        start = time.perf_counter_ns()
        kernel()
        ratios.append((time.perf_counter_ns() - start) * 1e-9 / reference_s)
    return sum(ratios) / len(ratios)


def import_ccdlab():
    if not (SRC / "ccdlab" / "__init__.py").is_file():
        raise BenchError(f"no ccdlab sources under {SRC}; run from the root of a ccdlab checkout")
    sys.path.insert(0, str(SRC))
    import ccdlab

    if Path(ccdlab.__file__).resolve().parent != (SRC / "ccdlab").resolve():
        raise BenchError(f"imported ccdlab from {ccdlab.__file__}, not from {SRC}")
    return ccdlab


# --------------------------------------------------------------------------
# machine facts
# --------------------------------------------------------------------------


def _openblas():
    """(core name, thread count) from the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    if not paths:
        return None, None
    lib = ctypes.CDLL(paths[0])
    found = {}
    for what, restype in (("get_corename", ctypes.c_char_p), ("get_num_threads", ctypes.c_int)):
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{what}{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], restype
                    found[what] = fn()
                    break
            if what in found:
                break
    core = found.get("get_corename")
    return (core.decode() if core else None), found.get("get_num_threads")


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core,
        "blas_threads": threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "bytes_note": "problems.bytes_computed is computed from argument shapes, not measured",
    }


def numerics_signature(facts: dict) -> dict:
    """What decides the float results; stored digests apply only where it matches."""
    return {k: facts[k] for k in ("numpy", "blas", "blas_core")}


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def _optimizer_columns(data: bytes) -> tuple[bytes, bool]:
    """Streaming trace reduced to k, v_k, grad_component_evals; plus whether
    every F and s_k present is finite (s_k is empty in the k = 0 row)."""
    kept, finite = [], True
    rows = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    for row in rows[1:]:
        k, f, s, v, _, work, _ = row.split(",")
        finite = finite and math.isfinite(float(f)) and (s == "" or math.isfinite(float(s)))
        kept.append(f"{k},{v},{work}")
    return "\n".join(kept).encode(), finite


def check_outputs(out_dir: Path, streaming: bool) -> tuple[str, list[str], int, int]:
    """(digest, problems, trace bytes, report bytes) of one experiment's files."""
    h = hashlib.sha256()
    problems = []
    trace_bytes = report_bytes = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        if rel.startswith("report"):
            report_bytes += len(data)
            if rel.endswith(".csv"):
                verdicts = [ln.rsplit(",", 1)[-1] for ln in data.decode().splitlines()[1:]]
                if any(v != "pass" for v in verdicts):
                    problems.append(f"{rel}: failing verdict rows")
        else:
            trace_bytes += len(data)
        if streaming:
            data, finite = _optimizer_columns(data)
            if not finite:
                problems.append(f"{rel}: non-finite F or s_k")
        h.update(rel.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), problems, trace_bytes, report_bytes


@dataclass
class Expected:
    exit_code: int
    digests: list | None = None  # per experiment of a round; None: check repeatability


def expected_for(wl: Workload, seed: int, facts: dict, tiny: bool) -> tuple[Expected, str]:
    stored = json.loads(EXPECTED.read_text(encoding="utf-8"))
    exit_code = stored["exit_codes"][wl.name]
    if tiny:
        return Expected(exit_code), "verdicts and repeatability (tiny sizes)"
    if seed != DEFAULT_SEED:
        return Expected(exit_code), "verdicts and repeatability (not the default seed)"
    if stored["signature"] != numerics_signature(facts):
        return Expected(exit_code), "verdicts and repeatability (digests stored for other numerics)"
    return Expected(exit_code, stored["digests"][wl.digest_of or wl.name]), "stored digests"


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One experiment: its latency, the machine slowdown around it, and its
    optimizer cycles with their summed ``wall_total_ns`` in seconds."""

    seconds: float
    slowdown: float
    cycles: int
    loop_seconds: float

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


@dataclass
class Loop:
    """Runs rounds of one workload's experiments and checks every output."""

    wl: Workload
    configs: list[str]
    jobs: int
    expected: Expected
    attempted: int = 0
    started: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    trace_bytes: int = 0
    report_bytes: int = 0

    def experiment(self, text: str, out_dir: Path):
        from ccdlab import harness
        from ccdlab.config import parse_config

        return harness.run_experiment(parse_config(text), out_dir=out_dir, jobs=self.jobs)

    def round(self, tracer=None, count=None) -> list[Sample]:
        """Run the experiments once, in order, and check them."""
        run = self.experiment if tracer is None else tracer.span("harness.experiment",
                                                                 self.experiment)
        results = []
        speeds = [slowdown()]  # between experiments, so each shares its neighbours'
        for i, text in enumerate(self.configs[:count]):
            if tracer is not None:
                tracer.experiment = self.started
            self.started += 1
            start = time.perf_counter_ns()
            result = run(text, WORK / f"exp{i}")
            results.append((result, (time.perf_counter_ns() - start) * 1e-9))
            speeds.append(slowdown())
        self.trace_bytes = self.report_bytes = 0
        samples = []
        for i, (result, seconds) in enumerate(results):
            self.check(i, result)
            samples.append(Sample(seconds, (speeds[i] + speeds[i + 1]) / 2,
                                  sum(t.cycles for t in result.traces),
                                  sum(t.meta["wall_total_ns"] for t in result.traces) * 1e-9))
        return samples

    def check(self, i: int, result):
        out_dir = WORK / f"exp{i}"
        digest, problems, trace_bytes, report_bytes = check_outputs(out_dir, self.wl.streaming)
        shutil.rmtree(out_dir)
        self.attempted += 1
        self.trace_bytes += trace_bytes
        self.report_bytes += report_bytes
        want = self.digests.setdefault(i, digest)
        if self.expected.digests is not None:
            stored = self.expected.digests
            want = stored[i] if i < len(stored) else "none stored"
        if result.exit_code != self.expected.exit_code:
            problems.append(f"exit code {result.exit_code}, expected {self.expected.exit_code}")
        if digest != want:
            problems.append(f"digest {digest[:16]}, expected {want[:16]}")
        if problems:
            self.failures.append(f"experiment {i}: " + "; ".join(problems))

    def round_digest(self) -> str:
        joined = "".join(self.digests[i] for i in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def setup_times(config: str) -> tuple[float, float, float]:
    """Medians over fresh interpreters that import ccdlab, parse the first
    config and resolve it: (set-up reference seconds, measured set-up
    seconds, measured import seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def probe():
        return subprocess.run([sys.executable, str(HERE / "setup_probe.py"), config], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)

    ref, walls, imports = [], [], []
    with one_cpu():  # the probe is single-threaded
        for _ in range(SETUP_PROBES):
            before = slowdown()
            start = time.perf_counter_ns()
            done = probe()
            seconds = (time.perf_counter_ns() - start) * 1e-9
            if done.returncode != 0:
                raise BenchError(f"setup probe failed: {done.stderr.strip()}")
            ref.append(seconds * 2 / (before + slowdown()))
            walls.append(seconds)
            imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return statistics.median(ref), statistics.median(walls), statistics.median(imports)


def set_time(rounds: list[list[float]]) -> float:
    """Time of one round of the fixed experiment set: per experiment, the
    median over rounds, summed."""
    return sum(statistics.median(column) for column in zip(*rounds))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 experiments beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb(workers: int) -> float:
    """Parent peak plus ``workers`` times the largest pool child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failures: list
    info: list


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool, *, tiny: bool = False,
                 expected: Expected | None = None) -> Outcome:
    import_ccdlab()
    from ccdlab.config import parse_config

    facts = machine_facts()
    if expected is None:
        expected, how = expected_for(wl, seed, facts, tiny)
    else:
        how = "given"
    configs = wl.configs(seed, tiny)
    count = parse_config(configs[0]).seeds.count
    jobs = (os.cpu_count() or 1) if wl.pool else 1
    workers = min(jobs, count) if jobs > 1 and count > 1 else 0
    rounds = 1 if tiny else max(math.ceil(seconds / wl.round_s),
                                math.ceil(MIN_EXPERIMENTS / len(configs)))
    loop = Loop(wl, configs, jobs, expected)
    info = [f"machine: {json.dumps(facts)}",
            f"workload: {wl.name} seed={seed} experiments/round={len(configs)} jobs={jobs} "
            f"closed loop, one client"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # without a pool the experiments run in this thread, pinned like the probes
    with (contextlib.nullcontext() if jobs > 1 else one_cpu()):
        metrics = measure(loop, rounds, traced, workers, info)
    setup_s, setup_measured_s, import_s = setup_times(configs[0])
    if traced:
        metrics["ccdlab.import_s"] = (import_s, "s")
    else:
        metrics["setup_s"] = (setup_s, "s")
        info.append(f"measured: setup_s = {setup_measured_s:.6g} s")
    metrics["failed_share"] = (len(loop.failures) / loop.attempted, "share")
    info.append(f"check: {how}; round digest {loop.round_digest()}; "
                f"{len(loop.failures)} of {loop.attempted} experiments failed")
    info.append("digests: " + json.dumps([loop.digests[i] for i in sorted(loop.digests)]))
    info.extend(f"failure: {f}" for f in loop.failures)
    return Outcome(metrics, loop.attempted, loop.failures, info)


def measure(loop: Loop, rounds: int, traced: bool, workers: int, info: list) -> dict:
    try:
        loop.round(count=1)  # warm-up: caches, lazy imports, first pool start
        if traced:
            return traced_rounds(loop, rounds)
        metrics, measured = end_to_end([loop.round() for _ in range(rounds)], workers)
        info.append(f"measured: {measured}")
        return metrics
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def end_to_end(runs: list[list[Sample]], workers: int) -> tuple[dict, str]:
    """End-to-end metrics in reference seconds, and the same figures as measured."""
    flat = [s for samples in runs for s in samples]
    ref = [s.ref_seconds for s in flat]
    p_tail, pct = tail(ref)
    metrics = {
        "wall_s": (set_time([[s.ref_seconds for s in samples] for samples in runs]), "s"),
        "cycles_per_s": (sum(s.cycles for s in flat)
                         / sum(s.loop_seconds / s.slowdown for s in flat), "1/s"),
        "experiment_s_p50": (statistics.median(ref), "s"),
        "experiment_s_tail": (p_tail, "s"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
    }
    raw = [s.seconds for s in flat]
    slowdowns = sorted(s.slowdown for s in flat)
    measured = (
        f"wall_s = {set_time([[s.seconds for s in samples] for samples in runs]):.6g} s, "
        f"cycles_per_s = {sum(s.cycles for s in flat) / sum(s.loop_seconds for s in flat):.6g}"
        f" 1/s, experiment_s_p50 = {statistics.median(raw):.6g} s, "
        f"experiment_s_tail = {tail(raw)[0]:.6g} s (p{pct:.1f} of {len(flat)} experiments); "
        f"machine slowdown {statistics.median(slowdowns):.3f} "
        f"(from {slowdowns[0]:.3f} to {slowdowns[-1]:.3f})")
    return metrics, measured


def traced_rounds(loop: Loop, rounds: int) -> dict:
    """Untraced rounds, then as many traced ones; per-layer numbers per round."""
    from tracing import Tracer, install, layer_metrics

    half = max(2, math.ceil(rounds / 2))
    untraced = [loop.round() for _ in range(half)]
    tracer = Tracer()
    install(tracer)
    try:
        traced = [loop.round(tracer=tracer) for _ in range(half)]
    finally:
        tracer.uninstall()
    samples = [s for r in traced for s in r]
    metrics = layer_metrics(tracer, half, sum(s.seconds for s in samples) * 1e9)
    before = set_time([[s.ref_seconds for s in r] for r in untraced])
    overhead = set_time([[s.ref_seconds for s in r] for r in traced]) - before
    metrics["harness.trace_bytes"] = (loop.trace_bytes, "bytes")
    metrics["harness.report_bytes"] = (loop.report_bytes, "bytes")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / before, "share")
    metrics["machine.slowdown"] = (statistics.median(s.slowdown for s in samples), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in outcome.info:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                    if args.trace or name in END_TO_END},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
