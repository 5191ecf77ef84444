"""Config-driven experiment runner.

One experiment = one problem instance (seeded by ``seeds.base``) run under
``seeds.count`` independent randomness seeds, with per-seed trace CSVs, an
aggregated bound report, and a CI-friendly exit status:

    0  every requested check passed
    1  a Monte Carlo check still failed after escalating to 4x seeds
    2  a deterministic (hard) bound was violated
    3  configuration or runtime error

Trace CSV: a ``# key = value`` header echoing every resolved parameter
(nothing is substituted silently), then

    k,F,s_k,v_k,u_k,grad_component_evals,wall_ns

with floats at 17 significant digits. ``u_k`` stays empty unless anchor
diagnostics are on; ``wall_ns`` stays empty unless ``output.record_wall``
is set, which keeps identical configs byte-identical on disk.

Checks: a new check needs three things. Its ``config.CHECKS`` row says
which algorithms the check applies to and what its inputs need, so
``config.validate`` rejects a misapplied check when the config is parsed;
its ``checks.check_*`` function makes the report; and its ``_RUN_CHECK``
row below maps the name to that call.
"""

from __future__ import annotations

import concurrent.futures
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from . import algorithms, checks, problems, smoothness
from .blocks import BlockPartition, DiagonalMetric
from .config import (
    CHECKS,
    METHODS,
    SHARED_BATCH_TAG,
    ConfigError,
    ExperimentConfig,
    config_to_dict,
    estimator_settings,
    needs_coupling,
    numeric_type,
    validate,
)
from .regularizers import L1, Box, Regularizer, Zero
from .sampling import RngBundle
from .smoothness import SmoothnessProfile

TRACE_HEADER = "k,F,s_k,v_k,u_k,grad_component_evals,wall_ns"


def build_regularizer(reg: tuple) -> Regularizer:
    kind = reg[0]
    if kind == "zero":
        return Zero()
    if kind == "l1":
        return L1(reg[1])
    if kind == "box":
        return Box(reg[1], reg[2])
    raise ValueError(f"unknown regularizer spec {reg!r}")


def build_problem(cfg: ExperimentConfig, seed: int):
    p = cfg.problem
    part = BlockPartition.even(p.d, p.m)
    if p.family == "quadratic":
        return problems.generate_quadratic(
            seed,
            int(p.n),
            p.d,
            part,
            condition_number=p.condition_number,
            convex=p.convex,
            identical_curvature=p.identical_curvature,
        )
    if p.family == "sigmoid":
        return problems.generate_classification(seed, int(p.n), p.d, part, margin=p.margin)
    if p.family == "streaming":
        if p.streaming_family == "quadratic":
            return problems.generate_streaming_quadratic(
                seed, p.d, part, condition_number=p.condition_number, lin_scale=p.lin_scale
            )
        return problems.generate_streaming_classification(seed, p.d, part, margin=p.margin)
    raise ValueError(f"unknown family {p.family!r}")


def initial_point(cfg: ExperimentConfig, prob) -> np.ndarray:
    """Standard normal start, seeded alongside the instance; projected into
    the box when a box regularizer makes the domain a proper subset."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(cfg.seeds.base, spawn_key=(97,)))
    )
    x0 = rng.standard_normal(prob.dim)
    if cfg.problem.reg[0] == "box":
        x0 = np.clip(x0, cfg.problem.reg[1], cfg.problem.reg[2])
    return x0


@dataclass
class Resolved:
    """Everything one seed run needs, with every derived value made explicit."""

    cfg: ExperimentConfig
    prob: object
    reg: Regularizer
    profile: SmoothnessProfile | None
    eta_bound: float | None
    conditional: tuple[str, ...]
    run: algorithms.RunConfig
    mu: float | None = None  # the PL constant, when a check reads it

    @cached_property
    def reference(self) -> tuple[float, str]:
        """The instance's ``reference_minimum``, solved at most once per
        Resolved (``dataclasses.replace`` makes one without it)."""
        return reference_minimum(self)

    def echo(self) -> dict:
        out = dict(config_to_dict(self.cfg))
        # the deleted lambda.mode and lambda.lip_* keys stay, empty, until
        # the header re-record of ROADMAP item 8
        out["lambda.mode"] = out["lambda.lip_leading"] = out["lambda.lip_trailing"] = None
        run = self.run
        metric_mode = "explicit" if self.cfg.lam.values is not None else self.prob.metric_mode
        out.update(
            {
                "resolved.algorithm": self.cfg.algorithm.name,
                "resolved.cycles": run.cycles,
                "resolved.eta": run.eta,
                "resolved.eta_bound": self.eta_bound,
                "resolved.p": run.p,
                "resolved.b": run.b,
                "resolved.bprime": run.b_prime,
                "resolved.sample_sharing": run.sample_sharing,
                "resolved.lambda_mode": metric_mode,
                "resolved.instance_seed": self.cfg.seeds.base,
            }
        )
        if self.profile is not None:
            out["resolved.lip_trailing"] = self.profile.lip_trailing
            out["resolved.lip_leading"] = self.profile.lip_leading
        return out


def resolve(cfg: ExperimentConfig) -> Resolved:
    errs = validate(cfg)
    if errs:
        raise ConfigError(errs)
    prob = build_problem(cfg, cfg.seeds.base)
    reg = build_regularizer(cfg.problem.reg)
    if cfg.lam.values is not None:
        metric = DiagonalMetric.from_block_scales(prob.partition, cfg.lam.values)
    else:
        metric = prob.metric()
    profile = None
    if needs_coupling(cfg):
        q_list = problems.exact_coupling_matrices(prob, metric)
        profile = SmoothnessProfile.from_coupling_matrices(metric, q_list)
    x0 = initial_point(cfg, prob)
    a = cfg.algorithm
    method = METHODS[a.name]
    conditional: list[str] = []

    p, b, b_prime, sharing = estimator_settings(cfg)
    mu = None
    if any(CHECKS[name].convex_quadratic for name in cfg.diagnostics.checks):
        mu = prob.pl_constant(metric)
    eta_bound = None
    if method.stochastic:
        # the gradient-dominance rate needs its own (smaller) admissible eta;
        # vr-pl-rate is the one convex_quadratic check of a stochastic method
        eta_bound = smoothness.step_size(profile, p, b, b_prime, prob.n, mu)
    if a.eta != "auto":
        eta = float(a.eta) * a.eta_scale
    elif method.stochastic:
        eta = eta_bound * a.eta_scale
    else:
        eta = a.eta_scale  # unit step by default
    if eta_bound is not None and eta > eta_bound * (1 + 1e-12):
        if not a.eta_override:
            raise ConfigError(
                [(0, f"eta = {eta} exceeds the admissible bound {eta_bound}; set eta_override")]
            )
        conditional.append("eta above the admissible bound (override)")

    run = algorithms.RunConfig(
        cycles=a.cycles,
        x0=x0,
        metric=metric,
        eta=eta,
        p=p,
        b=b,
        b_prime=b_prime,
        sample_sharing=sharing,
        record_u=cfg.diagnostics.record_u,
        surrogate_samples=cfg.diagnostics.s_surrogate_samples,
    )
    return Resolved(
        cfg=cfg,
        prob=prob,
        reg=reg,
        profile=profile,
        eta_bound=eta_bound,
        conditional=tuple(conditional),
        run=run,
        mu=mu,
    )


def run_seed(res: Resolved, seed: int):
    """Execute one seed; returns (x_out, trace). The exact methods draw no
    randomness, so they get no ``RngBundle``."""
    method = METHODS[res.cfg.algorithm.name]
    # looked up at call time, so that a rebound entry point (a profiler's wrapper) is called
    entry = getattr(algorithms, method.entry)
    if not method.stochastic:
        return entry(res.prob, res.reg, res.run)
    return entry(res.prob, res.reg, res.run, RngBundle.from_seed(seed))


# --------------------------------------------------------------------------
# trace and report files
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def float_text(*columns) -> list[list[str]]:
    """Equal-length float columns as text: each value as ``_fmt`` writes a
    float, at 17 significant digits, and None as an empty field. Each
    distinct bit pattern among them is formatted once (0.0 and -0.0 differ
    in bits and in text)."""
    floats = np.array(columns, dtype=float)  # None reads as NaN
    bits, where = np.unique(floats.view(np.uint64), return_inverse=True)
    distinct = np.array([format(v, ".17g") for v in bits.view(float).tolist()], dtype=object)
    texts = distinct[where.reshape(floats.shape)].tolist()
    return [["" if v is None else t for v, t in zip(col, text)] if None in col else text
            for col, text in zip(columns, texts)]


class TraceCsvWriter:
    """Writes one run's trace file in one pass, not streamed.

    The header (echoing every resolved parameter) is written before the run,
    so a run that fails before its first row leaves the header alone; the
    rows follow once the run has returned its trace, or raised with it.
    """

    def __init__(self, path: Path, echo: dict, record_wall: bool):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.record_wall = record_wall
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write("# ccdlab trace\n")
        for key in sorted(echo):
            self._fh.write(f"# {key} = {_fmt(echo[key])}\n")
        self._fh.write(TRACE_HEADER + "\n")

    def sink(self, trace: algorithms.RunTrace):
        """Write every row of the trace, its float columns formatted together."""
        floats = float_text(trace.obj, trace.stat_sq, trace.step_sq, trace.est_err_sq)
        walls = map(str, trace.wall_ns) if self.record_wall else repeat("")
        rows = zip(map(str, trace.k), *floats, map(str, trace.work), walls)
        self._fh.write("\n".join(map(",".join, rows)) + "\n")

    def close(self):
        self._fh.close()


def write_report(reports: list[checks.BoundReport], path_base: Path) -> tuple[Path, Path]:
    path_base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = path_base.with_suffix(".csv")
    txt_path = path_base.with_suffix(".txt")
    lines = ["bound_name,k,lhs,rhs,slack,verdict"]
    for rep in reports:
        ks = ["" if k is None else str(k) for k in rep.k]
        verdicts = ["pass" if ok else "fail" for ok in rep.verdicts]
        lhs, rhs, slack = float_text(rep.lhs, rep.rhs, rep.slack)
        lines.extend(map(",".join, zip(repeat(rep.name), ks, lhs, rhs, slack, verdicts)))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    txt_path.write_text("".join(rep.summary() + "\n" for rep in reports), encoding="utf-8")
    return csv_path, txt_path


# --------------------------------------------------------------------------
# check orchestration
# --------------------------------------------------------------------------


def reference_minimum(res: Resolved) -> tuple[float, str]:
    """(F*, provenance) for the resolved instance and regularizer: the
    family's closed form when it has one; else, when the family says it
    reaches F*, a high-precision cyclic solve (machine-level stationarity),
    which upper-bounds F* by a negligible amount; else NaN, "unavailable".
    F* belongs to the instance, so the solve takes the family's own
    ``metric()``, not the run's, which may diverge."""
    prob, reg = res.prob, res.reg
    closed = prob.closed_form_minimum(reg)
    if closed is not None:
        return closed, "closed_form"
    if prob.solve_reaches_minimum:
        metric = prob.metric()
        pcfg = algorithms.RunConfig(cycles=30_000, x0=res.run.x0, metric=metric, stop_step_sq=1e-28)
        _, trace = algorithms.pccd_run(prob, reg, pcfg)
        return float(min(trace.obj)), "high_precision_run"
    return math.nan, "unavailable"


class _CheckInputs:
    """What the checks read, each computed at most once per ``run_checks``
    call and only when a requested check reads it."""

    def __init__(self, res: Resolved, traces: list[algorithms.RunTrace]):
        self.res, self.traces, self.prob = res, traces, res.prob
        run = res.run
        self.eta, self.p, self.b, self.b_prime = run.eta, run.p, run.b, run.b_prime
        self.lip = res.profile.lip_trailing if res.profile is not None else None
        self.mu = res.mu

    @property
    def no_reference(self) -> bool:
        return self.res.reference[1] == "unavailable"

    @cached_property
    def delta0(self) -> float:
        return self.traces[0].obj[0] - self.res.reference[0]

    @cached_property
    def delta0_or_best_seen(self) -> float:
        if self.no_reference:
            return self.traces[0].obj[0] - min(min(t.obj) for t in self.traces)
        return self.delta0

    @property
    def provenance_tag(self) -> tuple[str, ...]:
        provenance = self.res.reference[1]
        if provenance in ("closed_form", "unavailable"):
            return ()
        return (f"reference minimum: {provenance}",)

    @cached_property
    def sigma(self) -> tuple[float, tuple[str, ...]]:
        """(sigma^2, its conditional tags): supplied, or the instance's
        ``sigma_sq``, tagged when it holds only at the start point."""
        res = self.res
        if res.cfg.problem.sigma_sq is not None:
            return res.cfg.problem.sigma_sq, ("supplied sigma_sq",)
        value, everywhere = self.prob.sigma_sq(res.run.metric, res.run.x0)
        return value, () if everywhere else ("sigma_sq estimated at the start point",)

    def gaps(self, trace: algorithms.RunTrace) -> np.ndarray:
        return np.array(trace.obj) - self.res.reference[0]

    @property
    def final_gaps(self) -> np.ndarray:
        return np.array([t.obj[-1] for t in self.traces]) - self.res.reference[0]


# check name -> its reports, given the inputs and the conditional tags
_RUN_CHECK = {
    "cyclic-descent": lambda i, c: [checks.check_cyclic_descent(t, c) for t in i.traces],
    "step-telescope": lambda i, c: [
        checks.check_step_telescope(t, i.delta0_or_best_seen, c) for t in i.traces
    ],
    "grad-vs-step": lambda i, c: [checks.check_grad_vs_step(t, i.lip, c) for t in i.traces],
    "stationarity-rate": lambda i, c: [
        checks.check_min_stationarity_rate(t, i.lip, i.delta0_or_best_seen, c + i.provenance_tag)
        for t in i.traces
    ],
    "pl-envelope": lambda i, c: [
        checks.check_pl_envelope(i.gaps(t), i.lip, i.mu, c) for t in i.traces
    ],
    "vr-descent": lambda i, c: [checks.check_vr_descent(t, i.eta, c) for t in i.traces],
    "vr-grad-vs-step": lambda i, c: [checks.check_vr_grad_vs_step(t, i.lip, c) for t in i.traces],
    "vr-rate": lambda i, c: [checks.check_vr_rate(
        i.traces, i.eta, i.p, i.b, i.b_prime, i.prob.n, i.sigma[0], i.delta0_or_best_seen, c
    )],
    "vr-potential": lambda i, c: [checks.check_vr_potential(
        i.traces, i.eta, i.p, i.b, i.b_prime, i.prob.n, i.lip, i.sigma[0], c
    )],
    "vr-pl-rate": lambda i, c: [checks.check_vr_pl_rate(
        i.final_gaps, i.eta, i.res.run.cycles, i.p, i.b, i.b_prime, i.prob.n, i.mu, i.sigma[0], i.delta0, c
    )],
    "work-accounting": lambda i, c: [
        checks.check_work_accounting(i.traces, i.p, i.b, i.b_prime, i.prob.dim, c)
    ],
}


def run_checks(res: Resolved, traces: list[algorithms.RunTrace]) -> list[checks.BoundReport]:
    """The reports of every requested check, in the order requested.

    ``config.validate`` has already rejected each check the run cannot
    feed, so this only computes inputs; the conditional tags are the run's,
    then the ones ``config.CHECKS`` implies for the check. F* is
    ``res.reference``, solved when a check first reads it.
    """
    inputs = _CheckInputs(res, traces)
    shared = res.run.sample_sharing == algorithms.SHARED_PER_CYCLE
    reports: list[checks.BoundReport] = []
    for name in res.cfg.diagnostics.checks:
        spec = CHECKS[name]
        cond = res.conditional
        if spec.fresh_batches and shared:
            cond += (SHARED_BATCH_TAG,)
        if spec.sigma_sq:
            cond += inputs.sigma[1]
        advisory = spec.best_seen_reference and inputs.no_reference
        if advisory:
            cond += ("best-observed objective as reference",)
        for rep in _RUN_CHECK[name](inputs, cond):
            rep.advisory = advisory
            reports.append(rep)
    return reports


# --------------------------------------------------------------------------
# experiment entry points
# --------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    exit_code: int
    trace_paths: list[Path]
    report_csv: Path | None
    report_txt: Path | None
    reports: list[checks.BoundReport]
    traces: list[algorithms.RunTrace]


def _seed_list(cfg: ExperimentConfig) -> list[int]:
    # run seeds are offset from the instance seed so instance and runs stay
    # independently reproducible
    return [cfg.seeds.base + 1000 + i for i in range(cfg.seeds.count)]


def _execute_seed(res: Resolved, seed: int, trace_path):
    """Run one seed and, given a path, write its trace file: the header
    first, then, after the run, its rows, or on divergence the rows before
    the failing one; any other error leaves the header alone."""
    writer = None
    if trace_path is not None:
        echo = dict(res.echo())
        echo["resolved.run_seed"] = seed
        writer = TraceCsvWriter(Path(trace_path), echo, res.cfg.output.record_wall)
    trace = None
    try:
        _, trace = run_seed(res, seed)
    except algorithms.NonFiniteObjectiveError as exc:
        trace = exc.trace
        raise
    finally:
        if writer is not None:
            if trace is not None:
                writer.sink(trace)
            writer.close()
    trace.seed = seed
    return trace


# the experiment's Resolved in a pool worker, set once by _init_worker
_worker_res: Resolved | None = None


def _init_worker(res: Resolved):
    global _worker_res
    _worker_res = res


def _run_one(task):
    """Pool entry: run one ``(seed, trace_path)`` on the worker's Resolved."""
    seed, trace_path = task
    return _execute_seed(_worker_res, seed, trace_path)


def run_traces(
    cfg: ExperimentConfig,
    jobs: int = 1,
    trace_dir: Path | None = None,
    res: Resolved | None = None,
    seeds: list[int] | None = None,
) -> tuple[Resolved, list[algorithms.RunTrace], list[Path]]:
    """Run every seed, optionally writing each trace to its CSV file.

    ``res`` is ``resolve(cfg)`` when the caller already has it, and
    ``seeds`` are the run seeds, ``_seed_list(cfg)`` by default. The
    experiment resolves once: pool workers get the parent's Resolved through
    the pool initializer (inherited under fork, pickled once per worker
    otherwise), never one per seed.
    """
    if res is None:
        res = resolve(cfg)
    if seeds is None:
        seeds = _seed_list(cfg)
    if trace_dir is None:
        paths = [None] * len(seeds)
    else:
        paths = [Path(trace_dir) / f"trace_seed{s}.csv" for s in seeds]
    workers = min(jobs, len(seeds))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(res,)
        ) as pool:
            traces = list(pool.map(_run_one, zip(seeds, paths)))
    else:
        # as in the pool, every seed runs; the first error in seed order is raised
        traces, errors = [], []
        for s, p in zip(seeds, paths):
            try:
                traces.append(_execute_seed(res, s, p))
            except RUN_ERRORS as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
    return res, traces, [p for p in paths if p is not None]


# what a run of seeds raises on bad input or divergence: exit status 3, not a traceback
RUN_ERRORS = (ConfigError, ValueError, algorithms.NonFiniteObjectiveError)


def failed(reports: list[checks.BoundReport], kind: str) -> bool:
    """Whether a gating report of this kind failed; an advisory report never gates."""
    return any(not r.passed and not r.advisory and r.kind == kind for r in reports)


def exit_status(hard_failed: bool, monte_carlo_failed: bool) -> int:
    """The exit status of a verdict: 2 when a hard check failed, else 1 when
    a Monte Carlo one did, else 0."""
    return 2 if hard_failed else 1 if monte_carlo_failed else 0


def run_experiment(cfg: ExperimentConfig, out_dir=".", jobs: int = 1) -> ExperimentResult:
    out_dir = Path(out_dir)
    trace_dir = out_dir / cfg.output.trace_path
    try:
        res, traces, trace_paths = run_traces(cfg, jobs=jobs, trace_dir=trace_dir)
    except RUN_ERRORS as exc:
        print(f"ccdlab: error: {exc}", file=sys.stderr)
        return ExperimentResult(3, [], None, None, [], [])

    try:
        reports = run_checks(res, traces)
    except (ConfigError, ValueError) as exc:
        print(f"ccdlab: error: {exc}", file=sys.stderr)
        return ExperimentResult(3, trace_paths, None, None, [], traces)

    if failed(reports, checks.MONTE_CARLO):
        # escalate: rerun the Monte Carlo evidence at 4x seeds before failing
        try:
            # only the seed count changes: the instance, and so F* (res.reference,
            # one solve for both stages), is the first stage's Resolved
            cfg4 = replace(cfg, seeds=replace(cfg.seeds, count=cfg.seeds.count * 4))
            _, traces_esc, _ = run_traces(cfg4, jobs=jobs, res=res)
            reports = run_checks(res, traces_esc)
        except RUN_ERRORS as exc:
            print(f"ccdlab: error during escalation: {exc}", file=sys.stderr)
            return ExperimentResult(3, trace_paths, None, None, reports, traces)

    report_csv = report_txt = None
    if reports:
        report_csv, report_txt = write_report(reports, out_dir / cfg.output.report_path)
    code = exit_status(failed(reports, checks.HARD), failed(reports, checks.MONTE_CARLO))
    return ExperimentResult(code, trace_paths, report_csv, report_txt, reports, traces)


def sweep(cfg: ExperimentConfig, axis: str, values, out_dir=".", jobs: int = 1) -> Path:
    """Run the experiment once per axis value; one summary row per seed.

    Schedule-coupled fields re-derive dependents per value (overriding
    bprime under the finite-sum schedule recomputes p). A non-finite value,
    or a non-integral one on an integer axis, is a ConfigError before
    anything runs; a value whose run raises one of ``RUN_ERRORS`` ends the
    sweep with a ValueError that names it.
    """
    cast = numeric_type(axis)
    if cast is None:
        raise ConfigError([(0, f"sweep axis must be a numeric config field, got {axis!r}")])
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ConfigError([(0, f"sweep axis {axis} takes finite numbers, got {_fmt(bad[0])}")])
    if cast is int:
        bad = [v for v in values if not float(v).is_integer()]
        if bad:
            raise ConfigError([(0, f"sweep axis {axis} takes integers, got {_fmt(bad[0])}")])
    out_dir = Path(out_dir)
    rows = []
    for value in values:
        val = cast(value)
        try:
            res, traces, _ = run_traces(cfg.with_override(axis, val), jobs=jobs)
        except RUN_ERRORS as exc:
            raise ValueError(f"{axis} = {_fmt(val)}: {exc}") from exc
        rows.extend(
            f"{axis},{_fmt(val)},{t.seed},{_fmt(t.obj[-1])},{_fmt(t.stat_sq[-1])},{t.work[-1]}"
            for t in traces
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    lines = ["# ccdlab sweep", f"# axis = {axis}", "axis,value,seed,final_F,final_s,total_work"]
    path.write_text("\n".join(lines + rows) + "\n", encoding="utf-8")
    return path
