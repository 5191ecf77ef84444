"""Flat key-value experiment configuration.

Format: UTF-8 text, one ``section.key = value`` per line, ``#`` starts a
comment (full-line or trailing). Parsing validates every line and reports
*all* problems at once, each with its line number.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType


@dataclass(frozen=True)
class Method:
    """What one algorithm name means: its ``algorithms`` entry point, update
    order and gradient estimator, and the estimator settings the name fixes
    (None or False: the config's)."""

    entry: str  # looked up on ``algorithms`` at call time
    cyclic: bool  # block by block, else the whole vector at once
    stochastic: bool  # the recursive estimator (seeded), else exact gradients
    p: float | None = None
    bprime_is_b: bool = False
    sample_sharing: str | None = None

    @property
    def backtracks(self) -> bool:  # the engine backtracks in the cyclic exact order only
        return self.cyclic and not self.stochastic


METHODS = MappingProxyType({
    "pccd": Method("pccd_run", cyclic=True, stochastic=False),
    "vrccd": Method("vrccd_run", cyclic=True, stochastic=True),
    "vroccd": Method("vrccd_run", cyclic=True, stochastic=True, sample_sharing="shared_per_cycle"),
    "sccd": Method("vrccd_run", cyclic=True, stochastic=True, p=1.0),
    "prox_gd": Method("prox_gd_run", cyclic=False, stochastic=False),
    "page": Method("page_run", cyclic=False, stochastic=True),
    "sgd": Method("page_run", cyclic=False, stochastic=True, p=1.0, bprime_is_b=True),
})
ALGORITHMS = tuple(METHODS)
CYCLIC_EXACT = tuple(name for name, m in METHODS.items() if not m.stochastic)
VARIANCE_REDUCED = tuple(name for name, m in METHODS.items() if m.cyclic and m.stochastic)
STOCHASTIC = tuple(name for name, m in METHODS.items() if m.stochastic)

# the recursive estimator's keys, which the exact methods never read
_ESTIMATOR_KEYS = ("algorithm.p", "algorithm.b", "algorithm.bprime", "algorithm.sample_sharing",
                   "algorithm.schedule", "diagnostics.record_u")

SHARED_BATCH_TAG = "shared-batch sampling (outside the analyzed variant)"


@dataclass(frozen=True)
class CheckSpec:
    """The algorithms one bound check applies to and what its inputs need.

    ``validate`` rejects every requested check whose needs the config cannot
    meet, so ``harness.run_checks`` only computes inputs. The last two
    fields tag the report: ``best_seen_reference`` checks fall back to the
    best objective seen when no minimum F(x*) is certified, and are then
    advisory (they read F, so a streaming run must record it through a
    surrogate); ``fresh_batches`` bounds are proved for fresh per-block
    batches, so shared-batch runs carry ``SHARED_BATCH_TAG``.
    """

    algorithms: tuple[str, ...]
    record_u: bool = False  # anchor-error diagnostics in the trace
    coupling: bool = False  # coupling constants, computed or supplied
    sigma_sq: bool = False  # a known gradient-noise constant sigma^2
    convex_quadratic: bool = False  # known mu and gap: convex quadratic, reg = zero
    best_seen_reference: bool = False
    fresh_batches: bool = False


CHECKS = {
    "cyclic-descent": CheckSpec(CYCLIC_EXACT),
    "step-telescope": CheckSpec(CYCLIC_EXACT, best_seen_reference=True),
    "grad-vs-step": CheckSpec(("pccd",), coupling=True),
    "stationarity-rate": CheckSpec(("pccd",), coupling=True, best_seen_reference=True),
    "pl-envelope": CheckSpec(("pccd",), coupling=True, convex_quadratic=True),
    "vr-descent": CheckSpec(VARIANCE_REDUCED, record_u=True),
    "vr-grad-vs-step": CheckSpec(VARIANCE_REDUCED, record_u=True, coupling=True),
    "vr-rate": CheckSpec(
        VARIANCE_REDUCED, coupling=True, sigma_sq=True, best_seen_reference=True,
        fresh_batches=True,
    ),
    "vr-potential": CheckSpec(
        VARIANCE_REDUCED, record_u=True, coupling=True, sigma_sq=True, fresh_batches=True
    ),
    "vr-pl-rate": CheckSpec(
        VARIANCE_REDUCED, coupling=True, sigma_sq=True, convex_quadratic=True, fresh_batches=True
    ),
    "work-accounting": CheckSpec(STOCHASTIC),
}
CHECK_NAMES = tuple(CHECKS)

FAMILIES = ("quadratic", "sigmoid", "streaming")
LAMBDA_MODES = ("exact_quadratic", "backtracking", "explicit", "sigmoid_bound")
SCHEDULES = ("finite_sum",)


class ConfigError(ValueError):
    """All config problems at once; ``errors`` is a list of (line, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {ln}: {msg}" for ln, msg in self.errors))


@dataclass
class ProblemSpec:
    family: str = "quadratic"
    n: float = 32  # int, or math.inf for streaming
    d: int = 16
    m: int = 4
    condition_number: float = 10.0
    convex: bool = True
    identical_curvature: bool = False
    margin: float = 0.5
    reg: tuple = ("zero",)
    streaming_family: str = "quadratic"
    lin_scale: float = 1.0
    sigma_sq: float | None = None


@dataclass
class AlgorithmSpec:
    name: str = "pccd"
    cycles: int = 50
    eta: float | str = "auto"
    eta_scale: float = 1.0
    p: float | None = None
    b: int | None = None
    bprime: int | None = None
    sample_sharing: str | None = None
    schedule: str | None = None
    eta_override: bool = False


@dataclass
class LambdaSpec:
    mode: str | None = None  # default chosen per family/algorithm
    values: tuple | None = None  # per-block scales for mode "explicit"
    lip_trailing: float | None = None
    lip_leading: float | None = None


@dataclass
class SeedSpec:
    base: int = 0
    count: int = 1


@dataclass
class DiagSpec:
    record_u: bool = False
    checks: tuple = ()
    s_surrogate_samples: int = 100_000


@dataclass
class OutputSpec:
    trace_path: str = "traces"
    report_path: str = "report"
    record_wall: bool = False


@dataclass
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    lam: LambdaSpec = field(default_factory=LambdaSpec)
    seeds: SeedSpec = field(default_factory=SeedSpec)
    diagnostics: DiagSpec = field(default_factory=DiagSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def with_override(self, path: str, value) -> "ExperimentConfig":
        """Copy with one dotted field replaced (used by sweeps and CLI flags)."""
        section, key = _split_path(path)
        attr = _SECTION_ATTRS[section]
        sub = getattr(self, attr)
        if not hasattr(sub, key):
            raise KeyError(f"unknown config field {path!r}")
        return replace(self, **{attr: replace(sub, **{key: value})})


_SECTION_ATTRS = {
    "problem": "problem",
    "algorithm": "algorithm",
    "lambda": "lam",
    "seeds": "seeds",
    "diagnostics": "diagnostics",
    "output": "output",
}

_KEY_CANON = {"K": "cycles"}


def _split_path(path: str) -> tuple[str, str]:
    if "." not in path:
        raise KeyError(f"config field {path!r} needs a section prefix")
    section, key = path.split(".", 1)
    if section not in _SECTION_ATTRS:
        raise KeyError(f"unknown config section {section!r}")
    return section, _KEY_CANON.get(key, key)


def _parse_bool(tok: str) -> bool:
    low = tok.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {tok!r}")


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected an integer, got {tok!r}") from None


def _parse_count(tok: str) -> float:
    if tok.lower() in ("inf", "infinite"):
        return math.inf
    return _parse_int(tok)


def _parse_float(tok: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise ValueError(f"expected a number, got {tok!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {tok!r}")
    return val


def _parse_eta(tok: str):
    if tok.lower() == "auto":
        return "auto"
    val = _parse_float(tok)
    if val <= 0:
        raise ValueError(f"eta must be positive, got {tok!r}")
    return val


def _parse_reg(tok: str) -> tuple:
    low = tok.lower().replace(" ", "")
    if low == "zero":
        return ("zero",)
    if low.startswith("l1(") and low.endswith(")"):
        return ("l1", _parse_float(low[3:-1]))
    if low.startswith("box(") and low.endswith(")"):
        parts = low[4:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"box regularizer needs two bounds, got {tok!r}")
        return ("box", _parse_float(parts[0]), _parse_float(parts[1]))
    raise ValueError(f"unknown regularizer {tok!r}; expected zero, l1(w), or box(lo,hi)")


def _parse_checks(tok: str) -> tuple:
    names = tuple(t.strip() for t in tok.split(",") if t.strip())
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return names


def _parse_values(tok: str) -> tuple:
    return tuple(_parse_float(t.strip()) for t in tok.split(",") if t.strip())


def _choice(options):
    def parse(tok: str) -> str:
        if tok not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {tok!r}")
        return tok

    return parse


_PARSERS = {
    "problem.family": _choice(FAMILIES),
    "problem.n": _parse_count,
    "problem.d": _parse_int,
    "problem.m": _parse_int,
    "problem.condition_number": _parse_float,
    "problem.convex": _parse_bool,
    "problem.identical_curvature": _parse_bool,
    "problem.margin": _parse_float,
    "problem.reg": _parse_reg,
    "problem.streaming_family": _choice(("quadratic", "sigmoid")),
    "problem.lin_scale": _parse_float,
    "problem.sigma_sq": _parse_float,
    "algorithm.name": _choice(ALGORITHMS),
    "algorithm.K": _parse_int,
    "algorithm.eta": _parse_eta,
    "algorithm.eta_scale": _parse_float,
    "algorithm.p": _parse_float,
    "algorithm.b": _parse_int,
    "algorithm.bprime": _parse_int,
    "algorithm.sample_sharing": _choice(("fresh_per_block", "shared_per_cycle")),
    "algorithm.schedule": _choice(SCHEDULES),
    "algorithm.eta_override": _parse_bool,
    "lambda.mode": _choice(LAMBDA_MODES),
    "lambda.values": _parse_values,
    "lambda.lip_trailing": _parse_float,
    "lambda.lip_leading": _parse_float,
    "seeds.base": _parse_int,
    "seeds.count": _parse_int,
    "diagnostics.record_u": _parse_bool,
    "diagnostics.checks": _parse_checks,
    "diagnostics.s_surrogate_samples": _parse_int,
    "output.trace_path": str,
    "output.report_path": str,
    "output.record_wall": _parse_bool,
}


def numeric_type(key: str):
    """``int`` or ``float`` for a numeric config key (a sweep axis), else None."""
    parser = _PARSERS.get(key)
    if parser in (_parse_int, _parse_count):
        return int
    if parser in (_parse_float, _parse_eta):
        return float
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing every problem."""
    cfg = ExperimentConfig()
    errors: list[tuple[int, str]] = []
    key_lines: dict[str, int] = {}
    seen: set[str] = set()

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((ln, f"expected 'section.key = value', got {raw.strip()!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            errors.append((ln, f"unknown key {key!r}"))
            continue
        if key in seen:
            errors.append((ln, f"duplicate key {key!r}"))
            continue
        seen.add(key)
        key_lines[key] = ln
        try:
            parsed = _PARSERS[key](value)
        except ValueError as exc:
            errors.append((ln, f"{key}: {exc}"))
            continue
        section, attr = _split_path(key)
        setattr(getattr(cfg, _SECTION_ATTRS[section]), attr, parsed)

    errors.extend(validate(cfg, key_lines))
    if errors:
        raise ConfigError(sorted(errors))
    return cfg


def _line(key_lines, key) -> int:
    return key_lines.get(key, 0)


def _value(cfg: ExperimentConfig, key: str):
    section, attr = _split_path(key)
    return getattr(getattr(cfg, _SECTION_ATTRS[section]), attr)


def validate(cfg: ExperimentConfig, key_lines=None) -> list[tuple[int, str]]:
    """Cross-field constraints; returns (line, message) pairs (line 0 when
    the offending value is a default)."""
    key_lines = key_lines or {}
    errs: list[tuple[int, str]] = []
    p_spec, a = cfg.problem, cfg.algorithm

    streaming = p_spec.family == "streaming"
    if not streaming and p_spec.n == math.inf:
        errs.append((_line(key_lines, "problem.n"), "problem.n = inf requires family streaming"))
    if not streaming and (p_spec.n != math.inf) and int(p_spec.n) < 1:
        errs.append((_line(key_lines, "problem.n"), "problem.n must be >= 1"))
    if p_spec.d < 1:
        errs.append((_line(key_lines, "problem.d"), "problem.d must be >= 1"))
    if not 1 <= p_spec.m <= p_spec.d:
        errs.append((_line(key_lines, "problem.m"), "need 1 <= m <= d"))
    if p_spec.condition_number < 1:
        errs.append(
            (_line(key_lines, "problem.condition_number"), "condition_number must be >= 1")
        )
    if p_spec.reg[0] == "box" and not p_spec.reg[1] < p_spec.reg[2]:
        errs.append((_line(key_lines, "problem.reg"), "box bounds need lo < hi"))
    if p_spec.reg[0] == "l1" and p_spec.reg[1] < 0:
        errs.append((_line(key_lines, "problem.reg"), "l1 weight must be nonnegative"))
    for key in ("problem.sigma_sq", "lambda.lip_trailing", "lambda.lip_leading"):
        value = _value(cfg, key)
        if value is not None and value < 0:
            errs.append((_line(key_lines, key), f"{key} must be nonnegative"))

    if a.cycles < 1:
        errs.append((_line(key_lines, "algorithm.K"), "algorithm.K must be >= 1"))
    if a.eta_scale <= 0:
        errs.append((_line(key_lines, "algorithm.eta_scale"), "eta_scale must be positive"))

    method = METHODS[a.name]
    streaming_sigmoid = streaming and p_spec.streaming_family == "sigmoid"
    # estimator keys the method never reads, each with the reason
    unread = [] if method.stochastic else [(k, "takes exact gradients") for k in _ESTIMATOR_KEYS]
    if method.stochastic and not method.cyclic:
        unread.append(("algorithm.sample_sharing", "estimates the whole gradient at once"))
    if method.bprime_is_b:
        unread.append(("algorithm.bprime", "fixes bprime = b"))
    for key, why in unread:
        if _value(cfg, key) is not None and _value(cfg, key) is not False:
            errs.append((_line(key_lines, key), f"{a.name} never reads {key}: it {why}"))
    if method.p is not None and a.p is not None and a.p != method.p:
        errs.append((_line(key_lines, "algorithm.p"), f"{a.name} forces p = {method.p:g}"))
    if method.sample_sharing and a.sample_sharing not in (None, method.sample_sharing):
        where = _line(key_lines, "algorithm.sample_sharing")
        errs.append((where, f"{a.name} means {method.sample_sharing}"))
    if a.p is not None and not 0.0 < a.p <= 1.0:
        errs.append(
            (_line(key_lines, "algorithm.p"), f"p must lie in (0, 1], got {a.p}")
        )
    if method.stochastic and method.p is None and a.schedule is None and a.p is None:
        errs.append(
            (_line(key_lines, "algorithm.name"), f"{a.name} needs algorithm.p or a schedule")
        )
    if method.stochastic and a.schedule is None and a.b is None:
        errs.append((_line(key_lines, "algorithm.name"), f"{a.name} needs algorithm.b or a schedule"))
    if a.b is not None and a.b < 1:
        errs.append((_line(key_lines, "algorithm.b"), "b must be >= 1"))
    if a.bprime is not None and a.bprime < 1:
        errs.append((_line(key_lines, "algorithm.bprime"), "bprime must be >= 1"))
    if a.b is not None and a.bprime is not None and a.bprime > a.b:
        errs.append((_line(key_lines, "algorithm.bprime"), "need bprime <= b"))
    if not streaming and a.b is not None and p_spec.n != math.inf and a.b > int(p_spec.n):
        errs.append((_line(key_lines, "algorithm.b"), "need b <= n"))
    if streaming and not method.stochastic:
        errs.append(
            (_line(key_lines, "algorithm.name"), f"{a.name} needs exact gradients (finite n)")
        )
    if a.schedule is not None and streaming:
        errs.append(
            (_line(key_lines, "algorithm.schedule"), "finite_sum schedule needs finite n")
        )

    mode = cfg.lam.mode
    if mode == "explicit" and cfg.lam.values is None:
        errs.append((_line(key_lines, "lambda.mode"), "explicit mode needs lambda.values"))
    if cfg.lam.values is not None:
        if len(cfg.lam.values) != p_spec.m:
            errs.append((_line(key_lines, "lambda.values"), "need one scale per block"))
        elif any(v <= 0 for v in cfg.lam.values):
            errs.append((_line(key_lines, "lambda.values"), "scales must be positive"))
    if mode == "backtracking" and not method.backtracks:
        errs.append(
            (
                _line(key_lines, "lambda.mode"),
                "backtracking calibration is only wired into pccd; give an exact or "
                "explicit metric for stochastic runs",
            )
        )
    if mode == "exact_quadratic" and p_spec.family == "sigmoid":
        errs.append(
            (_line(key_lines, "lambda.mode"), "exact_quadratic needs a quadratic family")
        )
    if lambda_mode(cfg) == "exact_quadratic" and streaming_sigmoid:
        # sigmoid_bound and backtracking are rejected above, so explicit is left
        where = "lambda.mode" if mode is not None else "problem.streaming_family"
        errs.append(
            (
                _line(key_lines, where),
                "a streaming sigmoid problem has no exact_quadratic metric; "
                "set lambda.mode = explicit",
            )
        )
    if mode == "sigmoid_bound" and p_spec.family != "sigmoid":
        errs.append((_line(key_lines, "lambda.mode"), "sigmoid_bound needs the sigmoid family"))
    if a.eta == "auto" and method.stochastic and not coupling_known(cfg):
        errs.append((_line(key_lines, "algorithm.eta"), f"eta = auto needs {_COUPLING}"))

    if cfg.seeds.count < 1:
        errs.append((_line(key_lines, "seeds.count"), "seeds.count must be >= 1"))
    if cfg.diagnostics.s_surrogate_samples < 0:
        errs.append(
            (_line(key_lines, "diagnostics.s_surrogate_samples"), "surrogate samples must be >= 0")
        )
    if cfg.diagnostics.record_u and streaming:
        errs.append(
            (_line(key_lines, "diagnostics.record_u"), "record_u needs exact gradients (finite n)")
        )

    # every requested check the config cannot feed, read off CHECKS
    line = _line(key_lines, "diagnostics.checks")
    sigma_known = p_spec.sigma_sq is not None or not streaming_sigmoid
    objective_recorded = not streaming or cfg.diagnostics.s_surrogate_samples > 0
    convex_zero = p_spec.family == "quadratic" and p_spec.convex and p_spec.reg[0] == "zero"
    for name in cfg.diagnostics.checks:
        spec = CHECKS[name]
        if a.name not in spec.algorithms:
            errs.append((line, f"check {name} does not apply to {a.name}"))
            continue
        unmet = [
            (spec.record_u and not cfg.diagnostics.record_u, "diagnostics.record_u"),
            (spec.coupling and not coupling_known(cfg), _COUPLING),
            (spec.sigma_sq and not sigma_known, "problem.sigma_sq on a streaming sigmoid problem"),
            (
                spec.best_seen_reference and not objective_recorded,
                "diagnostics.s_surrogate_samples > 0 to record F on a streaming problem",
            ),
            (
                spec.convex_quadratic and not convex_zero,
                "a convex quadratic with reg = zero (known mu and gap)",
            ),
        ]
        errs.extend((line, f"check {name} needs {what}") for bad, what in unmet if bad)
    return errs


_COUPLING = (
    "coupling constants: a quadratic family, or lambda.lip_trailing and lambda.lip_leading "
    "under a non-backtracking metric"
)


def lambda_mode(cfg: ExperimentConfig) -> str:
    """``lambda.mode``, or its default: backtracking for pccd on the sigmoid
    family, the sigmoid bound for other sigmoid runs, else exact_quadratic."""
    if cfg.lam.mode is not None:
        return cfg.lam.mode
    if cfg.problem.family == "sigmoid":
        return "backtracking" if METHODS[cfg.algorithm.name].backtracks else "sigmoid_bound"
    return "exact_quadratic"


def coupling_known(cfg: ExperimentConfig) -> bool:
    """Whether the run has coupling constants: computed exactly for the
    quadratic families, or supplied as lambda.lip_trailing and
    lambda.lip_leading; a backtracking metric has none."""
    p_spec = cfg.problem
    quadratic = p_spec.family == "quadratic" or (
        p_spec.family == "streaming" and p_spec.streaming_family == "quadratic"
    )
    supplied = cfg.lam.lip_trailing is not None and cfg.lam.lip_leading is not None
    return lambda_mode(cfg) != "backtracking" and (quadratic or supplied)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flat dotted-key view (for echoing resolved parameters into outputs)."""
    out = {}
    for section, attr in _SECTION_ATTRS.items():
        sub = getattr(cfg, attr)
        for f in dataclasses.fields(sub):
            out[f"{section}.{f.name}"] = getattr(sub, f.name)
    return out
