"""Flat key-value experiment configuration.

Format: UTF-8 text, one ``section.key = value`` per line, ``#`` starts a
comment (full-line or trailing). Parsing validates every line and reports
*all* problems at once, each with its line number.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .smoothness import finite_sum_schedule


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
    coupling: bool = False  # the coupling constants of the run's metric
    sigma_sq: bool = False  # the gradient-noise constant sigma^2
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
# what a run is built on: the family, a stream named by what it streams
KINDS = ("quadratic", "sigmoid", "streaming quadratic", "streaming sigmoid")
QUADRATIC_KINDS = KINDS[0::2]
SIGMOID_KINDS = KINDS[1::2]
FINITE_KINDS = KINDS[:2]
STREAMING_KINDS = KINDS[2:]
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
    values: tuple | None = None  # per-block scales; set, they are the run's metric


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
    return "auto" if tok.lower() == "auto" else _parse_float(tok)


def _parse_reg(tok: str) -> tuple:
    low = tok.lower().replace(" ", "")
    if low == "zero":
        return ("zero",)
    if low.startswith("l1(") and low.endswith(")"):
        weight = _parse_float(low[3:-1])
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        return ("l1", weight)
    if low.startswith("box(") and low.endswith(")"):
        parts = low[4:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"box regularizer needs two bounds, got {tok!r}")
        lo, hi = _parse_float(parts[0]), _parse_float(parts[1])
        if not lo < hi:
            raise ValueError("box bounds need lo < hi")
        return ("box", lo, hi)
    raise ValueError(f"unknown regularizer {tok!r}; expected zero, l1(w), or box(lo,hi)")


def _parse_checks(tok: str) -> tuple:
    names = tuple(t.strip() for t in tok.split(",") if t.strip())
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return names


def _parse_values(tok: str) -> tuple:
    values = tuple(_parse_float(t.strip()) for t in tok.split(",") if t.strip())
    if any(v <= 0 for v in values):
        raise ValueError("scales must be positive")
    return values


def _choice(options):
    def parse(tok: str) -> str:
        if tok not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {tok!r}")
        return tok

    return parse


@dataclass(frozen=True)
class Key:
    """One config key: its parser, the least value it takes (excluded when
    ``strict``, and ``most`` the largest), and the problem kinds and
    algorithms whose runs read it. ``validate`` rejects a value other than
    the default that breaks the bound or that the run never reads."""

    parse: Callable[[str], object]
    least: float | None = None
    strict: bool = False
    most: float | None = None
    kinds: tuple[str, ...] = KINDS
    algorithms: tuple[str, ...] = ALGORITHMS

    def bound_error(self, key: str, value) -> str | None:
        if self.least is None or isinstance(value, str):  # eta = auto
            return None
        below = value < self.least or (self.strict and value == self.least)
        if not below and (self.most is None or value <= self.most):
            return None
        if self.most is None:
            return f"{key} must be {'>' if self.strict else '>='} {self.least:g}"
        return f"{key} must lie in {'(' if self.strict else '['}{self.least:g}, {self.most:g}]"


KEYS = MappingProxyType({
    "problem.family": Key(_choice(FAMILIES)),
    "problem.n": Key(_parse_count, least=1),
    "problem.d": Key(_parse_int, least=1),
    "problem.m": Key(_parse_int, least=1),
    "problem.condition_number": Key(_parse_float, least=1, kinds=QUADRATIC_KINDS),
    "problem.convex": Key(_parse_bool, kinds=("quadratic",)),
    "problem.identical_curvature": Key(_parse_bool, kinds=("quadratic",)),
    "problem.margin": Key(_parse_float, kinds=SIGMOID_KINDS),
    "problem.reg": Key(_parse_reg),
    "problem.streaming_family": Key(_choice(("quadratic", "sigmoid")), kinds=STREAMING_KINDS),
    "problem.lin_scale": Key(_parse_float, least=0, kinds=("streaming quadratic",)),
    "problem.sigma_sq": Key(_parse_float, least=0, algorithms=VARIANCE_REDUCED),
    "algorithm.name": Key(_choice(ALGORITHMS)),
    "algorithm.K": Key(_parse_int, least=1),
    "algorithm.eta": Key(_parse_eta, least=0, strict=True),
    "algorithm.eta_scale": Key(_parse_float, least=0, strict=True),
    "algorithm.p": Key(_parse_float, least=0, strict=True, most=1, algorithms=STOCHASTIC),
    "algorithm.b": Key(_parse_int, least=1, algorithms=STOCHASTIC),
    # read where p is not fixed, also at p = 1, where no correction batch is
    # drawn: the work-accounting suite resolves its p = 0 row at p = 1 with b' = 8
    "algorithm.bprime": Key(
        _parse_int, least=1,
        algorithms=tuple(name for name in STOCHASTIC if METHODS[name].p is None),
    ),
    "algorithm.sample_sharing": Key(
        _choice(("fresh_per_block", "shared_per_cycle")), algorithms=VARIANCE_REDUCED
    ),
    "algorithm.schedule": Key(_choice(SCHEDULES), kinds=FINITE_KINDS, algorithms=STOCHASTIC),
    # a permission: it changes a run only when eta exceeds the admissible bound
    "algorithm.eta_override": Key(_parse_bool, algorithms=STOCHASTIC),
    "lambda.values": Key(_parse_values),
    "seeds.base": Key(_parse_int, least=0),
    "seeds.count": Key(_parse_int, least=1),
    "diagnostics.record_u": Key(_parse_bool, kinds=FINITE_KINDS, algorithms=STOCHASTIC),
    "diagnostics.checks": Key(_parse_checks),
    "diagnostics.s_surrogate_samples": Key(_parse_int, least=0, kinds=STREAMING_KINDS),
    "output.trace_path": Key(str),
    "output.report_path": Key(str),
    "output.record_wall": Key(_parse_bool),
})

_NUMERIC = {_parse_int: int, _parse_count: int, _parse_float: float, _parse_eta: float}


def numeric_type(key: str):
    """``int`` or ``float`` for a numeric config key (a sweep axis), else None."""
    row = KEYS.get(key)
    return _NUMERIC.get(row.parse) if row is not None else None


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
        if key not in KEYS:
            errors.append((ln, f"unknown key {key!r}"))
            continue
        if key in seen:
            errors.append((ln, f"duplicate key {key!r}"))
            continue
        seen.add(key)
        key_lines[key] = ln
        try:
            parsed = KEYS[key].parse(value)
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


_DEFAULT = ExperimentConfig()


def validate(cfg: ExperimentConfig, key_lines=None) -> list[tuple[int, str]]:
    """One pass over ``KEYS``, then the cross-field rules; returns (line,
    message) pairs (line 0 when the offending value is a default)."""
    key_lines = key_lines or {}
    errs: list[tuple[int, str]] = []
    p_spec, a, checks = cfg.problem, cfg.algorithm, cfg.diagnostics.checks
    method = METHODS[a.name]
    kind = problem_kind(cfg)
    streaming = p_spec.family == "streaming"

    # keys whose reader depends on another key's value: (unread, why)
    unread_when = {
        "problem.n": (streaming and p_spec.n != math.inf, "a stream has n = inf"),
        "problem.sigma_sq": (
            not any(CHECKS[name].sigma_sq for name in checks), "no requested check reads it"
        ),
        "algorithm.p": (a.schedule is not None, "the schedule sets p"),
        "algorithm.b": (a.schedule is not None, "the schedule sets b"),
        "output.report_path": (not checks, "no check is requested"),
    }
    for key, row in KEYS.items():
        value = _value(cfg, key)
        if value == _value(_DEFAULT, key):
            continue
        line = _line(key_lines, key)
        unread, why = unread_when.get(key, (False, ""))
        bound_error = row.bound_error(key, value)
        if bound_error:
            errs.append((line, bound_error))
        elif a.name not in row.algorithms:
            errs.append((line, f"{a.name} never reads {key}"))
        elif kind not in row.kinds:
            errs.append((line, f"a {kind} problem never reads {key}"))
        elif unread:
            errs.append((line, f"{key} is never read here: {why}"))

    if not streaming and p_spec.n == math.inf:
        errs.append((_line(key_lines, "problem.n"), "problem.n = inf requires family streaming"))
    if not errs:  # the derived batch sizes, once the keys they come from are sound
        _, b, b_prime, _ = estimator_settings(cfg)
        if not streaming and b is not None and b > p_spec.n:
            errs.append((_line(key_lines, "algorithm.b"), "need b <= n"))
        if b is not None and b_prime is not None and b_prime > b:
            errs.append((_line(key_lines, "algorithm.bprime"), "need bprime <= b"))
    if p_spec.m > p_spec.d:
        errs.append((_line(key_lines, "problem.m"), "need m <= d"))
    if method.p is not None and a.p is not None and a.p != method.p:
        errs.append((_line(key_lines, "algorithm.p"), f"{a.name} forces p = {method.p:g}"))
    if method.sample_sharing and a.sample_sharing not in (None, method.sample_sharing):
        where = _line(key_lines, "algorithm.sample_sharing")
        errs.append((where, f"{a.name} means {method.sample_sharing}"))
    if method.stochastic and method.p is None and a.schedule is None and a.p is None:
        errs.append(
            (_line(key_lines, "algorithm.name"), f"{a.name} needs algorithm.p or a schedule")
        )
    if method.stochastic and a.schedule is None and a.b is None:
        errs.append((_line(key_lines, "algorithm.name"), f"{a.name} needs algorithm.b or a schedule"))
    if streaming and not method.stochastic:
        errs.append(
            (_line(key_lines, "algorithm.name"), f"{a.name} needs exact gradients (finite n)")
        )

    if cfg.lam.values is not None and len(cfg.lam.values) != p_spec.m:
        errs.append((_line(key_lines, "lambda.values"), "need one scale per block"))
    if kind == "streaming sigmoid" and cfg.lam.values is None:
        errs.append(
            (
                _line(key_lines, "problem.streaming_family"),
                "a streaming sigmoid problem has no exact_quadratic metric; set lambda.values",
            )
        )
    if kind == "quadratic" and not p_spec.convex and p_spec.reg[0] != "box":
        where = _line(key_lines, "problem.convex")
        errs.append((where, "a nonconvex quadratic is bounded below only on a box: set problem.reg"))

    # every requested check the config cannot feed, read off CHECKS
    line = _line(key_lines, "diagnostics.checks")
    objective_recorded = not streaming or cfg.diagnostics.s_surrogate_samples > 0
    convex_zero = kind == "quadratic" and p_spec.convex and p_spec.reg[0] == "zero"
    for name in checks:
        spec = CHECKS[name]
        if a.name not in spec.algorithms:
            errs.append((line, f"check {name} does not apply to {a.name}"))
            continue
        unmet = [
            (spec.record_u and not cfg.diagnostics.record_u, "diagnostics.record_u"),
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


def estimator_settings(cfg: ExperimentConfig) -> tuple[float | None, int | None, int | None, str]:
    """The run's (p, b, b', sample sharing), from the algorithm keys alone.

    The finite-sum schedule sets b = n, b' = round(sqrt(n)) and
    p = b'/(b+b'); a given bprime replaces b' and re-derives p. A name that
    fixes p overrides it, and there a b' left unset is b (sgd always takes
    b' = b); elsewhere it is round(sqrt(b)). The exact methods get None for
    p, b and b'.
    """
    a = cfg.algorithm
    method = METHODS[a.name]
    p, b, b_prime = a.p, a.b, a.bprime
    if a.schedule == "finite_sum":
        b, b_prime, p = finite_sum_schedule(int(cfg.problem.n))
        if a.bprime is not None:
            b_prime = a.bprime
            p = b_prime / (b + b_prime)
    if method.p is not None:
        p = method.p
        # no correction batch is drawn at a fixed p = 1
        if method.bprime_is_b or b_prime is None:
            b_prime = b
    elif b_prime is None and b is not None:
        b_prime = max(1, round(math.sqrt(b)))
    return p, b, b_prime, method.sample_sharing or a.sample_sharing or "fresh_per_block"


def problem_kind(cfg: ExperimentConfig) -> str:
    """One of ``KINDS``."""
    p_spec = cfg.problem
    return f"streaming {p_spec.streaming_family}" if p_spec.family == "streaming" else p_spec.family


def needs_coupling(cfg: ExperimentConfig) -> bool:
    """Whether the run reads coupling constants: the step-size bound of a
    stochastic method does, and so does every check with ``coupling``."""
    return METHODS[cfg.algorithm.name].stochastic or any(
        CHECKS[name].coupling for name in cfg.diagnostics.checks
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flat dotted-key view (for echoing resolved parameters into outputs)."""
    out = {}
    for section, attr in _SECTION_ATTRS.items():
        sub = getattr(cfg, attr)
        for f in dataclasses.fields(sub):
            out[f"{section}.{f.name}"] = getattr(sub, f.name)
    return out
