"""Command-line entry point.

    ccdlab run <config>    [--seed S] [--jobs N] [--out-dir D]
    ccdlab check <suite>   (a criterion suite name, or "all")
    ccdlab sweep <config>  --axis KEY --values v1,v2,... [--seed] [--jobs] [--out-dir]

Exit status: 0 all checks pass, 1 Monte Carlo failure (after escalation,
for ``run``), 2 deterministic bound violation, 3 usage, configuration or
runtime error. ``check`` judges a suite's reports by ``run``'s rule
(``harness.failed``): 2 when a hard report or an oracle comparison failed, 1
when only Monte Carlo ones did; an advisory report never gates. A suite that
raises prints its traceback; ``check all`` still runs the others and then
exits 3.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .config import ConfigError, parse_config
from .harness import RUN_ERRORS, exit_status, run_experiment, sweep
from .suites import SUITES, run_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as exit status 3; argparse's own 2 would read
    as a deterministic bound violation."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _jobs(tok: str) -> int:
    try:
        jobs = int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {tok!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _load_config(path: str, seed: int | None):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError([(line, f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")])
    cfg = parse_config(text)
    if seed is not None:
        cfg = cfg.with_override("seeds.base", seed)
    return cfg


def main(argv=None) -> int:
    parser = _Parser(prog="ccdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None, help="override seeds.base")
    run_p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    run_p.add_argument("--out-dir", default=".")

    check_p = sub.add_parser("check", help="run a built-in verification suite")
    check_p.add_argument("suite", choices=sorted(SUITES) + ["all"])

    sweep_p = sub.add_parser("sweep", help="sweep one numeric config field")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--axis", required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated numbers")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    sweep_p.add_argument("--out-dir", default=".")

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 3

    if args.command == "run":
        try:
            cfg = _load_config(args.config, args.seed)
        except (OSError, ConfigError) as exc:
            print(f"ccdlab: {exc}", file=sys.stderr)
            return 3
        result = run_experiment(cfg, out_dir=args.out_dir, jobs=args.jobs)
        for rep in result.reports:
            print(rep.summary())
        for path in result.trace_paths:
            print(f"trace: {path}")
        if result.report_csv is not None:
            print(f"report: {result.report_csv}")
        return result.exit_code

    if args.command == "check":
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
        status, errored = 0, False
        for name in names:
            try:
                result = run_suite(name)
            except RUN_ERRORS as exc:
                # a suite takes no user input, so where it raised matters
                traceback.print_exc()
                print(f"ccdlab: error: {name}: {exc}", file=sys.stderr)
                errored = True
                continue
            verdict = "PASS" if result.passed else "FAIL"
            print(f"{verdict} {result.name} ({result.elapsed_s:.1f}s)")
            for line in result.lines:
                print(f"    {line}")
            status = max(status, exit_status(result.hard_failed, not result.passed))
        return 3 if errored else status

    if args.command == "sweep":
        try:
            cfg = _load_config(args.config, args.seed)
            values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        except (OSError, ConfigError) as exc:
            print(f"ccdlab: {exc}", file=sys.stderr)
            return 3
        except ValueError:
            print("ccdlab: --values must be comma-separated numbers", file=sys.stderr)
            return 3
        try:
            path = sweep(cfg, args.axis, values, out_dir=args.out_dir, jobs=args.jobs)
        except ValueError as exc:  # a bad axis or value, or a value whose run failed
            print(f"ccdlab: error: {exc}", file=sys.stderr)
            return 3
        print(f"sweep: {path}")
        return 0

    return 3


if __name__ == "__main__":
    raise SystemExit(main())
