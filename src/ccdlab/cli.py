"""Command-line entry point.

    ccdlab run <config>    [--seed S] [--jobs N] [--out-dir D]
    ccdlab check <suite>   (a criterion suite name, or "all")
    ccdlab sweep <config>  --axis KEY --values v1,v2,... [--seed] [--jobs] [--out-dir]

Exit status: 0 all checks pass, 1 Monte Carlo failure after escalation,
2 deterministic bound violation, 3 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .harness import run_experiment, sweep
from .suites import SUITES, run_suite


def _load_config(path: str, seed: int | None):
    text = Path(path).read_text(encoding="utf-8")
    cfg = parse_config(text)
    if seed is not None:
        cfg = cfg.with_override("seeds.base", seed)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ccdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None, help="override seeds.base")
    run_p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    run_p.add_argument("--out-dir", default=".")

    check_p = sub.add_parser("check", help="run a built-in verification suite")
    check_p.add_argument("suite", choices=sorted(SUITES) + ["all"])

    sweep_p = sub.add_parser("sweep", help="sweep one numeric config field")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--axis", required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated numbers")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep_p.add_argument("--out-dir", default=".")

    args = parser.parse_args(argv)

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
        failed = False
        for name in names:
            result = run_suite(name)
            verdict = "PASS" if result.passed else "FAIL"
            print(f"{verdict} {result.name} ({result.elapsed_s:.1f}s)")
            for line in result.lines:
                print(f"    {line}")
            failed = failed or not result.passed
        return 2 if failed else 0

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
