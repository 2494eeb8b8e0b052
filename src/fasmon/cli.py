"""Command-line interface.

Two subcommands:

    fasmon run --config FILE [--set key=value ...] --out results.csv [--svg plot.svg]
    fasmon validate [--full] [--seed S]

Exit codes: 0 success, 1 I/O failure, 2 configuration error, 3 numerical
failure (including a partially completed sweep), 4 validation failure.
A partial sweep still writes the rows that did complete before exiting 3.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import ConfigError, FasmonError
from .experiments import expected_row_count, run_experiment
from .reporting import emit_csv, emit_svg
from .validation import DEFAULT_SEED, run_validation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fasmon",
        description="Jamming-power optimization for a fluid-antenna monitor: "
                    "rate sweeps, CSV/SVG reports, and numerical self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured sweep and write CSV")
    run_p.add_argument("--config", required=True, metavar="FILE",
                       help="key=value or JSON config file")
    run_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override a config key (repeatable)")
    run_p.add_argument("--out", required=True, metavar="CSV",
                       help="output CSV path")
    run_p.add_argument("--svg", metavar="FILE", help="also write a line plot")

    val_p = sub.add_parser("validate", help="run the numerical self-check suite")
    val_p.add_argument("--full", action="store_true",
                       help="the acceptance level: larger scans, 10^6 Monte "
                            "Carlo samples and the end-to-end sweeps")
    val_p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the randomized checks")
    return parser


def _cmd_run(args) -> int:
    try:
        spec = parse_config(args.config, args.overrides)
    except ConfigError as exc:
        where = f" (key {exc.key!r}" + (f", line {exc.line})" if exc.line else ")") \
            if exc.key else ""
        print(f"fasmon: configuration error{where}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fasmon: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        rows = run_experiment(spec)
    except FasmonError as exc:
        print(f"fasmon: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    if not rows:
        print("fasmon: every sweep point failed; no output written", file=sys.stderr)
        return 3

    try:
        emit_csv(rows, args.out)
        if args.svg:
            emit_svg(rows, args.svg)
    except OSError as exc:
        print(f"fasmon: cannot write output: {exc}", file=sys.stderr)
        return 1

    expected = expected_row_count(spec)
    if len(rows) < expected:
        print(f"fasmon: partial result: {len(rows)} of {expected} rows "
              f"written to {args.out}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return run_validation(seed=args.seed, full=args.full)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
