"""Command-line front end.

Four subcommands, all driven by a config file and writing CSV:

  run        simulate the configured policy, one row per seed plus a mean
  sweep      repeat the run over a parameter grid and report the argmin
  analytic   closed-form per-request costs, no simulation
  validate   simulate and compare with the closed-form counterpart

Exit codes: 0 success, 2 configuration problems, 3 malformed trace files,
4 a policy/engine invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import InvariantViolation
from .experiments import (
    ANALYTIC_COLUMNS,
    CSV_COLUMNS,
    SWEEP_AXES,
    VALIDATION_COLUMNS,
    ConfigError,
    analytic_table,
    emit_csv,
    load_config,
    override,
    run_experiment,
    sweep,
    validation_report,
)
from .workload import TraceFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_INVARIANT = 4


def _parse_grid(text: str) -> list[str]:
    """The comma-separated values; the config key a grid sets checks them."""
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"empty grid {text!r}")
    return values


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment config file (INI)")
    sub.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="override config seeds; repeat the flag for several",
    )
    sub.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes, at most one per task"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecost",
        description="Cost simulation and analysis for pay-per-use caching policies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="simulate the configured policy")
    _add_common(p_run)
    _add_run_args(p_run)

    p_sweep = subs.add_parser("sweep", help="sweep one parameter over a grid")
    _add_common(p_sweep)
    _add_run_args(p_sweep)
    grids = p_sweep.add_mutually_exclusive_group(required=True)
    grids.add_argument("--ttl-grid", metavar="LIST", help="comma-separated cache lifetimes, hours")
    grids.add_argument("--window-grid", metavar="LIST", help="comma-separated estimator windows, hours")
    grids.add_argument("--capacity-grid", metavar="LIST", help="comma-separated LRU capacities")
    grids.add_argument("--lambda-grid", metavar="LIST", help="comma-separated request rates, per hour")

    p_analytic = subs.add_parser("analytic", help="closed-form costs, no simulation")
    _add_common(p_analytic)
    p_analytic.add_argument("--ttl-grid", metavar="LIST", help="shared-TTL grid to tabulate and argmin")
    p_analytic.add_argument("--lambda-grid", metavar="LIST",
                            help="repeat the argmin search per rate, over --ttl-grid or 0,30,...,600 h")

    p_validate = subs.add_parser("validate", help="simulation vs closed form")
    _add_common(p_validate)
    _add_run_args(p_validate)

    return parser


def _check_out(path: str) -> bool:
    """Check that `path` can be written, before any run and without
    truncating it; returns whether the check created the file."""
    try:
        try:
            open(path, "xb").close()
            return True
        except FileExistsError:
            open(path, "ab").close()
            return False
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    created = False
    try:
        if args.out is not None:
            created = _check_out(args.out)
        cfg = load_config(args.config)
        columns = CSV_COLUMNS
        if args.command == "analytic":
            ttl_grid = _parse_grid(args.ttl_grid) if args.ttl_grid is not None else None
            lambda_grid = _parse_grid(args.lambda_grid) if args.lambda_grid is not None else None
            rows = analytic_table(cfg, ttl_grid=ttl_grid, lambda_grid=lambda_grid)
            columns = ANALYTIC_COLUMNS
        else:
            if args.seed:
                cfg = override(cfg, "run", "seeds", args.seed)
            if args.command == "run":
                rows = run_experiment(cfg, jobs=args.jobs)
            elif args.command == "sweep":
                axis = next(a for a in SWEEP_AXES if getattr(args, f"{a}_grid") is not None)
                grid = _parse_grid(getattr(args, f"{axis}_grid"))
                rows = sweep(cfg, axis, grid, jobs=args.jobs)
            else:
                rows = validation_report(cfg, jobs=args.jobs)
                columns = VALIDATION_COLUMNS
        if args.out is None:
            try:
                emit_csv(rows, sys.stdout, columns)
                sys.stdout.flush()
            except OSError as err:
                # A closed pipe: the flush at exit writes to devnull instead
                # of failing again (the `signal` docs' "Note on SIGPIPE").
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise ConfigError(f"cannot write stdout: {err.strerror}") from None
        else:
            try:
                emit_csv(rows, args.out, columns)
            except OSError as err:
                raise ConfigError(f"cannot write {args.out}: {err.strerror}") from None
            created = False  # written: it stays
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceFormatError as err:
        print(f"trace error: {err}", file=sys.stderr)
        return EXIT_TRACE
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        # A failed command leaves no output file it created behind.
        if created:
            os.remove(args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
