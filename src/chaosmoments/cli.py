"""Command-line entry point.

Subcommands:

* ``bound``    -- deterministic bound terms only (no sampling),
* ``simulate`` -- Monte Carlo left-hand sides only,
* ``verify``   -- both, with bound/estimate ratios (the default),
* ``gk``       -- moments of a single linear form over a shape grid,
* ``report``   -- re-serialize an existing JSON report.

Exit codes: 0 success, 1 at least one flagged row, 2 configuration
error, 3 I/O error.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import harness
from .distributions import GAUSSIAN, make_distribution
from .dual_norms import ConfigurationError
from .montecarlo import gk_moment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chaosmoments",
        description="Moment bounds and Monte Carlo checks for vector-valued chaoses.",
    )
    parser.add_argument("--config", help="path to a JSON experiment document")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility, no effect (must be >= 1)",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "command", nargs="?", default="verify",
        choices=("bound", "simulate", "verify", "gk", "report"),
    )
    parser.add_argument(
        "target", nargs="?",
        help="for 'report': the JSON report to re-serialize",
    )
    return parser


def _load_config(args):
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise IOError(f"cannot read config {args.config}: {exc}") from exc
    else:
        text = "{}"
    cfg = harness.parse_config(text)
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _emit(text, args):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_rows(args, deterministic, simulate):
    cfg = _load_config(args)
    rows = harness.run_experiment(cfg, deterministic=deterministic, simulate=simulate)
    _emit(harness.render_report(rows, args.format), args)
    return 1 if any(row.flags for row in rows) else 0


def _run_gk(args):
    cfg = _load_config(args)
    mc = cfg.mc_config()
    records = []
    flagged = False
    for r in cfg.r_grid:
        family = cfg.family_x
        dist = make_distribution(family, 2.0 if family == GAUSSIAN else r)
        coeffs = np.ones(cfg.n1) / math.sqrt(cfg.n1)
        for p, est in zip(cfg.p_grid, gk_moment(coeffs, dist, cfg.p_grid, mc)):
            flagged = flagged or est.warning is not None
            records.append({
                "family": family, "r": r, "p": p, "n": cfg.n1,
                "seed": cfg.seed,
                "value": format(est.value, ".17g"),
                "stderr": format(est.stderr, ".17g"),
                "flags": "mc-unreliable" if est.warning else "",
            })
    if args.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = ["family,r,p,n,seed,value,stderr,flags"]
        for rec in records:
            lines.append(
                f"{rec['family']},{rec['r']},{rec['p']},{rec['n']},"
                f"{rec['seed']},{rec['value']},{rec['stderr']},{rec['flags']}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args)
    return 1 if flagged else 0


def _run_report(args):
    if not args.target:
        raise ConfigurationError("report requires a JSON report path")
    try:
        rows = harness.read_rows(args.target)
    except OSError as exc:
        raise IOError(f"cannot read report {args.target}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed report {args.target}: {exc}") from exc
    _emit(harness.render_report(rows, args.format), args)
    return 1 if any(row.flags for row in rows) else 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:  # kept for old command lines; it has no effect
            raise ConfigurationError("threads must be >= 1")
        if args.command == "bound":
            return _run_rows(args, deterministic=True, simulate=False)
        if args.command == "simulate":
            return _run_rows(args, deterministic=False, simulate=True)
        if args.command == "verify":
            return _run_rows(args, deterministic=True, simulate=True)
        if args.command == "gk":
            return _run_gk(args)
        if args.command == "report":
            return _run_report(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
