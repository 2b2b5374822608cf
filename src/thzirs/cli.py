"""Command-line driver: `plan <subcommand>`.

Exit codes: 0 success, 1 usage or configuration error (also a Monte-Carlo
batch in which every seed aborts), 2 infeasible instance, 3 numeric failure
(an ArithmeticError or LinAlgError).  Any other exception is a bug and
propagates with its traceback.
`PLAN_THREADS` caps Monte-Carlo workers.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .config import _ALGORITHMS, ConfigError, load_config
from .experiment import _band_plan, absorption_sweep, run_experiment, run_single

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def parse_seed_list(text: str):
    """Seed selections: '7', '1,4,9', or an inclusive range '1..20'."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            a, b = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad seed range {text!r}") from exc
        if b < a:
            raise ConfigError(f"empty seed range {text!r}")
        return tuple(range(a, b + 1))
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plan", description="THz downlink planning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("absorption-sweep", help="absorption and path-gain CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)

    opt = sub.add_parser("optimize", help="run one algorithm on one seed")
    opt.add_argument("--config", required=True)
    opt.add_argument("--algo", required=True, choices=_ALGORITHMS)
    opt.add_argument("--seed", required=True, type=int)
    opt.add_argument("--ue-count", type=int, default=None)

    mc = sub.add_parser("monte-carlo", help="seeded batch with CSV outputs")
    mc.add_argument("--config", required=True)
    mc.add_argument("--seeds", default=None, help="override: '1..20' or '1,4,9'")
    mc.add_argument("--out", required=True)
    mc.add_argument("--workers", type=int, default=None)

    bp = sub.add_parser("band-plan", help="print the resolved sub-band plan")
    bp.add_argument("--config", required=True)

    return parser


def _cmd_absorption_sweep(args) -> int:
    config = load_config(args.config)
    f, _, _ = absorption_sweep(config, args.out)
    print(f"wrote {f.size} rows to {args.out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    config = load_config(args.config)
    sol = run_single(config, args.algo, args.seed, args.ue_count)
    u_count = args.ue_count if args.ue_count is not None else config.ue_count
    print(
        f"algo={args.algo} seed={args.seed} U={u_count} "
        f"feasible={str(sol.feasible).lower()} sum_rate_bps={sol.sum_rate_bps!r} "
        f"placement=({sol.placement.x_m:.4f},{sol.placement.y_m:.4f})"
    )
    if not sol.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_monte_carlo(args) -> int:
    config = load_config(args.config)
    if args.seeds is not None:
        config = dataclasses.replace(config, seeds=parse_seed_list(args.seeds))
    report = run_experiment(config, out_dir=args.out, workers=args.workers)
    print(f"wrote {len(report.rows)} result rows to {args.out}")
    if report.failures:
        print(f"{len(report.failures)} seed(s) failed; see report.json", file=sys.stderr)
        if not report.draws:
            # no seed produced a result: the config itself is at fault
            print(f"error: {report.failures[0]['error']}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


def _cmd_band_plan(args) -> int:
    for i, band in enumerate(_band_plan(load_config(args.config)), start=1):
        print(
            f"band {i}: center={band['center_ghz']:.3f} GHz "
            f"span={band['lo_ghz']:.3f}..{band['hi_ghz']:.3f} GHz "
            f"K(center)={band['k_center_per_m']:.6e} 1/m"
        )
    return EXIT_OK


_COMMANDS = {
    "absorption-sweep": _cmd_absorption_sweep,
    "optimize": _cmd_optimize,
    "monte-carlo": _cmd_monte_carlo,
    "band-plan": _cmd_band_plan,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
