"""Command line entry point.

Exit codes: 0 success, 2 configuration problem, 3 unreadable or malformed
data, 4 solver divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .config import ConfigError, load_experiment_config, with_seed
from .harness import DataError, run_ablate, run_fuse, run_metrics, run_simulate
from .solver import SolverDivergenceError
from .tnsr import TnsrError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trfuse",
        description="Fuse a low-resolution hyperspectral cube with a "
                    "high-resolution multispectral cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
            ("simulate", "degrade a ground-truth cube into a y/z pair"),
            ("fuse", "run the fusion solver on configured inputs"),
            ("ablate", "rerun fusion with each regularizer switched off")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    mp = sub.add_parser("metrics", help="score an estimate against a reference")
    mp.add_argument("--ref", required=True, help="reference cube (.tnsr)")
    mp.add_argument("--est", required=True, help="estimated cube (.tnsr)")
    mp.add_argument("--factor", type=int, default=4,
                    help="spatial ratio used by the ergas index")
    mp.add_argument("--out", default=None, help="optional output directory")

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(f"trfuse {__version__}")
            return EXIT_OK
        if args.command == "metrics":
            if args.factor < 1:
                raise ConfigError("factor must be a positive integer")
            payload = run_metrics(args.ref, args.est, args.factor, args.out)
            print(json.dumps(payload["metrics"], indent=2, sort_keys=True))
            return EXIT_OK
        cfg = with_seed(load_experiment_config(args.config), args.seed)
        if args.command == "simulate":
            summary = run_simulate(cfg, args.out)
            print(f"wrote y {summary['y_shape']} and z {summary['z_shape']} "
                  f"to {summary['out']}")
        elif args.command == "fuse":
            summary = run_fuse(cfg, args.out)
            print(f"fused in {summary['iterations']} outer iterations "
                  f"({summary['cg_iters']} CG iterations, "
                  f"{summary['cg_capped']} capped), outputs in {summary['out']}")
            if "metrics" in summary:
                print(json.dumps(summary["metrics"], indent=2, sort_keys=True))
        else:
            rows = run_ablate(cfg, args.out)
            for row in rows:
                print(f"{row['variant']}: psnr={row['psnr']:.4f} "
                      f"sam={row['sam']:.4f}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"trfuse: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TnsrError, DataError) as exc:
        print(f"trfuse: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverDivergenceError as exc:
        print(f"trfuse: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
