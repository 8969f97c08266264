"""Command-line driver for the benchmark convergence studies."""

from __future__ import annotations

import argparse
import sys

from .mesh import ConfigurationError
from .study import RunConfig, format_table, run_convergence_study


def _parse_bounds(text):
    if text is None:
        return "default"
    if text.lower() == "none":
        return None
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"bounds must be 'lo,hi' or 'none', got {text!r}") from None
    return (lo, hi)


def _parse_n_list(text):
    sizes = []
    for entry in text.split(","):
        try:
            sizes.append(int(entry))
        except ValueError:
            raise ConfigurationError(
                f"--n-list entry {entry!r} is not an integer") from None
    return tuple(sizes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nxfem-ocp",
        description="Optimal control of elliptic interface problems on "
                    "unfitted meshes: benchmark solves and convergence studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="run one benchmark on one or more meshes")
    ps.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single mesh subdivision count")
    group.add_argument("--n-list", type=str,
                       help="comma-separated subdivision counts, e.g. 16,32,64")
    ps.add_argument("--lambda-coef", type=float, default=None,
                    help="override the penalty scale (lambda = coef / h)")
    ps.add_argument("--a", type=float, default=None,
                    help="override the control regularization weight")
    ps.add_argument("--bounds", type=str, default=None,
                    help="control box 'lo,hi', or 'none' to drop the bounds; "
                         "write a negative lower bound as --bounds=-0.3,0.3")
    ps.add_argument("--max-iter", type=int, default=200)
    ps.add_argument("--out", type=str, default="out",
                    help="output directory for csv/tables")
    ps.add_argument("--dump-geometry", action="store_true",
                    help="also dump mesh and integration-cell tables")
    ps.add_argument("--verbose", action="store_true",
                    help="write per-iteration logs and echo one progress "
                         "line per mesh to stderr")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n is not None:
            n_values = (args.n,)
        else:
            n_values = _parse_n_list(args.n_list)
        config = RunConfig(
            example=args.example, n_values=n_values, a=args.a,
            lambda_coef=args.lambda_coef, bounds=_parse_bounds(args.bounds),
            max_iter=args.max_iter, out_dir=args.out,
            dump_geometry=args.dump_geometry, verbose=args.verbose)
        result = run_convergence_study(config)
    except ConfigurationError as exc:
        parser.error(str(exc))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_table(result))
    if not result.solutions[-1].converged:
        n = result.n_values[len(result.solutions) - 1]
        print(f"warning: iteration did not converge at N={n}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
