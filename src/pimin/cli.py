"""Command-line interface: single trials, sweeps, and the self-check suite.

Exit codes: 0 success, 1 usage or output error, 2 solver failure, 3 self-check
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bccd import BccdConfig
from .bench import (Method, load_sweep_spec, run_sweep, run_trial,
                    write_records_csv)
from .scenario import load_config
from .selfcheck import self_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _out_path(text: str) -> str:
    """An output path whose directory exists, checked before any trial runs."""
    parent = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent} of {text!r} does not exist")
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):     # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pimin",
                     description="Path-interference minimization for RIS-aided "
                                 "bistatic sensing: trials, sweeps, self checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one seeded trial")
    run_p.add_argument("--config", required=True, help="scenario JSON path")
    run_p.add_argument("--method", required=True,
                       choices=[m.value for m in Method])
    run_p.add_argument("--seed", required=True, type=_int_at_least(0))
    run_p.add_argument("--out", required=True, type=_out_path, help="output CSV path")
    run_p.add_argument("--n-iter", type=_int_at_least(1), default=BccdConfig.n_iter,
                       help="outer iterations (default %(default)s)")

    sweep_p = sub.add_parser("sweep", help="run a Monte Carlo parameter sweep")
    sweep_p.add_argument("--spec", required=True, help="sweep spec JSON path")
    sweep_p.add_argument("--parallelism", type=_int_at_least(1), default=1)
    sweep_p.add_argument("--out", required=True, type=_out_path, help="output CSV path")

    sub.add_parser("check", help="run the built-in invariant suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            # ValueError is the base of DomainError, DimensionError and JSONDecodeError
            try:
                scen = load_config(args.config)
                method = Method(args.method)
            except (OSError, ValueError, TypeError) as exc:
                print(f"pimin: config error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            cfg = BccdConfig(n_iter=args.n_iter)
            record = run_trial(scen, method, cfg, seed=args.seed)
            write_records_csv([record], args.out)
            print(f"wrote 1 record to {args.out} "
                  f"(P_PI {record.P_PI_dB:.2f} dB, status {record.sdp_status_final})")
            return EXIT_OK

        if args.command == "sweep":
            try:
                spec = load_sweep_spec(args.spec)
            except (OSError, ValueError, TypeError, KeyError) as exc:
                print(f"pimin: spec error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            records, _ = run_sweep(spec, parallelism=args.parallelism,
                                   out_path=args.out)
            failures = sum(1 for r in records if r.sdp_status_final.startswith("error"))
            print(f"wrote {len(records)} records to {args.out} "
                  f"({failures} failed rows)")
            return EXIT_SOLVER if failures else EXIT_OK

        # the parser accepts only run, sweep and check, so this is check
        results = self_check()
        for result in results:
            print(result)
        return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK
    except OSError as exc:      # the solvers do no I/O: the outputs, or a pool that cannot start
        print(f"pimin: output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:    # solver-level failure
        print(f"pimin: solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
