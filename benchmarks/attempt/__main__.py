"""``python -m benchmarks.attempt`` — run, check, or look at the noise."""

from __future__ import annotations

import argparse
import sys

from benchmarks.attempt import runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.attempt")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="every metric of every workload, and the verdict check")
    check = commands.add_parser(
        "check", help="run the benchmark twice and compare within bounds")
    check.add_argument("--sets", type=int, default=2)
    for command in (run, check):
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--quick", action="store_true",
                             help="smoke sizing: not for numbers")
    noise = commands.add_parser(
        "noise", help="median against minimum of a fixed loop on this box")
    noise.add_argument("--seconds", type=float, default=20.0)
    noise.add_argument("--hog", action="store_true",
                       help="run a bursty CPU hog on every core meanwhile")
    args = parser.parse_args(argv)
    if args.command == "run":
        return runner.run_all(args.seed, quick=args.quick)
    if args.command == "check":
        return runner.check(args.seed, sets=args.sets, quick=args.quick)
    return runner.noise(args.seconds, hog=args.hog)


if __name__ == "__main__":
    sys.exit(main())
