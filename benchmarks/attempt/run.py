"""Entry point named in BENCHMARK.json: one workload, one result line.

``python3 benchmarks/attempt/run.py --workload W --seed N --seconds S
--trace 0|1`` prints a readable report and then, as the last line, one
JSON object: the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.attempt import (END_TO_END, PER_LAYER, RUN_SECONDS,  # noqa: E402
                                WORKLOADS, runner)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/attempt/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        run = runner.trace_workload(args.workload, args.seed)
        runner.report_traced(run)
        print(runner.result_line(run, PER_LAYER))
    else:
        run = runner.measure_workload(args.workload, args.seed, args.seconds)
        runner.report_measured(run)
        print(runner.result_line(run, END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
