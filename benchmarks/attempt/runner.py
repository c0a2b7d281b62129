"""Orchestration: cold starts, the measuring process, reports and checks.

The runner itself measures nothing. It starts one fresh interpreter per
cold start, one after another (never two at once: the box has two
cores and the attempt under test may use one), and combines what they
print. It imports nothing from ``repro``.
"""

from __future__ import annotations

import compileall
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Any

from benchmarks.attempt import (COLD_STARTS, END_TO_END, PASSES, PER_LAYER,
                                RUN_SECONDS, WORKLOADS)
from benchmarks.attempt.stats import relative_gap, stepwise_min

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Simulated counters that must repeat exactly between two runs.
EXACT_COUNTERS = ("gpusim.sim_instructions", "gpusim.global_transactions",
                  "gpusim.sim_seconds", "minicuda.tokens_per_attempt")
#: A child that has not finished by then is stuck, not slow.
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """The default configuration only: every switch that selects an
    engine, a parser or a benchmark sizing is scrubbed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("WEBGPU_KERNEL_ENGINE", "WEBGPU_PARSER",
                        "WEBGPU_TRACE_OUT")
           and not k.startswith("WEBGPU_BENCH_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    return env


def precompile() -> None:
    """Byte-compile the sources once, so that no cold start pays for
    writing ``.pyc`` files (the first would, the others would not)."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no repro package under {SRC}: nothing to measure")
    for tree in (SRC, pathlib.Path(__file__).resolve().parent):
        compileall.compile_dir(str(tree), quiet=2, workers=1)


def spawn(workload: str, seed: int, passes: int, *extra: str) -> dict:
    """One fresh measuring interpreter; returns the object it printed."""
    command = [sys.executable, "-m", "benchmarks.attempt.measure",
               "--workload", workload, "--seed", str(seed),
               "--passes", str(passes),
               "--spawned-at", repr(time.monotonic()), *extra]
    done = subprocess.run(command, cwd=ROOT, env=child_env(), check=False,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"measuring process for {workload} exited with "
                         f"code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def passes_for(seconds: float, quick: bool) -> int:
    return 2 if quick else max(2, round(PASSES * seconds / RUN_SECONDS))


def environment(seed: int) -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=False,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        sha = ""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": sha or "not a git checkout",
            "seed": seed}


def measure_workload(workload: str, seed: int, seconds: float = RUN_SECONDS,
                     quick: bool = False) -> dict[str, Any]:
    """The untraced run: cold starts, then the timed passes."""
    flags = ("--quick",) if quick else ()
    passes = passes_for(seconds, quick)
    load_before = os.getloadavg()
    precompile()
    cold = [spawn(workload, seed, passes, "--setup-only", *flags)
            for _ in range(COLD_STARTS - 1)]
    main = spawn(workload, seed, passes, *flags)
    steps = stepwise_min([run["steps"] for run in cold + [main]])
    main["setup_steps"] = steps
    main["metrics"] = {"setup_s": sum(steps.values()), **main["metrics"]}
    main["raw"]["raw.setup_s_single_shot"] = sum(main["steps"].values())
    for run in cold:
        main["attempted"] += run["attempted"]
        main["failed"] += run["failed"]
        main["failures"] += run["failures"]
    main["env"] = {**environment(seed), "passes": passes,
                   "cold_starts": COLD_STARTS,
                   "load_before": load_before, "load_after": os.getloadavg()}
    return main


def trace_workload(workload: str, seed: int,
                   quick: bool = False) -> dict[str, Any]:
    """The traced run: staged replay and the per-layer ledger."""
    precompile()
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"trace-{workload}.jsonl"
    flags = ("--quick",) if quick else ()
    run = spawn(workload, seed, 0, "--trace-out", str(trace_out), *flags)
    run["trace_out"] = str(trace_out.relative_to(ROOT))
    return run


# -- reports ----------------------------------------------------------------

def _line(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:>16.6g} {unit}"


def report_measured(run: dict[str, Any]) -> None:
    env = run["env"]
    print(f"== {run['workload']}: {run['slots']} slots, "
          f"{run['attempts_per_pass']} attempts/pass, {run['passes']} passes, "
          f"{env['cold_starts']} cold starts, inputs {run['digest']}")
    print(f"  nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, commit {env['git_sha']}, seed {env['seed']}, "
          f"load {env['load_before'][0]:.2f} -> {env['load_after'][0]:.2f}")
    for name, value in run["metrics"].items():
        print(_line(name, value, END_TO_END[name][0]))
    print(f"  set-up steps (minimum of {env['cold_starts']} cold starts):")
    for step, value in run["setup_steps"].items():
        print(_line(f"  {step}", value * 1e3, "ms"))
    print("  diagnostics, not for comparison:")
    for name, value in run["raw"].items():
        print(_line(f"  {name}", value, ""))
    report_failures(run)


def report_traced(run: dict[str, Any]) -> None:
    print(f"== {run['workload']} traced: spans in {run['trace_out']}")
    for name, value in run["metrics"].items():
        print(_line(name, value, PER_LAYER[name][0]))
    print("  ledger, ms per attempt (rows sum to the total):")
    for row, value in run["ledger"].items():
        print(_line(f"  {row}", value, "ms"))
    report_failures(run)


def report_failures(run: dict[str, Any]) -> None:
    print(f"  operations: {run['attempted']} attempted, "
          f"{run['failed']} failed")
    for line in run["failures"]:
        print(f"    FAILED {line}")


def result_line(run: dict[str, Any], units: dict[str, tuple]) -> str:
    """The one-object summary the benchmark contract asks for."""
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in run["metrics"].items()},
    })


# -- subcommands ------------------------------------------------------------

def run_all(seed: int, quick: bool = False) -> int:
    """Every metric of every workload, by name, with its unit."""
    if quick:
        print("quick mode: 2 passes over a quarter of the slots — "
              "not for numbers")
    failed = 0
    for workload in WORKLOADS:
        measured = measure_workload(workload, seed, quick=quick)
        report_measured(measured)
        traced = trace_workload(workload, seed, quick=quick)
        report_traced(traced)
        failed += measured["failed"] + traced["failed"]
    print(f"{failed} failed operation(s) in total")
    return 1 if failed else 0


def check(seed: int, sets: int = 2, quick: bool = False) -> int:
    """Run the whole benchmark ``sets`` times on the working tree and
    fail if two sets disagree by more than a metric's own bound, or if
    an exact simulated counter differs at all. Two quick passes are too
    few to time anything: ``quick`` judges operations and counters only."""
    if quick:
        print("quick mode: 2 passes over a quarter of the slots — "
              "not for numbers")
    bad = 0
    for workload in WORKLOADS:
        measured = [measure_workload(workload, seed, quick=quick)
                    for _ in range(sets)]
        traced = [trace_workload(workload, seed, quick=quick)
                  for _ in range(sets)]
        bad += sum(run["failed"] for run in measured + traced)
        print(f"== {workload}")
        for name, (unit, _better, bound) in END_TO_END.items():
            values = [run["metrics"][name] for run in measured]
            gap = max(relative_gap(values[0], v) for v in values[1:])
            verdict = ("not judged" if quick else
                       "ok" if gap <= bound else "OUTSIDE BOUND")
            bad += gap > bound and not quick
            print(f"  {name:<22} " + "  ".join(f"{v:>12.6g}" for v in values)
                  + f" {unit:<4} gap {gap:6.2%}  bound {bound:4.0%}  {verdict}")
        for name in EXACT_COUNTERS:
            values = [run["metrics"][name] for run in traced]
            same = all(v == values[0] for v in values)
            bad += not same
            print(f"  {name:<32} {values[0]!r:>20} "
                  f"{'identical' if same else f'DIFFERS: {values}'}")
    print("check passed" if not bad else f"check FAILED ({bad} finding(s))")
    return 1 if bad else 0


#: Busy for 0.3 s, idle for 0.2 s, for ever: a bursty neighbour.
HOG = ("import time\n"
       "while True:\n"
       "    end = time.perf_counter() + 0.3\n"
       "    while time.perf_counter() < end: pass\n"
       "    time.sleep(0.2)\n")


def noise(seconds: float = 20.0, hog: bool = False) -> int:
    """Why minimum, not median: time a fixed busy loop over and over
    and compare how the median and the minimum of each five-second
    bucket wander, optionally beside a bursty CPU hog on every core."""
    def spin() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        return (time.perf_counter() - start) * 1e3

    hogs = [subprocess.Popen([sys.executable, "-c", HOG])
            for _ in range((os.cpu_count() or 1) if hog else 0)]
    try:
        medians, minima = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            bucket_end = time.perf_counter() + 5.0
            bucket = []
            while time.perf_counter() < bucket_end:
                bucket.append(spin())
            medians.append(median(bucket))
            minima.append(min(bucket))
            print(f"  bucket of {len(bucket):4d} loops: median "
                  f"{medians[-1]:7.3f} ms   minimum {minima[-1]:7.3f} ms")
    finally:
        for proc in hogs:
            proc.kill()
            proc.wait()
    for label, values in (("median", medians), ("minimum", minima)):
        print(f"  {label:<8} ranges {min(values):.3f}-{max(values):.3f} ms "
              f"across buckets: spread "
              f"{(max(values) - min(values)) / min(values):.1%}")
    return 0
