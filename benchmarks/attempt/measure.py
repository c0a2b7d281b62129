"""The measuring process: one cold start, then the timed passes.

Run as ``python -m benchmarks.attempt.measure`` by the runner, in a
fresh interpreter per cold start, so that ``import`` is paid in full
every time. Nothing from ``repro`` is imported at module level for the
same reason. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from statistics import median
from typing import Any

from benchmarks.attempt.stats import nearest_rank, slot_best


def cpu_seconds() -> float:
    """User + system CPU of this process and of children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


class Failures:
    """Operations attempted and failed: a verdict other than the slot's
    expected one, or an exception, is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def check(self, slot_name: str, expect: str, observed: str) -> None:
        self.attempted += 1
        if observed != expect:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(
                    f"{slot_name}: expected {expect!r}, got {observed!r}")


def run_slot(runner: Any, slot: Any, nonces: Any, failures: Failures,
             spans: Any = None) -> tuple[float, float]:
    """Execute one slot; returns its (wall, cpu) seconds. Sources are
    prepared before the clock starts and verdicts checked after it
    stops. With ``spans`` (the traced run) every attempt is recorded."""
    sources = [nonces.apply(attempt) for attempt in slot.attempts]
    observed = []
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    for attempt, source in zip(slot.attempts, sources):
        try:
            if spans is None:
                observed.append(runner.execute(attempt, source))
            else:
                with spans.span(slot.name):
                    observed.append(runner.execute(attempt, source))
        except Exception as exc:  # a raising attempt is a failed one
            observed.append(f"!{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    for attempt, verdict in zip(slot.attempts, observed):
        failures.check(slot.name, attempt.expect, verdict)
    return wall, cpu


def pass_order(slots: tuple, seed: int, number: int) -> list:
    order = list(slots)
    random.Random(f"{seed}/pass/{number}").shuffle(order)
    return order


def cold_start(args: argparse.Namespace, failures: Failures):
    """Interpreter start -> ready to serve, as named steps in seconds."""
    steps: dict[str, float] = {}
    mark = args.spawned_at

    def step(name: str) -> None:
        nonlocal mark
        now = time.monotonic()
        steps[name] = now - mark
        mark = now

    from benchmarks.attempt import workloads
    step("import")
    workload = workloads.build(args.workload, args.seed, quick=args.quick)
    nonces = workloads.Nonces(args.seed, args.workload)
    step("build")
    runner = workload.make_runner()
    step("construct")
    for slot in workload.warmup_slots():
        run_slot(runner, slot, nonces, failures)
        step(f"warmup.{slot.name}")
    return steps, workload, nonces, runner


def timed_passes(workload: Any, runner: Any, nonces: Any, seed: int,
                 passes: int, failures: Failures, first_pass: int = 0,
                 spans: Any = None) -> tuple[dict, dict, list[float]]:
    """``passes`` passes over every slot in a seeded shuffle; returns
    per-slot wall samples, per-slot cpu samples and pass totals."""
    wall: dict[str, list[float]] = {s.name: [] for s in workload.slots}
    cpu: dict[str, list[float]] = {s.name: [] for s in workload.slots}
    totals = []
    for number in range(first_pass, first_pass + passes):
        gc.collect()
        total = 0.0
        for slot in pass_order(workload.slots, seed, number):
            w, c = run_slot(runner, slot, nonces, failures, spans)
            wall[slot.name].append(w)
            cpu[slot.name].append(c)
            total += w
        totals.append(total)
    return wall, cpu, totals


def end_to_end(workload: Any, wall: dict, cpu: dict,
               totals: list[float]) -> tuple[dict, dict]:
    """The timing metrics (all from slot-best values) and the raw
    pooled diagnostics (labelled ``raw.*``, not for comparison)."""
    batch = {s.name: len(s.attempts) for s in workload.slots}
    attempts = workload.attempts_per_pass
    best_wall = slot_best(wall, batch)
    best_cpu = slot_best(cpu, batch)
    latencies_ms = [v * 1e3 for v in best_wall.values()]
    metrics = {
        "attempt_p50_ms": nearest_rank(latencies_ms, 50),
        "attempt_p90_ms": nearest_rank(latencies_ms, 90),
        "attempts_per_s": attempts / sum(
            best_wall[name] * batch[name] for name in batch),
        "cpu_ms_per_attempt": 1e3 * sum(
            best_cpu[name] * batch[name] for name in batch) / attempts,
    }
    pooled = [1e3 * t / batch[name] for name, ts in wall.items() for t in ts]
    raw = {
        "raw.p50_ms": nearest_rank(pooled, 50),
        "raw.p95_ms": nearest_rank(pooled, 95),
        "raw.median_pass_attempts_per_s": attempts / median(totals),
        "raw.samples": len(pooled),
    }
    return metrics, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.attempt.measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", default="",
                        help="run the traced replay and write spans here")
    args = parser.parse_args(argv)

    failures = Failures()
    steps, workload, nonces, runner = cold_start(args, failures)
    out: dict[str, Any] = {"workload": workload.name, "steps": steps}
    if args.trace_out:
        from benchmarks.attempt import staged
        out.update(staged.traced_run(workload, runner, nonces, args.seed,
                                     failures, steps, args.trace_out,
                                     quick=args.quick))
    elif not args.setup_only:
        wall, cpu, totals = timed_passes(workload, runner, nonces, args.seed,
                                         args.passes, failures)
        metrics, raw = end_to_end(workload, wall, cpu, totals)
        metrics["peak_rss_mb"] = peak_rss_mib()
        out.update(metrics=metrics, raw=raw, passes=args.passes,
                   slots=len(workload.slots),
                   attempts_per_pass=workload.attempts_per_pass,
                   digest=workload.digest())
    out.update(attempted=failures.attempted, failed=failures.failed,
               failures=failures.examples)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
