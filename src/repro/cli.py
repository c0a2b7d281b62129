"""Command-line interface: ``python -m repro`` / ``webgpu-sim``.

Subcommands:

* ``list-labs``             — Table II course matrix plus extensions;
* ``show-lab SLUG``         — description, rubric, questions, datasets;
* ``run-lab SLUG``          — run a source file (default: the reference
  solution) against a lab dataset on the full worker path and print
  the verdict plus the kernel profile;
* ``funnel``                — regenerate Table I;
* ``figure1``               — regenerate the Figure 1 trace summary;
* ``occupancy THREADS``     — the occupancy calculator;
* ``trace-attempt SLUG``    — run one graded attempt through the v2
  broker path with tracing on, print the ASCII waterfall and the
  per-stage latency breakdown (``--tag`` slices it by requirement tag
  with explicit zero rows for stages the tag never hit), and
  optionally write the spans as JSONL (``--trace-out traces.jsonl``);
* ``profile-attempt SLUG``  — run one attempt with the per-source-line
  kernel profiler on and print the annotated listing (per-line
  instruction/memory/divergence counters, heat bar, hottest lines),
  per kernel the engine tier that actually ran it (and why a faster
  tier declined, when it did), per host function whether it ran as
  generated Python or was walked (and why), plus any lab line-budget
  violations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.gpusim import Device
from repro.labs import EXTRA_LABS, execute_lab_source, get_lab
from repro.labs.catalog import render_course_matrix
from repro.minicuda import (
    ENGINES,
    CompileError,
    compile_source,
    resolve_engine,
)
from repro.simulate import HPP_2015, StudentPopulation
from repro.simulate.funnel import funnel_table
from repro.simulate.scenarios import COURSERA_OFFERINGS


def cmd_list_labs(_args: argparse.Namespace) -> int:
    print(render_course_matrix())
    if EXTRA_LABS:
        print("\nextension labs (beyond Table II):")
        for lab in EXTRA_LABS:
            print(f"  {lab.slug:<18} {lab.title} [{lab.language}]")
    return 0


def cmd_show_lab(args: argparse.Namespace) -> int:
    lab = get_lab(args.slug)
    print(lab.description.strip())
    print(f"\nlanguage     : {lab.language}")
    print(f"courses      : {', '.join(sorted(lab.courses)) or '(extension)'}")
    print(f"requirements : {', '.join(sorted(lab.requirements)) or 'cuda'}")
    print(f"datasets     : {len(lab.dataset_sizes)} "
          f"(sizes {list(lab.dataset_sizes)})")
    print(f"rubric       : {lab.rubric.dataset_points} datasets + "
          f"{lab.rubric.compile_points} compile + "
          f"{lab.rubric.question_points} questions = {lab.rubric.total}")
    for i, question in enumerate(lab.questions):
        print(f"question {i}   : {question}")
    if args.skeleton:
        print("\n--- skeleton ---")
        print(lab.skeleton.strip())
    return 0


def cmd_run_lab(args: argparse.Namespace) -> int:
    lab = get_lab(args.slug)
    if args.source:
        source = Path(args.source).read_text()
    else:
        source = lab.solution
        print("(no --source given: running the reference solution)")
    indices = ([args.dataset] if args.dataset is not None
               else range(len(lab.dataset_sizes)))
    failures = 0
    for index in indices:
        data = lab.dataset(index)
        try:
            result = execute_lab_source(lab, source, data)
        except CompileError as exc:
            print(f"dataset {index}: COMPILE ERROR\n{exc}")
            return 2
        except Exception as exc:  # runtime fault
            print(f"dataset {index}: RUNTIME ERROR: {exc}")
            failures += 1
            continue
        verdict = "PASS" if result.passed else "FAIL"
        print(f"dataset {index}: {verdict} "
              f"(kernel {result.kernel_seconds * 1e6:.1f} us simulated)")
        if not result.passed:
            failures += 1
            print("  " + result.compare.report().replace("\n", "\n  "))
        elif args.profile and result.kernel_stats:
            stats = result.kernel_stats[0]
            print(f"  instr={stats.instructions} "
                  f"ld_tx={stats.global_load_transactions} "
                  f"st_tx={stats.global_store_transactions} "
                  f"eff={stats.load_efficiency:.2f} "
                  f"shared={stats.shared_accesses} "
                  f"conflicts={stats.bank_conflicts} "
                  f"atomics={stats.atomic_ops} "
                  f"barriers={stats.barriers}")
    return 1 if failures else 0


def cmd_funnel(_args: argparse.Namespace) -> int:
    print(f"{'offering':<10} {'registered':>10} {'completed':>10} "
          f"{'rate':>7} {'certs':>6}")
    for result in funnel_table(COURSERA_OFFERINGS):
        print(f"{result.name:<10} {result.registered:>10} "
              f"{result.completions:>10} "
              f"{100 * result.completion_rate:>6.2f}% "
              f"{result.certificates:>6}")
    return 0


def cmd_figure1(_args: argparse.Namespace) -> int:
    result = StudentPopulation(HPP_2015.figure1_population_params()).generate()
    series = result.hourly_active
    print(f"{'week':>4} {'active':>7} {'peak/hr':>8}")
    for week in range(10):
        window = series.counts[week * 168:(week + 1) * 168]
        print(f"{week + 1:>4} {result.active_per_week[week]:>7} "
              f"{int(window.max()):>8}")
    print(f"\npeak {series.peak} (paper 112), late trough "
          f"{series.daily_max()[7:].min()} (paper 8), spikes on the day "
          "before the Thursday deadline")
    return 0


def cmd_occupancy(args: argparse.Namespace) -> int:
    device = Device()
    report = device.occupancy(args.threads, args.shared)
    print(f"device               : {device.spec.name}")
    print(f"threads per block    : {args.threads}")
    print(f"shared per block     : {args.shared} bytes")
    print(f"active blocks per SM : {report.active_blocks_per_sm}")
    print(f"active warps per SM  : {report.active_warps_per_sm}"
          f"/{report.max_warps_per_sm}")
    print(f"occupancy            : {report.occupancy:.0%} "
          f"(limited by {report.limiter})")
    return 0


def cmd_trace_attempt(args: argparse.Namespace) -> int:
    from repro.cluster.node import ManualClock
    from repro.core.course import CourseOffering
    from repro.core.platform_v2 import WebGPU2
    from repro.telemetry import Telemetry, waterfall, write_jsonl

    lab = get_lab(args.slug)
    if args.source:
        source = Path(args.source).read_text()
    else:
        source = lab.solution
        print("(no --source given: tracing the reference solution)")

    clock = ManualClock()
    telemetry = Telemetry(clock=clock, tracing=True,
                          exemplar_percentile=args.exemplar_percentile)
    platform = WebGPU2(clock=clock, num_workers=args.workers,
                       telemetry=telemetry)
    offering = CourseOffering(code="TRACE", year=2016, deadlines={})
    course = platform.create_course(offering, [args.slug])
    user = platform.users.register("trace@webgpu", "Tracer", "pw")
    course.enroll(user.user_id)
    platform.save_code(offering.key, user, args.slug, source)
    _attempt, entry = platform.submit_for_grading(offering.key, user,
                                                  args.slug)
    print(f"grade: {entry.total_points:.0f}/{lab.rubric.total}\n")

    tracer = telemetry.tracer
    for trace_id in tracer.trace_ids():
        print(waterfall(tracer.for_trace(trace_id)))

    by_tag = args.tag is not None
    summaries = platform.dashboard.latency_summary(by_tag=by_tag)
    slice_name = f" for tag {args.tag!r}" if by_tag else ""
    print(f"\nstage latency{slice_name} (p50/p95/p99, seconds):")
    zero = {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    for stage, summary in summaries.items():
        # a stage never observed for the selected tag still gets an
        # explicit zero row (the dashboard's convention): the table
        # always covers the whole pipeline
        row = (summary.get("tags", {}).get(args.tag) or zero
               if by_tag else summary)
        print(f"  {stage:<18} {row['p50']:.4f} / {row['p95']:.4f}"
              f" / {row['p99']:.4f} (n={int(row['count'])})")

    exemplars = telemetry.exemplars.snapshot()
    if args.tag is not None:
        exemplars = [rec for rec in exemplars if rec["tag"] == args.tag]
    if exemplars:
        print("\ntail-sampled exemplars (histogram bucket -> trace):")
        for rec in exemplars:
            print(f"  {rec['stage']:<18} tag={rec['tag']} "
                  f"le={rec['le']:.4g}s observed={rec['seconds']:.4f}s "
                  f"trace={rec['trace_id']}")
    if args.trace_out:
        count = write_jsonl(tracer.spans, args.trace_out)
        print(f"\nwrote {count} span(s) to {args.trace_out}")
    return 0


def cmd_profile_attempt(args: argparse.Namespace) -> int:
    from repro.labs.base import execute_lab_program
    from repro.minicuda import simd
    from repro.profiler import check_line_budgets, render_annotated
    from repro.telemetry import KERNEL_EXEC_SECONDS, Telemetry

    lab = get_lab(args.slug)
    if args.source:
        source = Path(args.source).read_text()
    else:
        source = lab.solution
        print("(no --source given: profiling the reference solution)")
    data = lab.dataset(args.dataset)
    telemetry = Telemetry()
    try:
        program = compile_source(source)
        result = execute_lab_program(lab, program, data, engine=args.engine,
                                     profile=True, telemetry=telemetry)
    except CompileError as exc:
        print(f"COMPILE ERROR\n{exc}")
        return 2
    verdict = "PASS" if result.passed else "FAIL"
    print(f"dataset {args.dataset}: {verdict} "
          f"(kernel {result.kernel_seconds * 1e6:.1f} us simulated)")
    # what ran, not what was asked for: the exec histogram is labelled
    # with the tier that executed each launch
    ran = telemetry.metrics.histogram(KERNEL_EXEC_SECONDS)
    info = program.info
    asked = resolve_engine(args.engine)
    for name in (*info.kernels, *info.acc_kernels):
        tiers = [engine for engine in ENGINES
                 if ran.series(engine=engine, kernel=name) is not None]
        line = f"kernel {name}: " + (
            f"ran on {' + '.join(tiers)}" if tiers else "not launched")
        if asked == "simd":
            reason = simd.decline_reason(info, name)
            if reason is not None:
                line += f" (simd declined: {reason})"
            elif demoted := simd._verdict(info, name).demoted:
                line += f" (demoted: {demoted})"
        print(line)
    profile = result.line_profile
    if profile is None or not profile.lines:
        print("no profiled kernel launches — nothing to attribute")
        return 0
    print(f"profile key: {result.fingerprint[:16]}")
    print()
    print(render_annotated(source, profile, top=args.top))
    if lab.line_budgets:
        violations = check_line_budgets(lab.line_budgets, profile, source)
        if violations:
            print("\nline-budget violations:")
            for violation in violations:
                print(f"  {violation.describe()}")
            return 1
        print(f"\nall {len(lab.line_budgets)} line budget(s) satisfied")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webgpu-sim",
        description="WebGPU reproduction: labs, workers, and workload "
                    "simulation from the IPDPS-W 2016 paper.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-labs", help="Table II course matrix") \
        .set_defaults(fn=cmd_list_labs)

    show = sub.add_parser("show-lab", help="one lab's manual and config")
    show.add_argument("slug")
    show.add_argument("--skeleton", action="store_true",
                      help="also print the starter code")
    show.set_defaults(fn=cmd_show_lab)

    run = sub.add_parser("run-lab", help="compile+run a source against "
                                         "a lab's datasets")
    run.add_argument("slug")
    run.add_argument("--source", help="path to a CUDA-C file "
                                      "(default: reference solution)")
    run.add_argument("--dataset", type=int, default=None,
                     help="single dataset index (default: all)")
    run.add_argument("--profile", action="store_true",
                     help="print the kernel profile counters")
    run.set_defaults(fn=cmd_run_lab)

    sub.add_parser("funnel", help="Table I enrollment funnel") \
        .set_defaults(fn=cmd_funnel)
    sub.add_parser("figure1", help="Figure 1 activity trace summary") \
        .set_defaults(fn=cmd_figure1)

    occ = sub.add_parser("occupancy", help="occupancy calculator")
    occ.add_argument("threads", type=int)
    occ.add_argument("--shared", type=int, default=0,
                     help="shared memory bytes per block")
    occ.set_defaults(fn=cmd_occupancy)

    trace = sub.add_parser(
        "trace-attempt",
        help="trace one graded attempt end-to-end through the v2 "
             "broker path")
    trace.add_argument("slug")
    trace.add_argument("--source", help="path to a CUDA-C file "
                                        "(default: reference solution)")
    trace.add_argument("--workers", type=int, default=2,
                       help="worker fleet size (default 2)")
    trace.add_argument("--trace-out", default=None,
                       help="write the trace spans to this JSONL file")
    trace.add_argument("--tag", default=None,
                       help="slice the stage breakdown by one "
                            "requirement tag (e.g. mpi+multi-gpu); "
                            "stages the tag never hit print explicit "
                            "zero rows")
    trace.add_argument("--exemplar-percentile", type=float, default=0.95,
                       help="tail-sampling knob: keep a trace exemplar "
                            "only when the stage latency is at or above "
                            "this percentile of its series (default "
                            "0.95)")
    trace.set_defaults(fn=cmd_trace_attempt)

    prof = sub.add_parser(
        "profile-attempt",
        help="run one attempt with the line profiler on and print the "
             "annotated hot-line listing")
    prof.add_argument("slug")
    prof.add_argument("--source", help="path to a CUDA-C file "
                                       "(default: reference solution)")
    prof.add_argument("--dataset", type=int, default=0,
                      help="dataset index to profile (default 0)")
    prof.add_argument("--engine", default=None, choices=ENGINES,
                      help="kernel engine (the ledger is "
                           "engine-invariant)")
    prof.add_argument("--top", type=int, default=5,
                      help="hot lines to summarize (default 5)")
    prof.set_defaults(fn=cmd_profile_attempt)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
