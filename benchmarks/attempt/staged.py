"""The traced run: staged replay of every attempt, layer by layer.

The benchmark itself performs each attempt as a chain of calls into the
layers' public functions — the stages the worker docstring lists, each
run once — and records a span around every call. A stage's time for an
attempt is the best of :data:`STAGED_REPS` repetitions, and so is the
time of the real attempt run right beside them. What the real attempt
costs beyond the sum of its stages (the front end the worker
re-runs per dataset, sandbox and telemetry book-keeping, job plumbing)
is the *unattributed* row of the ledger: printed, never hidden.

Spans live in memory and are written to ``trace.jsonl`` at the end;
nothing inside ``repro`` is instrumented or patched.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any

from benchmarks.attempt import PER_LAYER, STAGED_REPS
from benchmarks.attempt.measure import Failures, timed_passes
from repro.cache.keys import hash_text
from repro.cluster.job import Job, JobKind
from repro.cluster.worker import STEPS_PER_LIMIT_SECOND
from repro.gpusim import Device, GpuRuntime
from repro.labs import EvaluationMode
from repro.minicuda import (CompileError, CompiledProgram, HostEnv, analyze,
                            parse, preprocess, resolve_engine, tokenize)
from repro.minicuda.codegen import KERNEL_CACHE
from repro.minicuda.compiler import EXTRA_TYPEDEFS
from repro.minicuda.parser import DEFAULT_TYPEDEFS
from repro.mpisim import run_mpi
from repro.sandbox import SyscallGate
from repro.sandbox.blacklist import BlacklistViolation
from repro.wb.comparison import compare_solution

#: Untraced/traced pass pairs behind ``telemetry.trace_overhead_share``
#: and the cache hit ratios.
REAL_PAIRS = 2
TYPEDEFS = frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS
#: Where each compiled kernel engine lives (``ast`` compiles nothing).
ENGINE_BACKENDS = {"closure": "repro.minicuda.codegen",
                   "codegen": "repro.minicuda.srcgen",
                   "simd": "repro.minicuda.simd"}


class Spans:
    """In-memory span log: (id, parent, attempt, name, start, end)."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, int, str, float, float]] = []
        self.attempt = 0
        self._open: list[int] = []
        self._ids = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations_since(self, index: int) -> dict[str, float]:
        """Seconds per span name over the rows appended from ``index``."""
        sums: dict[str, float] = {}
        for _id, _parent, _attempt, name, start, end in self.rows[index:]:
            sums[name] = sums.get(name, 0.0) + (end - start)
        return sums

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span_id, parent, attempt, name, start, end in self.rows:
                out.write(json.dumps({
                    "span": span_id, "parent": parent, "attempt": attempt,
                    "name": name, "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("log", "name", "span_id", "parent", "start")

    def __init__(self, log: Spans, name: str):
        self.log = log
        self.name = name

    def __enter__(self) -> "_Span":
        log = self.log
        log._ids += 1
        self.span_id = log._ids
        self.parent = log._open[-1] if log._open else 0
        log._open.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter()
        log = self.log
        log._open.pop()
        log.rows.append((self.span_id, self.parent, log.attempt, self.name,
                         self.start, end))
        return False


# -- one attempt on a worker, stage by stage --------------------------------

def run_program(lab: Any, program: CompiledProgram, data: Any, config: Any,
                engine: str, max_steps: int) -> tuple[Any, list, str]:
    """Host time in ``run_main`` / ``launch``: execute an already
    compiled program on one dataset the way ``execute_lab_source``
    does for the lab's mode. Returns (answer, kernel stats, stdout)."""
    spec = config.gpu_spec
    if lab.mode is EvaluationMode.KERNEL_ONLY:
        runtime = GpuRuntime(Device(spec))
        inputs = [data.inputs[k] for k in sorted(data.inputs)]
        n = int(data.expected.size)
        buffers = [runtime.malloc_like(array) for array in inputs]
        out = runtime.malloc(n, data.expected.dtype)
        block = 128
        grid = (max(*(int(a.size) for a in inputs), n) + block - 1) // block
        stats = program.launch(runtime, lab.kernel_name, grid, block,
                               *[b.ptr() for b in buffers], out.ptr(), n,
                               max_steps=max_steps, engine=engine)
        return runtime.memcpy_dtoh(out), [stats], ""

    gate = SyscallGate(config.policy)

    def host_env() -> HostEnv:
        return HostEnv(datasets=dict(data.inputs),
                       stdout_hook=lambda _line: None,
                       syscall_hook=gate.invoke)

    if lab.mode is EvaluationMode.MPI:
        ranks = int(data.params.get("ranks", 4))
        envs = [host_env() for _ in range(ranks)]

        def rank_main(endpoint: Any) -> int:
            env = envs[endpoint.rank]
            env.mpi = endpoint
            return program.run_main(
                runtime=GpuRuntime(Device(spec, device_id=endpoint.rank)),
                host_env=env, max_steps=max_steps, engine=engine).exit_code

        run_mpi(ranks, rank_main)
    else:
        envs = [host_env()]
        program.run_main(runtime=GpuRuntime(Device(spec)), host_env=envs[0],
                         max_steps=max_steps, engine=engine)
    root = envs[0]
    return (root.solution.data if root.solution else None,
            [s for env in envs for _, s in env.kernel_launches],
            "\n".join(root.stdout + root.log))


def replay_on_worker(spans: Spans, runner: Any, attempt: Any, source: str,
                     facts: dict[str, float], nonces: Any = None) -> None:
    """Blacklist -> preprocess -> lex -> parse -> semantic -> engine
    compile -> per dataset: generate, execute, compare. Stops where the
    real pipeline would (a rejected or broken source never runs).
    ``nonces`` is only there to share the platform replay's signature."""
    lab, config = attempt.lab, runner.worker.config
    engine = resolve_engine(config.kernel_engine)
    try:
        with spans.span("sandbox.blacklist"):
            config.scanner.check(source)
        with spans.span("minicuda.preprocess"):
            text = preprocess(source)
        with spans.span("minicuda.lex"):
            tokens = tokenize(text)
        facts["tokens"] = len(tokens)
        with spans.span("minicuda.parse"):  # lexes again, then parses
            unit = parse(text, typedef_names=TYPEDEFS)
        with spans.span("minicuda.semantic"):
            info = analyze(unit)
    except (BlacklistViolation, CompileError):
        return
    if attempt.kind is JobKind.COMPILE_ONLY:
        return
    info.fingerprint = hash_text(text)
    program = CompiledProgram(source=source, preprocessed=text, info=info)
    if engine in ENGINE_BACKENDS:
        backend = importlib.import_module(ENGINE_BACKENDS[engine])
        with spans.span("minicuda.engine_compile"):
            lowered = [backend.compile_kernel(info, name)
                       for name in info.kernels]
        facts["kernels"] = len(lowered)
        facts["lowered"] = sum(kernel is not None for kernel in lowered)

    last = len(lab.dataset_sizes) - 1
    indices = (range(last + 1) if attempt.kind is JobKind.FULL_GRADING
               else [min(attempt.dataset_index, last)])
    max_steps = int(lab.run_limit_s * STEPS_PER_LIMIT_SECOND)
    for index in indices:
        with spans.span("wb.dataset_gen"):
            data = lab.dataset(index)
        try:
            with spans.span("gpusim.exec"):
                answer, stats, stdout = run_program(
                    lab, program, data, config, engine, max_steps)
        except Exception:  # the sandbox would classify it; here it ends
            continue       # this dataset's chain, as it does there
        with spans.span("wb.compare"):
            if lab.mode is EvaluationMode.STDOUT_MARKERS:
                all(marker in stdout for marker in lab.stdout_markers)
            else:
                compare_solution(data.expected, answer)
        facts["sim_instructions"] = facts.get("sim_instructions", 0) + sum(
            s.instructions for s in stats)
        facts["global_transactions"] = (
            facts.get("global_transactions", 0)
            + sum(s.global_load_transactions + s.global_store_transactions
                  for s in stats))
        facts["sim_seconds"] = facts.get("sim_seconds", 0.0) + sum(
            s.elapsed_seconds for s in stats)


# -- one attempt on the platform, stage by stage ----------------------------

def replay_on_platform(spans: Spans, runner: Any, attempt: Any, source: str,
                       facts: dict[str, float], nonces: Any) -> None:
    """save_code -> broker.publish -> WorkerDriver.step -> (grading
    only) Grader.grade + GradeBook.record. A nonced source misses the
    result cache, so its delivery contains a whole ``GpuWorker.process``:
    it goes under its own name, and that call is timed beside it."""
    # the next student: the real attempt beside this chain has just saved
    # the same source for attempt.student, and an identical save is a no-op
    platform = runner.platform
    user = runner.students[(attempt.student + 1) % len(runner.students)]
    slug = attempt.lab.slug
    runner.clock.advance(1.0)
    with spans.span("core.save_code"):
        platform.save_code(runner.course, user, slug, source)
    now = runner.clock.now()
    lab = platform.course(runner.course).lab(slug)

    def job(text: str) -> Job:
        return Job(lab=lab, source=text, kind=attempt.kind,
                   dataset_index=attempt.dataset_index, user=user.email,
                   course=runner.course, submitted_at=now)

    submitted = job(source)
    with spans.span("broker.publish"):
        platform.broker.publish(submitted, now)
    driver = platform.drivers[0]
    with spans.span("broker.deliver_miss" if attempt.nonced
                    else "broker.deliver"):
        result = driver.step()
    if attempt.kind is JobKind.FULL_GRADING:
        with spans.span("core.grade"):
            breakdown = platform.grader.grade(lab, result, {})
            platform.gradebook.record(user.user_id, breakdown, now)
    if attempt.nonced:
        again = job(nonces.apply(attempt))
        with spans.span("cluster.process"):
            driver.worker.process(again)


def time_cache_calls(spans: Spans, runner: Any, workload: Any,
                     nonces: Any, reps: int) -> dict[str, float]:
    """Best-of-``reps`` seconds of one CompileCache hit, one
    GradingResultCache fetch (hit) and one store (complete)."""
    best: dict[str, float] = {}

    def keep(name: str, start: int) -> None:
        seconds = spans.durations_since(start).get(name)
        if seconds is not None:
            best[name] = min(best.get(name, seconds), seconds)

    popular = [a for slot in workload.slots for a in slot.attempts
               if not a.nonced][:24]
    spans.attempt = 0
    stored = 0
    for _ in range(reps):
        start = len(spans.rows)
        for attempt in popular:
            with spans.span("cache.compile_hit"):
                runner.compile_cache.compile(attempt.source)
        keep("cache.compile_hit", start)
        if runner.result_cache is None:
            continue
        cache = runner.result_cache
        hits = []
        start = len(spans.rows)
        for attempt in popular:
            with spans.span("cluster.result_cache_fetch"):
                hits.append(cache.fetch(Job(
                    lab=attempt.lab, source=attempt.source, kind=attempt.kind,
                    dataset_index=attempt.dataset_index)))
        keep("cluster.result_cache_fetch", start)
        start = len(spans.rows)
        for attempt, hit in zip(popular, hits):
            stored += 1
            fresh = Job(lab=attempt.lab, kind=attempt.kind,
                        dataset_index=attempt.dataset_index,
                        source=f"{attempt.source}\n// stored {stored}\n")
            cache.fetch(fresh)  # a miss: this caller now owns the flight
            with spans.span("cluster.result_cache_store"):
                cache.complete(fresh, hit)
        keep("cluster.result_cache_store", start)
    return {name: seconds / len(popular) for name, seconds in best.items()}


# -- the traced run ----------------------------------------------------------

def cache_counters(runner: Any) -> dict[str, int]:
    counters = {"kernel_hits": KERNEL_CACHE.stats.hits,
                "kernel_misses": KERNEL_CACHE.stats.misses,
                "evictions": KERNEL_CACHE.stats.evictions}
    for label, cache in (("compile", runner.compile_cache),
                         ("result", runner.result_cache)):
        stats = cache.stats if cache is not None else None
        counters[f"{label}_hits"] = stats.hits if stats else 0
        counters[f"{label}_misses"] = stats.misses if stats else 0
        counters["evictions"] += stats.evictions if stats else 0
    return counters


def real_passes(spans: Spans, workload: Any, runner: Any, nonces: Any,
                seed: int, failures: Failures, pairs: int):
    """One pass to fill the caches, then untraced and traced passes in
    turn. Returns the slot-best seconds of each kind and how far the
    cache counters moved meanwhile (ratios are counted over real
    attempts, not over the replay)."""
    timed_passes(workload, runner, nonces, seed, 1, failures)
    before = cache_counters(runner)
    plain: dict[str, float] = {}
    traced: dict[str, float] = {}
    for pair in range(pairs):
        for slot_best, log in ((plain, None), (traced, spans)):
            wall, _cpu, _totals = timed_passes(
                workload, runner, nonces, seed, 1, failures,
                first_pass=1 + pair, spans=log)
            for name, (seconds,) in wall.items():
                slot_best[name] = min(slot_best.get(name, seconds), seconds)
    after = cache_counters(runner)
    return plain, traced, {key: after[key] - before[key] for key in after}


def replay_all(spans: Spans, workload: Any, runner: Any, nonces: Any,
               reps: int) -> tuple[dict[str, float], dict[str, float]]:
    """Replay every attempt ``reps`` times. Returns, summed over the
    workload, each stage's best seconds and the exact counts (tokens,
    kernels, simulated instructions...)."""
    replay = replay_on_platform if runner.on_platform else replay_on_worker
    stage_s: dict[str, float] = {}
    facts_sum: dict[str, float] = {}
    for slot in workload.slots:
        for attempt in slot.attempts:
            spans.attempt += 1
            best: dict[str, float] = {}
            for _ in range(reps):
                facts: dict[str, float] = {}
                start = len(spans.rows)
                # the real attempt right beside its stages, so that both
                # see the same neighbours and the ledger stays consistent
                with spans.span("attempt"):
                    runner.execute(attempt, nonces.apply(attempt))
                replay(spans, runner, attempt, nonces.apply(attempt), facts,
                       nonces)
                for name, seconds in spans.durations_since(start).items():
                    best[name] = min(best.get(name, seconds), seconds)
            for name, seconds in best.items():
                stage_s[name] = stage_s.get(name, 0.0) + seconds
            for name, value in facts.items():  # exact: any rep will do
                facts_sum[name] = facts_sum.get(name, 0) + value
    return stage_s, facts_sum


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Ledger rows, in pipeline order; each is a span name of the replay.
LEDGER_STAGES = (
    "sandbox.blacklist", "minicuda.preprocess", "minicuda.lex",
    "minicuda.parse", "minicuda.semantic", "minicuda.engine_compile",
    "wb.dataset_gen", "gpusim.exec", "wb.compare", "core.save_code",
    "broker.publish", "broker.deliver", "broker.deliver_miss", "core.grade")


def traced_run(workload: Any, runner: Any, nonces: Any, seed: int,
               failures: Failures, steps: dict[str, float], trace_out: str,
               quick: bool = False) -> dict[str, Any]:
    spans = Spans()
    reps = 1 if quick else STAGED_REPS
    plain, traced, moved = real_passes(
        spans, workload, runner, nonces, seed, failures,
        pairs=1 if quick else REAL_PAIRS)
    stage_s, facts = replay_all(spans, workload, runner, nonces, reps)
    cache_s = (time_cache_calls(spans, runner, workload, nonces, reps)
               if runner.compile_cache is not None else {})
    spans.write(trace_out)

    attempts = workload.attempts_per_pass
    on_platform = runner.on_platform
    hits = sum(not a.nonced for slot in workload.slots for a in slot.attempts)

    def ms(name: str) -> float:
        """Milliseconds per attempt, averaged over the workload."""
        return 1e3 * stage_s.get(name, 0.0) / attempts

    rows = {name: ms(name) for name in LEDGER_STAGES}
    # ``parse`` lexes before it parses: report the parser proper (where
    # lexing raised, parse never ran and there is nothing to subtract)
    rows["minicuda.parse"] = max(0.0, rows["minicuda.parse"]
                                 - rows["minicuda.lex"])
    total_ms = ms("attempt")
    unattributed = total_ms - sum(rows.values())
    ledger = {name: value for name, value in rows.items() if value}
    ledger["cluster.unattributed"] = unattributed
    ledger["total"] = total_ms

    metrics = {f"{name}_ms": value for name, value in rows.items()
               if name not in ("broker.deliver", "broker.deliver_miss")}
    metrics.update({
        "minicuda.tokens_per_attempt": ratio(facts.get("tokens", 0), attempts),
        "minicuda.tokens_per_s": ratio(
            facts.get("tokens", 0), stage_s.get("minicuda.lex", 0.0)),
        "minicuda.kernels_lowered_share": ratio(
            facts.get("lowered", 0), facts.get("kernels", 0)),
        "cache.kernel_memo_hit_ratio": ratio(
            moved["kernel_hits"],
            moved["kernel_hits"] + moved["kernel_misses"]),
        "gpusim.sim_instructions": facts.get("sim_instructions", 0),
        "gpusim.global_transactions": facts.get("global_transactions", 0),
        "gpusim.sim_seconds": facts.get("sim_seconds", 0.0),
        "gpusim.sim_instr_per_host_s": ratio(
            facts.get("sim_instructions", 0), stage_s.get("gpusim.exec", 0.0)),
        # the real GpuWorker.process: every attempt of a worker
        # workload, the misses of the storm
        "cluster.process_ms": ms("cluster.process") if on_platform
        else total_ms,
        "cluster.unattributed_ms": unattributed,
        "cluster.unattributed_share": ratio(unattributed, total_ms),
        "cache.compile_hit_ms": 1e3 * cache_s.get("cache.compile_hit", 0.0),
        "cache.compile_hit_ratio": ratio(
            moved["compile_hits"],
            moved["compile_hits"] + moved["compile_misses"]),
        "cache.result_hit_ratio": ratio(
            moved["result_hits"],
            moved["result_hits"] + moved["result_misses"]),
        "cache.evictions": moved["evictions"],
        "cluster.result_cache_fetch_ms": 1e3 * cache_s.get(
            "cluster.result_cache_fetch", 0.0),
        "cluster.result_cache_store_ms": 1e3 * cache_s.get(
            "cluster.result_cache_store", 0.0),
        # per delivered hit, not per attempt: what one cached answer costs
        "broker.deliver_ms": 1e3 * ratio(
            stage_s.get("broker.deliver", 0.0), hits if on_platform else 0),
        "core.attempt_ms": total_ms if on_platform else 0.0,
        "core.submit_overhead_ms": (
            total_ms - rows["core.save_code"] - rows["broker.deliver"]
            - rows["broker.deliver_miss"]) if on_platform else 0.0,
        "process.import_ms": 1e3 * steps["import"],
        "process.build_ms": 1e3 * (steps["build"] + steps["construct"]),
        "process.warmup_ms": 1e3 * sum(
            seconds for step, seconds in steps.items()
            if step.startswith("warmup.")),
        "telemetry.trace_overhead_share": ratio(
            sum(traced.values()) - sum(plain.values()), sum(plain.values())),
    })
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError("per-layer metric names drifted from PER_LAYER: "
                           f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    return {"metrics": {name: metrics[name] for name in PER_LAYER},
            "ledger": ledger, "spans": len(spans.rows),
            "slots": len(workload.slots), "attempts_per_pass": attempts,
            "digest": workload.digest()}
