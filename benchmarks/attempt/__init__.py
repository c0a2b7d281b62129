"""The attempt benchmark: what one student attempt costs on a worker.

Four workloads, six end-to-end metrics timed by the slot-best method,
and a staged per-layer ledger; README.md has the definitions. The
names below are fixed: later performance and simplicity changes are
judged with them, so a change here is a change of the benchmark.
"""

#: Passes over the slot list at the default ``--seconds``; a slot's
#: latency is the minimum of its timings across the passes.
PASSES = 12
#: Fresh-process cold starts behind ``setup_s`` (three set-up-only
#: children plus the measuring process's own).
COLD_STARTS = 4
#: Repetitions of each staged call in the traced run (best is kept).
STAGED_REPS = 3
#: The ``--seconds`` at which a run makes :data:`PASSES` passes; slot
#: lists are sized so that this is about how long those passes take.
RUN_SECONDS = 20

WORKLOADS = ("catalog_grade", "edit_loop", "kernel_scale", "deadline_storm")

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "attempt_p50_ms": ("ms", "lower", 0.25),
    "attempt_p90_ms": ("ms", "lower", 0.25),
    "attempts_per_s": ("1/s", "higher", 0.25),
    "cpu_ms_per_attempt": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}

#: name -> (unit, better); layer names are ``repro`` module names.
#: Times are milliseconds per attempt, averaged over the workload.
PER_LAYER = {
    "sandbox.blacklist_ms": ("ms", "lower"),
    "minicuda.preprocess_ms": ("ms", "lower"),
    "minicuda.lex_ms": ("ms", "lower"),
    "minicuda.parse_ms": ("ms", "lower"),
    "minicuda.semantic_ms": ("ms", "lower"),
    "minicuda.tokens_per_attempt": ("count", "lower"),
    "minicuda.tokens_per_s": ("1/s", "higher"),
    "minicuda.engine_compile_ms": ("ms", "lower"),
    "minicuda.kernels_lowered_share": ("ratio", "higher"),
    "cache.kernel_memo_hit_ratio": ("ratio", "higher"),
    "gpusim.exec_ms": ("ms", "lower"),
    "gpusim.sim_instructions": ("count", "lower"),
    "gpusim.global_transactions": ("count", "lower"),
    "gpusim.sim_seconds": ("s", "lower"),
    "gpusim.sim_instr_per_host_s": ("1/s", "higher"),
    "wb.dataset_gen_ms": ("ms", "lower"),
    "wb.compare_ms": ("ms", "lower"),
    "cluster.process_ms": ("ms", "lower"),
    "cluster.unattributed_ms": ("ms", "lower"),
    "cluster.unattributed_share": ("ratio", "lower"),
    "cache.compile_hit_ms": ("ms", "lower"),
    "cache.compile_hit_ratio": ("ratio", "higher"),
    "cache.result_hit_ratio": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "cluster.result_cache_fetch_ms": ("ms", "lower"),
    "cluster.result_cache_store_ms": ("ms", "lower"),
    "broker.publish_ms": ("ms", "lower"),
    "broker.deliver_ms": ("ms", "lower"),
    "core.attempt_ms": ("ms", "lower"),
    "core.save_code_ms": ("ms", "lower"),
    "core.grade_ms": ("ms", "lower"),
    "core.submit_overhead_ms": ("ms", "lower"),
    "process.import_ms": ("ms", "lower"),
    "process.build_ms": ("ms", "lower"),
    "process.warmup_ms": ("ms", "lower"),
    "telemetry.trace_overhead_share": ("ratio", "lower"),
}
