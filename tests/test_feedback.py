"""Automated feedback and on-demand hints (the paper's future work)."""

import pytest

from repro.cluster import GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.core import WebGPU
from repro.core.course import CourseOffering
from repro.core.feedback import FeedbackEngine, HintService
from repro.db import Database
from repro.labs import get_lab

VECADD = get_lab("vector-add")
TILED = get_lab("tiled-matmul")


@pytest.fixture(scope="module")
def worker():
    return GpuWorker(WorkerConfig(), clock=ManualClock())


def analyze(worker, lab, source, kind=JobKind.RUN_DATASET):
    result = worker.process(Job(lab=lab, source=source, kind=kind))
    return FeedbackEngine().analyze(lab, result)


def categories(feedback):
    return {f.category for f in feedback}


class TestCompileFeedback:
    def test_undeclared_identifier_names_the_symbol(self, worker):
        bad = VECADD.solution.replace("int i =", "int j =")
        feedback = analyze(worker, VECADD, bad)
        assert categories(feedback) == {"compile"}
        assert any("'i'" in f.message for f in feedback)

    def test_blacklist_explained(self, worker):
        evil = VECADD.solution.replace(
            "out[i] = in1[i] + in2[i];", 'asm("hlt");')
        feedback = analyze(worker, VECADD, evil)
        assert categories(feedback) == {"security"}
        assert "inline assembly" in feedback[0].message

    def test_kernel_called_like_function(self, worker):
        bad = VECADD.solution.replace(
            "vecAdd<<<dimGrid, dimBlock>>>(deviceInput1, deviceInput2, "
            "deviceOutput,\n                                inputLength);",
            "vecAdd(deviceInput1, deviceInput2, deviceOutput, inputLength);")
        feedback = analyze(worker, VECADD, bad)
        assert any("<<<grid, block>>>" in f.message for f in feedback)


class TestRuntimeFeedback:
    def test_missing_boundary_check_hint(self, worker):
        # removing the guard overruns the buffer on a non-multiple size
        bad = VECADD.solution.replace(
            "if (i < len) {\n    out[i] = in1[i] + in2[i];\n  }",
            "out[i] = in1[i] + in2[i];")
        result = worker.process(Job(lab=VECADD, source=bad,
                                    dataset_index=1))
        feedback = FeedbackEngine().analyze(VECADD, result)
        assert any("boundary check" in f.message for f in feedback)

    def test_barrier_divergence_hint(self, worker):
        bad = TILED.solution.replace(
            "    __syncthreads();\n    for (int k = 0;",
            "    if (tx == 0) __syncthreads();\n    for (int k = 0;")
        feedback = analyze(worker, TILED, bad)
        assert any("every thread of the block" in f.message
                   for f in feedback)

    def test_host_device_confusion_hint(self, worker):
        bad = VECADD.solution.replace(
            "cudaMemcpy(hostOutput, deviceOutput, inputLength * "
            "sizeof(float),\n             cudaMemcpyDeviceToHost);",
            "hostOutput[0] = deviceOutput[0];")
        feedback = analyze(worker, VECADD, bad)
        assert any("cudaMemcpy" in f.message for f in feedback)

    def test_timeout_hint(self, worker):
        import dataclasses
        lab = dataclasses.replace(
            VECADD, run_limit_s=0.2)
        bad = VECADD.solution.replace(
            'wbLog(TRACE, "The input length is ", inputLength);',
            "while (1) { inputLength = inputLength; }")
        feedback = analyze(worker, lab, bad)
        assert any("time limit" in f.message for f in feedback)


class TestCorrectnessFeedback:
    def test_total_mismatch_points_at_algorithm(self, worker):
        bad = VECADD.solution.replace("in1[i] + in2[i]", "in1[i] - in2[i]")
        result = worker.process(Job(lab=VECADD, source=bad,
                                    dataset_index=3))
        feedback = FeedbackEngine().analyze(VECADD, result)
        assert any("core" in f.message for f in feedback)

    def test_partial_mismatch_points_at_boundary(self, worker):
        bad = VECADD.solution.replace("if (i < len)", "if (i < len - 1)")
        result = worker.process(Job(lab=VECADD, source=bad,
                                    dataset_index=3))
        feedback = FeedbackEngine().analyze(VECADD, result)
        assert any("boundary" in f.message for f in feedback)

    def test_missing_wbsolution(self, worker):
        bad = VECADD.solution.replace(
            "wbSolution(args, hostOutput, inputLength);", "")
        feedback = analyze(worker, VECADD, bad)
        assert any("wbSolution" in f.message for f in feedback)

    def test_correct_efficient_solution_gets_no_feedback(self, worker):
        feedback = analyze(worker, VECADD, VECADD.solution)
        assert feedback == []


class TestPerformanceFeedback:
    def test_uncoalesced_access_detected(self, worker):
        # column-major indexing: consecutive threads stride by width
        bad = get_lab("basic-matmul").solution.replace(
            "int row = blockIdx.y * blockDim.y + threadIdx.y;\n"
            "  int col = blockIdx.x * blockDim.x + threadIdx.x;",
            "int row = blockIdx.y * blockDim.y + threadIdx.x;\n"
            "  int col = blockIdx.x * blockDim.x + threadIdx.y;")
        result = worker.process(Job(lab=get_lab("basic-matmul"), source=bad,
                                    dataset_index=2))
        feedback = FeedbackEngine().analyze(get_lab("basic-matmul"), result)
        assert any("uncoalesced" in f.message for f in feedback)


class TestHintService:
    def test_staged_hints(self):
        service = HintService(Database())
        first = service.next_hint(1, VECADD)
        second = service.next_hint(1, VECADD)
        assert first != second
        assert "blockIdx" in first
        assert service.hints_taken(1, "vector-add") == 2

    def test_hints_exhaust(self):
        service = HintService(Database())
        total = len(service.hints_for(VECADD))
        for _ in range(total):
            assert service.next_hint(1, VECADD) is not None
        assert service.next_hint(1, VECADD) is None

    def test_hints_per_user(self):
        service = HintService(Database())
        service.next_hint(1, VECADD)
        assert service.hints_taken(2, "vector-add") == 0

    def test_generic_hints_for_unlisted_lab(self):
        service = HintService(Database())
        hint = service.next_hint(1, get_lab("spmv"))
        assert hint is not None


class TestPlatformIntegration:
    def test_feedback_and_hints_through_platform(self):
        clock = ManualClock()
        platform = WebGPU(clock=clock)
        course = platform.create_course(
            CourseOffering(code="HPP", year=2015), ["vector-add"])
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)

        # before any attempt: informational message
        feedback = platform.get_feedback("HPP-2015", student, "vector-add")
        assert feedback[0].category == "info"

        # a failing attempt gets targeted feedback
        bad = VECADD.solution.replace("in1[i] + in2[i]", "in1[i]")
        platform.save_code("HPP-2015", student, "vector-add", bad)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add", 3)
        feedback = platform.get_feedback("HPP-2015", student, "vector-add")
        assert any(f.category == "correctness" for f in feedback)

        # on-demand hints, usage visible to the platform
        hint = platform.request_hint("HPP-2015", student, "vector-add")
        assert hint is not None
        assert platform.hints.hints_taken(student.user_id,
                                          "vector-add") == 1


def _without_launch(source):
    """VECADD computed on the host: no kernel runs, so no profile."""
    start = source.index("vecAdd<<<")
    source = source[:start] + source[source.index(";", start) + 1:]
    return source.replace(
        "wbSolution(", "for (int q = 0; q < inputLength; q++) "
        "hostOutput[q] = hostInput1[q] + hostInput2[q];\n  wbSolution(")


#: id -> (VECADD's solution -> the attempt, dataset, the category and a
#: phrase of the advice it gets)
RULES = {
    "argument-count": (lambda s: s.replace(
        "(deviceInput1, deviceInput2, deviceOutput,",
        "(deviceInput1, deviceInput2,"), 0, "compile", "argument count"),
    "shared-in-host-code": (lambda s: s.replace(
        "int main(int argc, char **argv) {",
        "int main(int argc, char **argv) {\n  __shared__ float junk[4];"),
        0, "compile", "only exists inside device code"),
    "any-other-compile-error": (lambda s: s.replace("int i =", "int i = ="),
                                0, "compile", "top-down"),
    "forbidden-system-call": (lambda s: s.replace(
        "cudaDeviceSynchronize();",
        'cudaDeviceSynchronize(); fopen("/etc/shadow", "r");'), 0,
        "security", "system call outside the lab's whitelist"),
    "kernel-given-a-host-pointer": (lambda s: s.replace(
        "(deviceInput1, deviceInput2, deviceOutput,",
        "(hostInput1, deviceInput2, deviceOutput,"), 0, "runtime",
        "received a host pointer"),
    "any-other-crash": (lambda s: s.replace(
        'wbLog(TRACE, "The input length is ", inputLength);',
        "int zz = 0; inputLength = inputLength / zz;"), 0, "runtime",
        "crashed: integer division by zero"),
    "bank-conflicts": (lambda s: s.replace(
        "    out[i] = in1[i] + in2[i];",
        "    __shared__ float t[8192];\n"
        "    t[(threadIdx.x * 32) % 8192] = in1[i] + in2[i];\n"
        "    out[i] = t[(threadIdx.x * 32) % 8192];"), 1, "perf",
        "bank conflicts are serialising"),
    "atomic-contention": (lambda s: s.replace(
        "    out[i] = in1[i] + in2[i];",
        "    atomicAdd(&in1[0], 0.0f);\n    out[i] = in1[i] + in2[i];"), 1,
        "perf", "hit the same address with atomics"),
    "global-loads-of-one-line": (lambda s: s.replace(
        "    out[i] = in1[i] + in2[i];",
        "    float t = in1[(i * 37) % len];\n"
        "    out[i] = in1[i] + in2[i] + t * 0.0f;"), 3, "perf",
        "global-load transactions"),
}


@pytest.mark.parametrize("name", RULES)
def test_each_rule_through_a_program(name):
    attempt, dataset, category, phrase = RULES[name]
    worker = GpuWorker(WorkerConfig(line_profile=True), clock=ManualClock())
    result = worker.process(Job(lab=VECADD, source=attempt(VECADD.solution),
                                dataset_index=dataset))
    feedback = FeedbackEngine().analyze(VECADD, result)
    assert any(f.category == category and phrase in f.message
               for f in feedback), feedback


def test_a_correct_run_without_a_kernel_gets_no_advice(worker):
    assert analyze(worker, VECADD, _without_launch(VECADD.solution)) == []
