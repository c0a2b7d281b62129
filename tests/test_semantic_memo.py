"""Semantic analysis per definition: ``repro.minicuda.semantic.FACTS``.

Each function definition's check is held under its span at its position
and reused while every file-scope name it read answers the same. A
memoized analysis must equal a cold one in everything it returns or
raises: the diagnostics' full text, ``kernels``, ``device_functions``,
``host_functions``, ``constants``, ``calls`` and ``barrier_functions``.
"""

from __future__ import annotations

import pytest

from benchmarks.attempt.workloads import Nonces
from benchmarks.attempt.workloads import edit_loop as edit_loop_workload
from repro.cache.memo import MemoTable
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import parse, semantic
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.preprocessor import preprocess
from tests.test_parse_definitions import (
    CATALOG,
    EXAMPLES,
    TYPEDEFS,
    analysis,
    cold_analysis,
    memo_bytes,
    new_facts,
)


@pytest.fixture
def facts(monkeypatch: pytest.MonkeyPatch) -> MemoTable:
    memo = new_facts()
    monkeypatch.setattr(semantic, "FACTS", memo)
    return memo


def analysed(text: str) -> tuple:
    return analysis(parse(text, TYPEDEFS))


# -- every diagnostic, cold and warm ---------------------------------------------

DEEP_IF = "void f(int x) {" + " if (x)" * 70 + " x = 1; }"

MATRIX = {
    "redefinition": ("void f() {}\nvoid f() {}",
                     "error: 2:1: redefinition of function 'f'"),
    "kernel-return": ("__global__ int k() { return 1; }",
                      "error: 1:1: kernel 'k' must return void"),
    "file-scope-shared": (
        "__shared__ float buf[8];\nvoid f() {}",
        "error: 1:1: __shared__ variable 'buf' not allowed at file scope"),
    "duplicate-parameter": ("void f(int a, int a) {}",
                            "error: 1:1: duplicate parameter 'a'"),
    "host-shared": ("int main() { __shared__ float s[4]; return 0; }",
                    "error: 1:14: __shared__ is only allowed in device code"),
    "redeclaration": ("void f() { int a; float a; }",
                      "error: 1:19: redeclaration of 'a'"),
    "void-return": ("void f() { return 3; }",
                    "error: 1:12: void function 'f' returns a value"),
    "break": ("void f() { break; }", "error: 1:12: break outside of a loop"),
    "continue-acc": (
        "void f(int n) {\n#pragma acc parallel loop\n"
        "  for (int i = 0; i < n; i++) { continue; }\n}",
        "error: 3:33: continue out of an OpenACC loop"),
    "acc-in-device": (
        "__global__ void k(int n) {\n#pragma acc parallel loop\n"
        "  for (int i = 0; i < n; i++) {}\n}",
        "error: 2:1: OpenACC directives are host-side only"),
    "acc-shape": (
        "void f(int n) {\n#pragma acc parallel loop\n"
        "  for (int i = 0; n > i; i++) {}\n}",
        "error: 2:1: OpenACC loop must be canonical: "
        "for (int i = start; i < end; i++)"),
    "acc-step": (
        "void f(int n) {\n#pragma acc parallel loop\n"
        "  for (int i = 0; i < n; i += 2) {}\n}",
        "error: 2:1: OpenACC loop step must be i++ (stride 1)"),
    "undeclared": ("void f() { x = 1; }",
                   "error: 1:12: use of undeclared identifier 'x'"),
    "launch-in-device": (
        "__global__ void k() {}\n__global__ void g() { k<<<1, 1>>>(); }",
        "error: 2:23: kernel launch inside device code is not supported"),
    "unknown-kernel": ("int main() { nope<<<1, 1>>>(); return 0; }",
                       "error: 1:14: launch of unknown kernel 'nope'"),
    "launch-arity": (
        "__global__ void k(int a, int b) {}\n"
        "int main() { k<<<1, 1>>>(1); return 0; }",
        "error: 2:14: kernel 'k' expects 2 argument(s), got 1"),
    "address": ("void f(int a) { int *p = &(a + 1); }",
                "error: 1:26: cannot take the address of this expression"),
    "incdec-lvalue": ("void f(int a) { (a + 1)++; }",
                      "error: 1:24: operand of ++ must be an lvalue"),
    "assign-lvalue": ("void f(int a) { (a + 1) = 2; }",
                      "error: 1:18: assignment target is not an lvalue"),
    "array-assign": ("float t[4];\nvoid f(float *p) { t = p; }",
                     "error: 2:20: array type is not assignable"),
    "void-value": (
        "__device__ void s() {}\n__global__ void k(int *o) { o[0] = s(); }",
        "error: 2:36: void value not ignored as it ought to be"),
    "barrier-value": ("__global__ void k() { int v = __syncthreads(); }",
                      "error: 1:31: void value not ignored as it ought to be"),
    "function-arity": (
        "__device__ float f(float a, float b) { return a; }\n"
        "__global__ void k() { f(1.0f); }",
        "error: 2:23: function 'f' expects 2 argument(s), got 1"),
    "builtin-arity": (
        "__global__ void k(float *a) { atomicAdd(a); }",
        "error: 1:31: builtin 'atomicAdd' expects 2 argument(s), got 1"),
    "unknown-device": ("__global__ void k() { frob(); }",
                       "error: 1:23: call to unknown device function 'frob'"),
    "unknown-host": ("int main() { frob(); return 0; }",
                     "error: 1:14: call to unknown host function 'frob'"),
    "kernel-hint": (
        "__global__ void k() {}\nint main() { k(); return 0; }",
        "error: 2:14: call to unknown host function 'k' "
        "(kernels are launched with <<<...>>>)"),
    "host-hint": (
        "void h() {}\n__global__ void k() { h(); }",
        "error: 2:23: call to unknown device function 'h' "
        "(host functions cannot be called from device code)"),
    "expr-depth": ("int f(int x) { return " + "x + " * 300 + "x; }",
                   "error: 1:23: program is nested too deeply"),
    "nesting": (DEEP_IF, "error: 1:465: program is nested too deeply"),
    "loop-nesting": ("void f(int x) {" + " while (x)" * 17 + " x = 1; }",
                     "error: 1:177: program is nested too deeply"),
    # the top level's first, then each function's, in file order
    "in-order": (
        "void g() { y = 1; }\n__global__ int k() { z = 1; }\n"
        "void g() { w = 1; }",
        "error: 3:1: redefinition of function 'g'\n"
        "error: 2:1: kernel 'k' must return void\n"
        "error: 1:12: use of undeclared identifier 'y'\n"
        "error: 2:22: use of undeclared identifier 'z'\n"
        "error: 3:12: use of undeclared identifier 'w'"),
    # a stop drops what was found before it, and the functions after it
    "stop": ("void a() { x = 1; }\n" + DEEP_IF + "\nvoid b() { 1 = 2; }",
             "error: 2:465: program is nested too deeply"),
}


@pytest.mark.parametrize("name", MATRIX)
@pytest.mark.usefixtures("facts")
def test_each_diagnostic_is_the_same_cold_and_warm(name):
    source, expected = MATRIX[name]
    hits = semantic.FACTS.stats.hits
    assert analysed(source) == ("error", expected)
    assert semantic.FACTS.stats.hits == hits  # cold
    assert analysed(source) == ("error", expected)
    assert semantic.FACTS.stats.hits > hits  # warm


def test_the_matrix_names_every_message_the_analyzer_emits():
    """Each message literal of ``semantic.py`` is in some expected text."""
    import ast as pyast
    import inspect

    tree = pyast.parse(inspect.getsource(semantic))
    messages = set()
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Call) and getattr(
                node.func, "attr", None) == "error" and node.args:
            first = node.args[0]
            if isinstance(first, pyast.Name):  # a module constant
                messages.add(getattr(semantic, first.id))
            # each literal part of the message, up to its first field
            for part in (first.values if isinstance(first, pyast.JoinedStr)
                         else [first]):
                if isinstance(part, pyast.Constant) and part.value.strip():
                    messages.add(part.value.strip())
    expected = "\n".join(text for _, text in MATRIX.values())
    assert len(messages) > 20
    assert [m for m in messages if m not in expected] == []


# -- what a held check depends on -------------------------------------------------

#: The kernel qualifier, for the programs below that compile: a test
#: string that holds it whole joins the kernel census
#: (``tests/census.py``), and these exercise the analyzer alone.
GLOBAL = "__global__"


def differs_and_matches_cold(first: str, second: str,
                             reused: bool) -> tuple:
    """Analyse ``first``, then ``second`` — which holds one of its
    definitions at the same place — on the memo ``first`` warmed, and
    return both outcomes; ``second``'s must equal a cold analysis of it.
    ``reused``: whether the shared definition's facts still held."""
    warm_first = analysed(first)
    hits = semantic.FACTS.stats.hits
    unit = parse(second, TYPEDEFS)
    warm = analysis(unit)
    assert warm == cold_analysis(unit)
    assert (semantic.FACTS.stats.hits > hits) == reused
    return warm_first, warm


@pytest.mark.usefixtures("facts")
class TestDependencies:
    CALLER = "__global__ void k(float *o) { o[0] = f(1.0f); }"

    def test_a_callees_arity(self):
        first, second = differs_and_matches_cold(
            "__device__ float f(float a) { return a; }\n" + self.CALLER,
            "__device__ float f(float a, float b) { return a; }\n"
            + self.CALLER, reused=False)
        assert first[0] == "ok"
        assert second == ("error", "error: 2:38: function 'f' expects 2 "
                                   "argument(s), got 1")

    def test_a_callees_voidness_used_as_a_value(self):
        first, second = differs_and_matches_cold(
            "__device__ float f(float a) { }\n" + self.CALLER,
            "__device__ void f(float a) { }\n" + self.CALLER, reused=False)
        assert first[0] == "ok"
        assert second == ("error", "error: 2:38: void value not ignored as "
                                   "it ought to be")

    USER = "void f(float *p) { t = p; }"

    def test_a_global_turning_into_an_array(self):
        first, second = differs_and_matches_cold(
            "float *t;\n" + self.USER, "float t[4];\n" + self.USER,
            reused=False)
        assert first[0] == "ok"
        assert second == ("error", "error: 2:20: array type is not "
                                   "assignable")

    def test_a_global_disappearing(self):
        first, second = differs_and_matches_cold(
            "float *t;\n" + self.USER, "int u;\n" + self.USER, reused=False)
        assert first[0] == "ok"
        assert second == ("error", "error: 2:20: use of undeclared "
                                   "identifier 't'")

    def test_a_global_shadowed_by_a_local_is_not_read(self):
        user = "void f(float *p) { float *t; t = p; }"
        first, second = differs_and_matches_cold(
            "float *t;\n" + user, "float t[4];\n" + user, reused=True)
        assert first[0] == second[0] == "ok"

    def test_a_parameter_shadows_a_global(self):
        user = "void f(float *t, float *p) { t = p; }"
        first, second = differs_and_matches_cold(
            "int t;\n" + user, "float t[4];\n" + user, reused=True)
        assert first[0] == second[0] == "ok"

    LAUNCH = "int main() { k<<<1, 1>>>(1); return 0; }"

    def test_a_kernels_arity_at_a_launch(self):
        first, second = differs_and_matches_cold(
            f"{GLOBAL} void k(int a) {{}}\n" + self.LAUNCH,
            f"{GLOBAL} void k(int a, int b) {{}}\n" + self.LAUNCH,
            reused=False)
        assert first[0] == "ok"
        assert second == ("error", "error: 2:14: kernel 'k' expects 2 "
                                   "argument(s), got 1")

    def test_the_launch_hint(self):
        call = "int main() { k(); return 0; }"
        first, second = differs_and_matches_cold(
            f"{GLOBAL} void j() {{}}\n" + call,
            f"{GLOBAL} void k() {{}}\n" + call, reused=False)
        assert first == ("error", "error: 2:14: call to unknown host "
                                  "function 'k'")
        assert second[1].endswith("(kernels are launched with <<<...>>>)")

    def test_the_host_function_hint(self):
        call = "__global__ void k() { h(); }"
        first, second = differs_and_matches_cold(
            "int g() { return 0; }\n" + call, "int h() { return 0; }\n" + call,
            reused=False)
        assert first == ("error", "error: 2:23: call to unknown device "
                                  "function 'h'")
        assert second[1].endswith(
            "(host functions cannot be called from device code)")

    KERNEL = "__global__ void k() { s(); }"

    @pytest.mark.parametrize("gains", [True, False])
    def test_a_callee_gaining_or_losing_a_barrier(self, gains):
        plain = "__device__ void s() { int a = 1; }\n" + self.KERNEL
        synced = "__device__ void s() { __syncthreads(); }\n" + self.KERNEL
        first, second = differs_and_matches_cold(
            *((plain, synced) if gains else (synced, plain)), reused=True)
        assert first[-1] == ({"s", "k"} if not gains else set())
        assert second[-1] == ({"s", "k"} if gains else set())

    def test_a_stop_replays_at_the_same_function(self):
        stop = "\n" + DEEP_IF + "\nvoid b() { 1 = 2; }"
        first, second = differs_and_matches_cold(
            "void a() { x = 1; }" + stop, "void a() { y = 1; }" + stop,
            reused=True)
        assert first == second == (
            "error", "error: 2:465: program is nested too deeply")

    def test_a_unit_without_source_text_is_checked_without_the_memo(self):
        unit = parse("void f() {}", TYPEDEFS)
        unit.source = ""
        stores = semantic.FACTS.stats.stores
        assert analysis(unit)[0] == "ok"
        assert semantic.FACTS.stats.stores == stores
        assert len(semantic.FACTS) == 0

    def test_other_typedefs_miss(self):
        text = "void f(FILE *p) {}"
        misses = semantic.FACTS.stats.misses
        assert analysis(parse(text, TYPEDEFS))[0] == "ok"
        assert analysis(parse(text, TYPEDEFS | {"myHandle_t"}))[0] == "ok"
        assert semantic.FACTS.stats.misses == misses + 2


# -- memoized equals cold -----------------------------------------------------------

def _programs() -> list[str]:
    texts = [path.read_text() for path in EXAMPLES]
    for lab in CATALOG:
        texts += [lab.solution, lab.skeleton]
    texts += [buggy_source(mutation) for mutation in MUTATIONS]
    return [preprocess(text) for text in texts]


def test_every_program_analyses_as_it_does_cold(facts):
    """Every catalog solution, skeleton and mutation and every example,
    twice: the second pass is served from the memo."""
    programs = _programs()
    for _ in range(2):
        for text in programs:
            unit = parse(text, TYPEDEFS)
            assert analysis(unit) == cold_analysis(unit), text[:80]
    assert facts.stats.hits >= facts.stats.misses


#: The most bytes :data:`semantic.FACTS` may take per unit it weighs:
#: its digests, records and bookkeeping, reached from its entries. One
#: ``edit_loop`` pass reads 77; twelve read 79-92 at caps of 4-8 K
#: units, as the tables' hash tables grow in steps.
BYTES_PER_WEIGHT = 95


def test_every_edit_loop_attempt_analyses_as_it_does_cold(facts):
    """The compile-button workload, in one pass's order with fresh
    nonces, each attempt on the memo the attempts before it left; what
    the memo then holds costs at most its bound per weighed unit."""
    from benchmarks.attempt.measure import pass_order
    workload = edit_loop_workload(7)
    nonces = Nonces(7, "edit_loop")
    analysed_count = 0
    for slot in pass_order(workload.slots, 7, 0):
        for attempt in slot.attempts:
            try:
                unit = parse(preprocess(nonces.apply(attempt)), TYPEDEFS)
            except CompileError:
                continue
            analysed_count += 1
            assert analysis(unit) == cold_analysis(unit), slot.name
    assert analysed_count > 100 and facts.stats.hits > 0
    weighed = facts.policy.total_bytes
    assert weighed > 0.5 * facts.policy.max_bytes
    assert memo_bytes(facts) <= BYTES_PER_WEIGHT * weighed


# -- what the memo holds, and at what cost --------------------------------------

def test_the_memo_is_capped_by_weight(facts):
    for n in range(600):
        analysed(f"void g{n}(int a) {{ a = h{n}(a, b{n}); }}")
    assert facts.policy.total_bytes <= facts.policy.max_bytes
    assert facts.stats.snapshot()["evictions"] > 0


def test_lookups_are_counted_under_their_own_name(facts):
    lookups = facts.telemetry.metrics.counter("webgpu_cache_lookups_total")
    hits = lookups.value(cache="semantic", outcome="hit")
    misses = lookups.value(cache="semantic", outcome="miss")
    text = "int f(int a) { return a; }\nint g() { return f(1); }"
    analysed(text)
    analysed(text)
    assert lookups.value(cache="semantic", outcome="miss") == misses + 2
    assert lookups.value(cache="semantic", outcome="hit") == hits + 2
    # a held check whose reads no longer hold is a miss, not a hit
    analysed(text.replace("int f(int a)", "int f(int a, int b)"))
    assert lookups.value(cache="semantic", outcome="hit") == hits + 2
    assert lookups.value(cache="semantic", outcome="miss") == misses + 4
