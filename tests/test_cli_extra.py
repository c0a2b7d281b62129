"""Remaining CLI paths and small odds-and-ends coverage."""

import pytest

from repro.cli import main
from repro.web.views import render_questions_view
from repro.labs import get_lab


class TestCliRemainder:
    def test_figure1_summary(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "week" in out and "Thursday deadline" in out
        # ten weekly rows
        assert out.count("\n") >= 11

    def test_run_lab_all_datasets(self, capsys):
        assert main(["run-lab", "scatter-gather"]) == 0
        out = capsys.readouterr().out
        lab = get_lab("scatter-gather")
        assert out.count("PASS") == len(lab.dataset_sizes)

    def test_run_lab_openacc_extension(self, capsys):
        assert main(["run-lab", "openacc-vecadd", "--dataset", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_lab_raises_keyerror(self):
        with pytest.raises(KeyError):
            main(["show-lab", "nope"])

    def test_trace_attempt_prints_the_waterfall_and_writes_spans(
            self, capsys, tmp_path):
        spans = tmp_path / "spans.jsonl"
        assert main(["trace-attempt", "vector-add", "--tag", "cuda",
                     "--trace-out", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "tracing the reference solution" in out
        assert "grade: 90/100" in out
        assert "stage latency for tag 'cuda'" in out
        count = int(out.split("wrote ")[1].split(" span(s)")[0])
        assert count == len(spans.read_text().splitlines()) > 0

    def test_trace_attempt_of_a_given_source(self, capsys, tmp_path):
        source = tmp_path / "attempt.cu"
        source.write_text(get_lab("vector-add").skeleton)
        assert main(["trace-attempt", "vector-add",
                     "--source", str(source)]) == 0
        out = capsys.readouterr().out
        assert "grade:" in out and "stage latency (p50" in out

    def test_profile_attempt_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile-attempt", "vector-add", "--engine", "closur"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'closur'" in capsys.readouterr().err

    def test_profile_attempt_names_the_tier_that_ran(self, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        monkeypatch.delenv("WEBGPU_KERNEL_ENGINE", raising=False)
        assert main(["profile-attempt", "vector-add"]) == 0
        out = capsys.readouterr().out
        assert "kernel vecAdd: ran on simd\n" in out
        assert "declined" not in out
        # the same kernel through a device function: the warp tier
        # declines it, and says at which construct
        lab = get_lab("vector-add")
        assert "out[i] = in1[i] + in2[i];" in lab.solution
        probe = tmp_path / "probe.cu"
        probe.write_text(
            "__device__ float add(float a, float b) { return a + b; }\n"
            + lab.solution.replace("out[i] = in1[i] + in2[i];",
                                   "out[i] = add(in1[i], in2[i]);"))
        assert main(["profile-attempt", "vector-add",
                     "--source", str(probe)]) == 0
        out = capsys.readouterr().out
        assert ("kernel vecAdd: ran on codegen "
                "(simd declined: call to 'add')\n") in out
        # asked for the scalar tier: nothing declined anything
        assert main(["profile-attempt", "vector-add", "--source",
                     str(probe), "--engine", "codegen"]) == 0
        out = capsys.readouterr().out
        assert "kernel vecAdd: ran on codegen\n" in out

    def test_profile_attempt_names_the_demoting_conflict(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("WEBGPU_KERNEL_ENGINE", raising=False)
        # thread 0 reads what block 1 stored, in the same statement
        # block 0 stores its own share: a conflict between the two
        # blocks of one group, which demotes the kernel to scalar
        lab = get_lab("vector-add")
        assert lab.dataset_sizes[2] > 256
        probe = tmp_path / "probe.cu"
        probe.write_text(lab.solution.replace(
            "out[i] = in1[i] + in2[i];",
            "out[i] = in1[i] + in2[i];\n  }\n"
            "  if (i == 0 && len > blockDim.x) {\n"
            "    out[0] = out[0] + 0.0f * out[blockDim.x];"))
        assert main(["profile-attempt", "vector-add", "--source",
                     str(probe), "--dataset", "2"]) == 0
        out = capsys.readouterr().out
        assert ("kernel vecAdd: ran on codegen (demoted: out[256]: "
                "thread 0 (block rank 0, interval 0, iteration 0) after "
                "thread 0 (block rank 1, interval 0, iteration 0))\n") in out

    def test_decline_reason_is_memoized_with_the_verdict(self):
        from repro.minicuda import compile_source
        from repro.minicuda.codegen import KERNEL_CACHE
        from repro.minicuda.simd import decline_reason

        source = """
__device__ int twice(int v) { return 2 * v; }
__global__ void calls(int *out) { out[threadIdx.x] = twice(threadIdx.x); }
__global__ void plain(int *out) { out[threadIdx.x] = threadIdx.x; }
int main() { return 47; }"""
        info = compile_source(source).info
        assert decline_reason(info, "calls") == "call to 'twice'"
        assert decline_reason(info, "plain") is None
        # a second program with this fingerprint recalls it, not re-lowers
        before = KERNEL_CACHE.compute_count
        again = compile_source(source).info
        assert again is not info
        assert decline_reason(again, "calls") == "call to 'twice'"
        assert KERNEL_CACHE.compute_count == before

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401 - import must not execute main
        # (the module calls main() at import... it must be guarded)


class TestQuestionsView:
    def test_renders_questions_and_saved_answers(self):
        lab = get_lab("tiled-matmul")
        html = render_questions_view(lab, {0: "because barriers sync all"})
        assert "Q1." in html and "Q2." in html
        assert "because barriers sync all" in html

    def test_lab_without_questions(self):
        import dataclasses
        lab = dataclasses.replace(get_lab("vector-add"), questions=())
        html = render_questions_view(lab, {})
        assert "no questions" in html


class TestCliExits:
    """Each way ``run-lab`` and ``profile-attempt`` end, through a
    source file."""

    VECADD = get_lab("vector-add")

    def probe(self, tmp_path, source):
        path = tmp_path / "probe.cu"
        path.write_text(source)
        return str(path)

    def test_run_lab_counts_a_runtime_error(self, capsys, tmp_path):
        crash = self.VECADD.solution.replace(
            'wbLog(TRACE, "The input length is ", inputLength);',
            "int zz = 0; inputLength = inputLength / zz;")
        assert main(["run-lab", "vector-add", "--dataset", "0", "--source",
                     self.probe(tmp_path, crash)]) == 1
        assert "dataset 0: RUNTIME ERROR: integer division by zero" \
            in capsys.readouterr().out

    def test_profile_attempt_of_a_compile_error(self, capsys, tmp_path):
        bad = self.VECADD.solution.replace("int i =", "int i = =")
        assert main(["profile-attempt", "vector-add", "--source",
                     self.probe(tmp_path, bad)]) == 2
        assert "COMPILE ERROR" in capsys.readouterr().out

    def test_profile_attempt_without_a_launch(self, capsys, tmp_path):
        from tests.test_feedback import _without_launch
        assert main(["profile-attempt", "vector-add", "--source",
                     self.probe(tmp_path,
                                _without_launch(self.VECADD.solution))]) == 0
        assert "no profiled kernel launches" in capsys.readouterr().out

    @pytest.mark.parametrize("ceiling, code, said", [
        (0, 1, "line-budget violations:"),
        (10 ** 9, 0, "all 1 line budget(s) satisfied")])
    def test_profile_attempt_against_line_budgets(self, capsys, monkeypatch,
                                                  ceiling, code, said):
        import dataclasses

        from repro import cli
        from repro.profiler import LineBudget
        lab = dataclasses.replace(self.VECADD, line_budgets=(
            LineBudget(r"out\[i\] =", "global_load_transactions", ceiling),))
        monkeypatch.setattr(cli, "get_lab", lambda slug: lab)
        assert main(["profile-attempt", "vector-add"]) == code
        assert said in capsys.readouterr().out
