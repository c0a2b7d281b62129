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
