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
