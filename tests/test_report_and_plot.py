"""Tests for experiment result rendering."""

from __future__ import annotations

from repro.experiments.report import ExperimentResult


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="EX",
            title="demo",
            headers=["a", "b"],
            rows=[["x", 1.0], ["y", 2.5]],
            summary={"avg %": 1.75},
            paper={"avg %": 2.0},
            notes="a note",
        )

    def test_render_contains_everything(self):
        text = self._result().render()
        assert "EX: demo" in text
        assert "2.50" in text
        assert "measured: avg %=1.75" in text
        assert "paper:    avg %=2.00" in text
        assert "note: a note" in text

    def test_markdown_structure(self):
        md = self._result().markdown()
        assert md.startswith("### EX — demo")
        assert "| a | b |" in md
        assert "| avg % | 2.00 | 1.75 |" in md
        assert "*a note*" in md

    def test_markdown_without_summary(self):
        r = ExperimentResult("E0", "t", ["h"], [[1]])
        md = r.markdown()
        assert "| quantity |" not in md

    def test_render_without_paper(self):
        r = ExperimentResult("E0", "t", ["h"], [[1]], summary={"x": 1.0})
        assert "paper:" not in r.render()
