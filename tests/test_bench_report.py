"""Tests for the Markdown report generator and the CLI --report flag."""

import os

from repro.bench.cli import main
from repro.bench.report import _markdown_table, build_report
from repro.bench.runner import run_figures


class TestMarkdownTable:
    def test_headers_and_separator(self):
        out = _markdown_table(["a", "b"], [(1, 2)])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_none_renders_na(self):
        assert "n/a" in _markdown_table(["x"], [(None,)])

    def test_float_formatting(self):
        assert "1.500" in _markdown_table(["x"], [(1.5,)])


class TestBuildReport:
    def test_single_micro_figure(self):
        text = build_report(run_figures([13], quick=True), quick=True)
        assert "# Measured figure reproductions" in text
        assert "## Figure 13" in text
        assert "Skip It" in text
        assert "| series |" in text

    def test_single_throughput_figure(self):
        text = build_report(run_figures([16], quick=True), quick=True)
        assert "## Figure 16" in text
        assert "skipit" in text


class TestCliReport:
    def test_report_written(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["--fig", "13", "--quick", "--report", str(target)]) == 0
        assert target.exists()
        content = target.read_text()
        assert "Figure 13" in content
        out = capsys.readouterr().out
        assert "report written" in out
