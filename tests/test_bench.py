"""Tests for the figure-regeneration harness and its CLI."""

import dataclasses
import inspect

import pytest

import repro.bench
from repro.bench import FIGURES, baseline
from repro.bench.cli import main
from repro.bench.format import format_table, human_size
from repro.bench.spec import Claim, point_seed
from repro.bench.structures import (
    ALL_POLICIES,
    QUICK_DURATION,
    UPDATE_PERCENT,
    run_structure,
)
from tests.test_arrays_packed import BASELINE


class TestFormat:
    def test_human_size(self):
        assert human_size(64) == "64B"
        assert human_size(4096) == "4KiB"
        assert human_size(32 * 1024) == "32KiB"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [(1, 2.5), (10, None)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "n/a" in lines[3]

    def test_float_formatting(self):
        out = format_table(["x"], [(1234.5678,)])
        assert "1234.6" in out


class TestFigureRegistry:
    def test_all_figures_present(self):
        assert sorted(FIGURES) == [
            9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        ]

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_a_figure_takes_only_quick(self, figure):
        """``FIGURES[n]`` is the one handle on a figure: no axis narrows
        its cells or its run, so a direct run is the committed sweep."""
        for fn in (FIGURES[figure].cells, FIGURES[figure].run):
            assert list(inspect.signature(fn).parameters) == ["quick"]

    def test_the_package_exports_only_the_registry(self):
        assert repro.bench.__all__ == ["FIGURES"]


class TestStructureRunners:
    def test_fig14_grid_contains_baseline_and_na(self):
        # one seed for every cell: the baseline must bound persistent
        # throughput on the same op stream (each cell's own coordinate
        # seed would compare different streams)
        def run(policy, optimizer):
            return run_structure(
                14, "bst", policy, optimizer, UPDATE_PERCENT, 15_000, 12345
            )

        lnp = run("manual", "link-and-persist")
        assert lnp.throughput_mops is None  # BST x L&P excluded, as in §7.4
        baseline_mops = run("none", "plain").throughput_mops
        for optimizer in ("plain", "skipit"):
            assert baseline_mops >= run("manual", optimizer).throughput_mops

    @pytest.mark.slow
    def test_fig14_policy_ordering(self):
        """Manual persistence costs least, automatic most (for one filter)."""
        tp = {
            policy: run_structure(
                14,
                "skiplist",
                policy,
                "skipit",
                UPDATE_PERCENT,
                QUICK_DURATION,
                point_seed(14, f"skiplist,{policy},skipit"),
            ).throughput_mops
            for policy in ALL_POLICIES
        }
        assert tp["manual"] >= tp["nvtraverse"] >= tp["automatic"] * 0.9, tp


class TestCli:
    def test_quick_single_figure(self, capsys):
        assert main(["--fig", "13", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "Skip It" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--fig", "99"])

    def test_a_raising_claim_still_leaves_the_json(self, monkeypatch, tmp_path):
        """The run's outputs are written before any claim is judged."""

        def judge(rows):
            raise RuntimeError("broken judge")

        raising = (Claim("§0", "a judge that raises", judge),)
        figure = dataclasses.replace(FIGURES[11], claims=raising)
        monkeypatch.setitem(FIGURES, 11, figure)
        path = tmp_path / "bench.json"
        with pytest.raises(RuntimeError, match="broken judge"):
            main(["--fig", "11", "--quick", "--json", str(path)])
        rows = baseline.load(str(path))["figures"]["11"]["rows"]
        assert rows == baseline.load(str(BASELINE))["figures"]["11"]["rows"]
