"""Tests for the figure-regeneration harness and its CLI."""

import pytest

from repro.bench import FIGURES
from repro.bench.cli import main
from repro.bench.format import format_table, human_size
from repro.bench.micro import MicroRow, rows_by_series, run_fig09, run_fig13
from repro.bench.serve import run_fig19
from repro.bench.structures import ThroughputRow, rows_by_structure, run_fig14
from repro.bench.txn import run_fig20


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


class TestMicroRunners:
    def test_fig09_rows_and_scaling(self):
        rows = run_fig09(quick=True, sizes=[64, 2048], threads=[1, 2], repeats=1)
        series = rows_by_series(rows)
        assert "1-thread flush" in series and "2-thread flush" in series
        one = {r.size_bytes: r.median_cycles for r in series["1-thread flush"]}
        two = {r.size_bytes: r.median_cycles for r in series["2-thread flush"]}
        assert one[2048] > one[64]  # grows with size
        assert two[2048] < one[2048]  # threads help

    def test_fig13_skip_it_wins(self):
        rows = run_fig13(quick=True, sizes=[256], threads=[1], repeats=1)
        by = {r.series: r.median_cycles for r in rows}
        assert by["1-thread Skip It"] < by["1-thread naive"]


class TestStructureRunners:
    def test_fig14_grid_contains_baseline_and_na(self):
        # one seed for every cell: the baseline must bound persistent
        # throughput on the same op stream (each cell's own coordinate
        # seed would compare different streams)
        rows = run_fig14(
            quick=True,
            structures=["bst"],
            policies=["manual"],
            optimizers=["plain", "link-and-persist", "skipit"],
            duration=15_000,
            seed=12345,
        )
        grouped = rows_by_structure(rows)
        assert set(grouped) == {"bst"}
        lnp = next(r for r in rows if r.optimizer == "link-and-persist")
        assert lnp.throughput_mops is None  # BST x L&P excluded, as in §7.4
        baseline = next(r for r in rows if r.policy == "none")
        persistent = [
            r.throughput_mops
            for r in rows
            if r.policy == "manual" and r.throughput_mops is not None
        ]
        assert all(baseline.throughput_mops >= t for t in persistent)

    @pytest.mark.slow
    def test_fig14_policy_ordering(self):
        """Manual persistence costs least, automatic most (for one filter)."""
        rows = run_fig14(
            quick=True,
            structures=["skiplist"],
            policies=["automatic", "nvtraverse", "manual"],
            optimizers=["skipit"],
        )
        tp = {r.policy: r.throughput_mops for r in rows if r.policy != "none"}
        assert tp["manual"] >= tp["nvtraverse"] >= tp["automatic"] * 0.9, tp


class TestStoreRunnerGuards:
    """Inputs the store-side figures reject before simulating anything."""

    def test_fig20_rejects_an_empty_transaction(self):
        with pytest.raises(ValueError, match="txn_size"):
            run_fig20(quick=True, optimizers=["skipit"], txn_sizes=[0])

    @pytest.mark.parametrize("load", [0.0, -8.0])
    def test_fig19_rejects_a_non_positive_offered_load(self, load):
        with pytest.raises(ValueError, match="offered load"):
            run_fig19(quick=True, optimizers=["skipit"], offered_loads=[load])

    def test_fig19_needs_an_oltp_session(self):
        with pytest.raises(ValueError, match="OLTP session"):
            run_fig19(quick=True, optimizers=["skipit"], sessions=1)


class TestCli:
    def test_quick_single_figure(self, capsys):
        assert main(["--fig", "13", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "Skip It" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--fig", "99"])
