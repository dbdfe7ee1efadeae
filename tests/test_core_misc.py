"""Odds-and-ends coverage: core bookkeeping, sweep helpers, CLI paths."""

from repro.bench.micro import rows_by_series, MicroRow
from repro.bench.structures import rows_by_structure, ThroughputRow
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc


class TestCoreBookkeeping:
    def test_finish_cycle_recorded(self):
        soc = Soc()
        soc.run_programs([[Instr.store(0x40, 1)]])
        assert soc.cores[0].finish_cycle is not None
        assert soc.cores[0].done

    def test_idle_core_is_done(self):
        soc = Soc()
        soc.run_programs([[Instr.store(0x40, 1)], []])
        assert soc.cores[1].done

    def test_stats_track_ops(self):
        soc = Soc()
        soc.run_programs(
            [[Instr.store(0x40, 1), Instr.load(0x40), Instr.clean(0x40),
              Instr.fence()]]
        )
        stats = soc.cores[0].stats
        assert stats.get("store") == 1
        assert stats.get("load") == 1
        assert stats.get("cbo_clean") == 1
        assert stats.get("fences") == 1

    def test_stats_summary_structure(self):
        soc = Soc()
        soc.run_programs([[Instr.store(0x40, 1)]])
        summary = soc.stats_summary()
        assert "l2" in summary
        assert "l1_0" in summary and "flush_unit_0" in summary


class TestRowGrouping:
    def test_rows_by_series(self):
        rows = [
            MicroRow(9, "a", 64, 1, 10.0),
            MicroRow(9, "b", 64, 1, 11.0),
            MicroRow(9, "a", 128, 1, 12.0),
        ]
        grouped = rows_by_series(rows)
        assert sorted(grouped) == ["a", "b"]
        assert len(grouped["a"]) == 2

    def test_rows_by_structure(self):
        rows = [
            ThroughputRow(14, "list", "manual", "plain", 5, 1.0),
            ThroughputRow(14, "bst", "manual", "plain", 5, 2.0),
            ThroughputRow(14, "list", "manual", "skipit", 5, 3.0),
        ]
        grouped = rows_by_structure(rows)
        assert sorted(grouped) == ["bst", "list"]
        assert len(grouped["list"]) == 2
