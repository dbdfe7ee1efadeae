"""Odds-and-ends coverage: core bookkeeping."""

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

