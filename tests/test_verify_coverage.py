"""FSM coverage tracking and the ``python -m repro.verify`` gate."""

import json

import pytest

from repro.obs.attach import acquire_bus, release_bus
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify import cli
from repro.verify.coverage import (
    FSHR_STATES,
    RANGE_STATES,
    TILELINK_OPS,
    DEFAULT_FLOOR,
    FsmCoverage,
)
from repro.verify.mutants import soc_mutant

LINE = 0x3000


def covered(programs, skip_it=True):
    soc = Soc(Soc().params.with_skip_it(skip_it))
    coverage = FsmCoverage()
    bus = acquire_bus(soc)
    coverage.attach(bus)
    try:
        soc.run_programs(programs)
        soc.drain()
    finally:
        coverage.detach()
        release_bus(soc)
    return coverage


class TestFsmCoverage:
    def test_dirty_clean_walks_writeback_states(self):
        coverage = covered(
            [[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]]
        )
        for state in ("queued", "meta_write", "fill_buffer",
                      "root_release_data", "root_release_ack"):
            assert coverage.fshr_states[state] > 0, state

    def test_clean_hit_without_data_reaches_root_release(self):
        coverage = covered(
            [
                [
                    Instr.store(LINE, 1),
                    Instr.clean(LINE),
                    Instr.fence(),
                    Instr.clean(LINE),
                    Instr.fence(),
                ]
            ],
            skip_it=False,
        )
        assert coverage.fshr_states["root_release"] > 0

    def test_idle_soc_covers_nothing(self):
        coverage = covered([[Instr.load(LINE)]])
        assert coverage.fshr_states == {}
        assert not coverage.meets_floor()
        assert coverage.missing_fshr_states() == sorted(FSHR_STATES)

    def test_merge_accumulates(self):
        a = covered([[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]])
        b = covered([[Instr.load(LINE)]])
        merged = b.merge(a)
        assert merged.fshr_states == a.fshr_states

    def test_floor_gating(self):
        """The floor gates the combined per-line + range universe."""
        coverage = FsmCoverage(floor=0.5)
        for state in list(FSHR_STATES)[:3]:
            coverage.fshr_states[state] = 1
        assert coverage.fshr_coverage() == 0.5
        assert coverage.range_coverage() == 0.0
        assert not coverage.meets_floor()  # 3 of 12 combined states
        for state in list(RANGE_STATES)[:3]:
            coverage.fshr_states[state] = 1
        assert coverage.total_coverage() == 0.5
        assert coverage.meets_floor()
        assert not coverage.meets_floor(0.9)

    def test_report_lists_missing(self):
        coverage = FsmCoverage()
        report = coverage.report()
        assert report["fshr_coverage"] == 0.0
        assert report["fshr_missing"] == sorted(FSHR_STATES)
        assert report["tilelink_missing"] == sorted(TILELINK_OPS)


class TestVerifyCli:
    def test_smoke_passes_with_full_coverage(self, capsys, tmp_path):
        json_path = tmp_path / "verify.json"
        status = cli.main(["--smoke", "--fuzz", "1", "--json", str(json_path)])
        out = capsys.readouterr().out
        assert status == 0, out
        assert "PASS" in out
        payload = json.loads(json_path.read_text())
        assert payload["failures"] == 0
        assert payload["coverage"]["fshr_coverage"] >= DEFAULT_FLOOR
        assert payload["coverage"]["fshr_missing"] == []
        assert payload["coverage"]["tilelink_missing"] == []
        # one timing per printed stage header, in print order
        headers = [
            line[3:-3]
            for line in out.splitlines()
            if line.startswith("== ") and not line.startswith("== verdict")
        ]
        stages = payload["stage_seconds"]
        assert list(stages) == headers
        assert len(headers) == 9
        assert all(seconds >= 0 for seconds in stages.values())
        assert sum(stages.values()) <= payload["elapsed_seconds"]

    def test_unreachable_floor_exits_2(self, capsys):
        status = cli.main(["--smoke", "--fuzz", "0", "--floor", "1.1"])
        assert status == 2
        assert "BELOW FLOOR" in capsys.readouterr().out

    def test_mutated_model_exits_1(self, capsys):
        with soc_mutant("fence_ignores_flushing"):
            status = cli.main(["--smoke", "--fuzz", "0"])
        assert status == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.slow
    def test_exhaustive_passes(self, capsys):
        status = cli.main(["--exhaustive", "--fuzz", "1"])
        assert status == 0, capsys.readouterr().out
