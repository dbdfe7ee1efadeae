"""Tests for :mod:`repro.verify.serve` — the serve session oracle."""

from types import SimpleNamespace

from repro.store.layout import OP_PUT
from repro.verify.serve import SessionOracle
from repro.verify.sweep import CrashSweep


def ticket(lsn, acked=False):
    return SimpleNamespace(lsn=lsn, acked=acked)


class TestSessionOracleReads:
    def mk(self):
        oracle = SessionOracle()
        for lsn, key, value in ((1, 5, 100), (2, 5, 101), (3, 6, 200)):
            oracle.observe(lsn, OP_PUT, key, value)
        return oracle

    def test_unknown_value_is_flagged(self):
        oracle = self.mk()
        oracle.observe_read(0, 5, 999, "memtable")
        assert [v.kind for v in oracle.online] == ["session_unknown_value"]

    def test_read_your_writes_violation(self):
        oracle = self.mk()
        oracle.observe_write(0, 5, ticket(2))
        oracle.observe_read(0, 5, 100, "snapshot")  # lsn 1 < own write 2
        kinds = [v.kind for v in oracle.online]
        assert "session_ryw" in kinds

    def test_absence_after_own_write_is_a_ryw_violation(self):
        oracle = self.mk()
        oracle.observe_write(0, 5, ticket(2))
        oracle.observe_read(0, 5, None, "snapshot")
        assert any(v.kind == "session_ryw" for v in oracle.online)

    def test_monotonic_reads_violation(self):
        oracle = self.mk()
        oracle.observe_read(0, 5, 101, "memtable")  # observes lsn 2
        assert oracle.online == []
        oracle.observe_read(0, 5, 100, "snapshot")  # back to lsn 1
        assert [v.kind for v in oracle.online] == ["session_monotonic"]

    def test_fresh_reads_raise_the_seen_floor(self):
        oracle = self.mk()
        oracle.observe_read(0, 5, 100, "memtable")
        oracle.observe_read(0, 5, 101, "memtable")
        assert oracle.online == []
        assert oracle.session_seen[(0, 5)] == 2

    def test_sessions_are_independent(self):
        oracle = self.mk()
        oracle.observe_write(0, 5, ticket(2))
        # a different session never wrote key 5: the old value is fine
        oracle.observe_read(1, 5, 100, "snapshot")
        assert oracle.online == []


class TestSessionOracleShed:
    def test_acked_shed_op_is_flagged_once(self):
        oracle = SessionOracle()
        oracle.observe_shed(7, ticket(4, acked=True))
        first = oracle.shed_check(applied_lsn=0, at="p1")
        assert [v.kind for v in first] == ["shed_acked"]
        assert oracle.shed_check(applied_lsn=0, at="p2") == []

    def test_recovered_shed_op_is_flagged(self):
        oracle = SessionOracle()
        oracle.observe_shed(7, ticket(4))
        assert oracle.shed_check(applied_lsn=3, at="p") == []
        out = oracle.shed_check(applied_lsn=4, at="p")
        assert [v.kind for v in out] == ["shed_acked"]

    def test_honest_shed_is_vacuous(self):
        oracle = SessionOracle()
        oracle.observe_shed(7, None)  # rejected before ticketing
        assert oracle.shed_check(applied_lsn=10**9, at="p") == []


class TestServeCrashSweep:
    def test_unmutated_point_is_green(self):
        report = CrashSweep("serve", "skipit", 8, ops=32).run()
        assert report.ok, report.violations[:3]
        assert report.crash_points > 0
        assert report.config == "serve/skipit/gc=8/s=2"

    def test_sweep_exercises_every_request_kind(self):
        sweep = CrashSweep("serve", "plain", 4, ops=48)
        report = sweep.run()
        assert report.ok, report.violations[:3]
        # the sweep is only as strong as what it drives: the mixed phase
        # must produce writes, shed decisions were possible (low high
        # water), and the RYW tail produced snapshot reads
        assert report.boundaries > 0
