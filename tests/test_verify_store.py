"""Store crash sweep: the acceptance matrix plus oracle unit tests.

The headline guarantee of :mod:`repro.store`: a crash at every protocol
boundary — including the mid-writeback windows between an epoch's
cleans and its fence — recovers with every acknowledged commit present,
nothing beyond the last initiated epoch, and a state equal to the
journal prefix, for every optimizer x group-commit {1, 8, 64}.
"""

import pytest

from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.store.layout import OP_COMMIT, OP_DELETE, OP_PUT
from repro.verify.store import (
    StoreOracle,
    run_shared_store_sweep,
    run_store_sweep,
)
from repro.verify.sweep import CrashSweep


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
    @pytest.mark.parametrize("group_commit", [1, 8, 64])
    def test_sweep_is_green(self, optimizer, group_commit):
        report = CrashSweep("store", optimizer, group_commit).run()
        assert report.ok, report.summary() + "".join(
            f"\n  {v}" for v in report.violations[:5]
        )
        assert report.crash_points > report.boundaries, (
            "mid-writeback windows were never enumerated"
        )

    def test_run_store_sweep_covers_the_grid(self):
        results = run_store_sweep(
            optimizers=("plain", "skipit"), group_commits=(1, 8), ops=24
        )
        assert [config for config, _ in results] == [
            "plain/gc=1",
            "plain/gc=8",
            "skipit/gc=1",
            "skipit/gc=8",
        ]
        assert all(report.ok for _, report in results)


class TestSharedAcceptanceMatrix:
    """ISSUE 5 acceptance: shared-log sweep green on the full grid."""

    @pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
    @pytest.mark.parametrize("group_commit", [1, 8, 64])
    def test_sweep_is_green(self, optimizer, group_commit):
        report = CrashSweep("shared", optimizer, group_commit).run()
        assert report.ok, report.summary() + "".join(
            f"\n  {v}" for v in report.violations[:5]
        )
        assert report.crash_points > report.boundaries, (
            "mid-writeback windows were never enumerated"
        )

    def test_run_shared_store_sweep_covers_the_grid(self):
        results = run_shared_store_sweep(
            optimizers=("plain", "skipit"),
            group_commits=(1, 8),
            threads=2,
            ops=24,
        )
        assert [config for config, _ in results] == [
            "shared/plain/gc=1/t=2",
            "shared/plain/gc=8/t=2",
            "shared/skipit/gc=1/t=2",
            "shared/skipit/gc=8/t=2",
        ]
        assert all(report.ok for _, report in results)


class TestStoreOracle:
    def _oracle(self):
        oracle = StoreOracle()
        oracle.observe(1, OP_PUT, 5, 50)
        oracle.observe(2, OP_PUT, 6, 60)
        oracle.observe(3, OP_COMMIT, 2, 0)
        oracle.observe(4, OP_DELETE, 5, 0)
        oracle.observe(5, OP_COMMIT, 1, 0)
        return oracle

    def test_reference_state_replays_the_prefix(self):
        oracle = self._oracle()
        assert oracle.reference_state(0) == {}
        assert oracle.reference_state(3) == {5: 50, 6: 60}
        assert oracle.reference_state(5) == {6: 60}

    def test_reference_state_includes_partial_epochs_by_lsn(self):
        # reference is keyed by applied_lsn, which recovery only ever
        # advances at markers — payload lsns just apply in order
        oracle = self._oracle()
        assert oracle.reference_state(1) == {5: 50}

    def test_check_flags_lost_ghost_and_corrupt(self):
        from repro.persist.structures.base import persisted_reader
        from repro.store.layout import StoreLayout

        layout = StoreLayout(
            superblock=0x1000,
            log_base=0x2000,
            log_capacity=8,
            field_stride=8,
            line_bytes=64,
            num_buckets=4,
        )
        oracle = self._oracle()
        empty = persisted_reader({})
        # nothing durable at all: applied=0 < acked=3 -> lost
        lost = oracle.check(
            empty, layout, acked_lsn=3, initiated_lsn=5, at="t"
        )
        assert [v.kind for v in lost] == ["lost"]
        # nothing acked or initiated: an empty image is legal
        assert (
            oracle.check(empty, layout, acked_lsn=0, initiated_lsn=0, at="t")
            == []
        )
