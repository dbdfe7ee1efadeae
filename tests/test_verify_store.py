"""Store crash sweep: the acceptance matrix plus oracle unit tests.

The headline guarantee of :mod:`repro.store`: a crash at every protocol
boundary — including the mid-writeback windows between an epoch's
cleans and its fence — recovers with every acknowledged commit present,
nothing beyond the last initiated epoch, and a state equal to the
journal prefix, for every optimizer x group-commit {1, 8, 64}.
"""

import random
from copy import deepcopy

import pytest

from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.store.layout import (
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    OP_TXN,
    OP_TXN_COMMIT,
    StoreLayout,
)
from repro.store.recovery import RecoveredState
from repro.verify.serve import SessionOracle
from repro.verify.store import (
    StoreOracle,
    run_shared_store_sweep,
    run_store_sweep,
)
from repro.verify.sweep import CrashSweep
from repro.verify.txn import TxnOracle

LAYOUT = StoreLayout(
    superblock=0x1000,
    log_base=0x2000,
    log_capacity=8,
    field_stride=8,
    line_bytes=64,
    num_buckets=4,
)


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

    def test_reference_cache_sees_an_out_of_order_append(self):
        # a shared log journals LSNs out of order: lsn 2 after lsn 3
        oracle = StoreOracle()
        oracle.observe(1, OP_PUT, 5, 50)
        oracle.observe(3, OP_COMMIT, 2, 0)
        below, at, above = (oracle.reference_state(a) for a in (1, 2, 3))
        assert above == {5: 50}
        assert oracle.reference_state(3) is above
        oracle.observe(2, OP_PUT, 6, 60)
        # the append reaches every prefix at or above lsn 2, no shorter one
        assert oracle.reference_state(1) is below
        for lsn, stale in ((2, at), (3, above)):
            fresh = oracle.reference_state(lsn)
            assert fresh is not stale
            assert fresh == {5: 50, 6: 60}

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_appends_keep_every_reference_exact(self, seed):
        """Appends in any order, with every prefix cached in between,
        leave each reference equal to a from-scratch replay."""
        journal = [(1, OP_PUT, 5, 50), (2, OP_PUT, 6, 60), (3, OP_COMMIT, 2, 0),
                   (4, OP_TXN, 5, 51), (5, OP_TXN, 7, 70),
                   (6, OP_TXN_COMMIT, 1, 2), (7, OP_DELETE, 6, 0),
                   (8, OP_COMMIT, 4, 0), (9, OP_PUT, 7, 71), (10, OP_COMMIT, 1, 0)]
        lsns = range(len(journal) + 1)
        order = list(journal)
        random.Random(seed).shuffle(order)
        oracle = StoreOracle()
        for record in order:
            oracle.observe(*record)
            for a in lsns:
                oracle.reference_state(a)
        replay = StoreOracle()
        for record in journal:
            replay.observe(*record)
        for a in lsns:
            assert oracle.reference_state(a) == replay.reference_state(a), a


def txn_journal(oracle):
    """Put 5, a two-write transaction (6, 7), then delete 5."""
    oracle.observe(1, OP_PUT, 5, 50)
    oracle.observe(2, OP_TXN, 6, 60)
    oracle.observe(3, OP_TXN, 7, 70)
    oracle.observe(4, OP_TXN_COMMIT, 1, 2)  # txn id 1, two records
    oracle.observe(5, OP_COMMIT, 4, 0)
    oracle.observe(6, OP_DELETE, 5, 0)
    oracle.observe(7, OP_COMMIT, 1, 0)


class TestCheckStateIsReadOnly:
    """A sweep judges one recovered state at many crash points against a
    cached reference, so no oracle may mutate either."""

    @pytest.mark.parametrize("oracle_type", [StoreOracle, TxnOracle, SessionOracle])
    @pytest.mark.parametrize(
        "items",
        [
            pytest.param({5: 50, 6: 60, 7: 70}, id="exact"),
            pytest.param({5: 50, 6: 60}, id="torn-txn"),
            pytest.param({9: 90}, id="corrupt"),
        ],
    )
    def test_state_and_reference_unchanged(self, oracle_type, items):
        oracle = oracle_type()
        txn_journal(oracle)
        state = RecoveredState(items=dict(items), applied_lsn=5)
        before = deepcopy(state)
        reference = oracle.reference_state(5)
        expected = dict(reference)
        violations = oracle.check_state(
            state, LAYOUT, acked_lsn=5, initiated_lsn=7, at="t"
        )
        assert bool(violations) == (items != expected)
        assert state == before
        assert reference == expected
        assert oracle.reference_state(5) is reference
