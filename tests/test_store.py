"""Unit and integration tests for the :mod:`repro.store` subsystem."""

import pytest

from repro.obs.attach import store_registry
from repro.persist.api import PMemView
from repro.persist.flushopt import OPTIMIZER_NAMES, make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures.base import persisted_reader
from repro.store import (
    DurableStore,
    RecoveryError,
    StoreLayout,
    record_crc,
    recover,
)
from repro.store.layout import F_CRC, F_LSN, OP_PUT
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def mk_store(optimizer="skipit", **kwargs):
    params = TimingParams(num_threads=1, skip_it=(optimizer == "skipit"))
    system = TimingSystem(params)
    heap = SimHeap(params.line_bytes)
    view = PMemView(
        system.threads[0], make_policy("none"), make_optimizer(optimizer, heap)
    )
    kwargs.setdefault("log_capacity", 64)
    kwargs.setdefault("num_buckets", 16)
    store = DurableStore(heap, view, **kwargs)
    return system, heap, view, store


def recovered(system, store, at=None, **kwargs):
    return recover(
        persisted_reader(system.persisted_image(at)), store.layout, **kwargs
    )


class TestLayout:
    def test_slots_are_circular_and_packed(self):
        layout = StoreLayout(0x100, 0x2000, 8, 8, 64, 4)
        assert layout.slot_bytes == 40  # 5 fields x 8B, no line padding
        assert layout.slot_of(1) == 0
        assert layout.slot_of(8) == 7
        assert layout.slot_of(9) == 0  # wraps
        assert layout.slot_addr(1) == 0x2000 + 40
        assert layout.field_addr(0, F_CRC) == 0x2000 + 4 * 8

    def test_record_crc_is_never_zero(self):
        # an all-zero torn slot must not carry a valid CRC by accident
        assert record_crc(1, 1, 1, 1) != 0
        for lsn in range(1, 200):
            assert record_crc(lsn, OP_PUT, lsn, 0) != 0

    def test_stride_mismatch_rejected(self):
        system, heap, view, store = mk_store("plain")
        flit_view = PMemView(
            view.ctx, make_policy("none"), make_optimizer("flit-adjacent", heap)
        )
        with pytest.raises(ValueError, match="stride"):
            DurableStore(heap, flit_view, layout=store.layout)


class TestGroupCommit:
    def test_batch_size_triggers_commit(self):
        system, heap, view, store = mk_store(batch_size=4)
        tickets = [store.put(k, 10 + k) for k in range(1, 4)]
        assert not any(t.acked for t in tickets)
        last = store.put(4, 14)
        assert last.acked and all(t.acked for t in tickets)
        assert store.stats.get("store_commits") == 1
        assert store.stats.get("store_fences") == 1

    def test_sync_seals_a_partial_batch(self):
        system, heap, view, store = mk_store(batch_size=8)
        ticket = store.put(1, 11)
        assert not ticket.acked
        store.sync()
        assert ticket.acked
        assert store.acked_lsn == store.initiated_lsn

    def test_cycle_budget_triggers_commit(self):
        system, heap, view, store = mk_store(
            batch_size=50, cycle_budget=200
        )
        first = store.put(1, 11)
        while not first.acked:
            store.put(2, view.ctx.now + 100)  # values vary, budget runs out
        assert store.stats.get("store_commits") >= 1

    def test_cycle_budget_seals_partial_batch(self):
        system, heap, view, store = mk_store(
            batch_size=50, cycle_budget=10_000
        )
        first = store.put(1, 11)
        assert not first.acked
        view.ctx.now += 10_000  # budget expires with the batch nowhere near full
        second = store.put(2, 12)
        assert first.acked and second.acked
        assert store.stats.get("store_commits") == 1
        assert store.stats.get("store_fences") == 1
        assert store.batch_sizes.samples == [2]

    def test_cycle_budget_window_resets_after_seal(self):
        system, heap, view, store = mk_store(
            batch_size=50, cycle_budget=10_000
        )
        store.put(1, 11)
        view.ctx.now += 10_000
        store.put(2, 12)  # seals epoch 1 on budget expiry
        assert store.stats.get("store_commits") == 1
        third = store.put(3, 13)  # opens a fresh window
        fourth = store.put(4, 14)  # cheap ops: well inside the new budget
        assert not third.acked and not fourth.acked
        assert store.stats.get("store_commits") == 1
        view.ctx.now += 10_000
        fifth = store.put(5, 15)
        assert third.acked and fourth.acked and fifth.acked
        assert store.stats.get("store_commits") == 2

    def test_epoch_is_atomic_in_recovery(self):
        system, heap, view, store = mk_store(batch_size=4)
        store.put(1, 11)
        store.put(2, 12)  # batch open: no marker yet
        state = recovered(system, store)
        assert state.items == {}
        assert state.applied_lsn == 0
        store.sync()
        view.ctx.fence()
        state = recovered(system, store)
        assert state.items == {1: 11, 2: 12}

    def test_batch_must_fit_the_log(self):
        with pytest.raises(ValueError, match="fit"):
            mk_store(batch_size=64, log_capacity=32)

    def test_log_capacity_boundary(self):
        # a lone thread always leads, so it seals at exactly batch_size
        # records: the batch, its marker and one op of slack must fit
        with pytest.raises(ValueError, match="fit"):
            mk_store(batch_size=8, log_capacity=9)
        mk_store(batch_size=8, log_capacity=10)

    def test_keys_and_values_must_be_positive(self):
        system, heap, view, store = mk_store()
        with pytest.raises(ValueError):
            store.put(0, 5)
        with pytest.raises(ValueError):
            store.put(5, 0)
        with pytest.raises(ValueError):
            store.delete(-1)


class TestCheckpointAndRecovery:
    def test_recovery_from_checkpoint_only(self):
        system, heap, view, store = mk_store(batch_size=2)
        for k in range(1, 9):
            store.put(k, 100 + k)
        store.checkpoint()
        state = recovered(system, store)
        assert state.items == {k: 100 + k for k in range(1, 9)}
        assert state.checkpoint_lsn == state.applied_lsn == store.acked_lsn
        assert state.replayed_records == 0

    def test_log_replay_on_top_of_checkpoint(self):
        system, heap, view, store = mk_store(batch_size=2)
        store.put(1, 11)
        store.put(2, 12)
        store.checkpoint()
        store.put(3, 13)
        store.delete(1)  # second epoch after the checkpoint
        state = recovered(system, store)
        assert state.items == {2: 12, 3: 13}
        assert state.replayed_epochs == 1

    def test_torn_tail_is_tolerated(self):
        system, heap, view, store = mk_store(batch_size=2)
        store.put(1, 11)
        store.put(2, 12)
        image = dict(system.persisted_image())
        # corrupt the CRC of the sealed epoch's first record
        addr = store.layout.field_addr(store.layout.slot_of(1), F_CRC)
        image[addr] = 12345
        state = recover(persisted_reader(image), store.layout)
        assert state.items == {} and state.stop_reason == "bad_crc"

    def test_bad_superblock_pointer_raises(self):
        system, heap, view, store = mk_store(batch_size=1)
        store.put(1, 11)
        store.checkpoint()
        image = dict(system.persisted_image())
        image[store.layout.superblock] = 0xDEAD000
        with pytest.raises(RecoveryError, match="magic"):
            recover(persisted_reader(image), store.layout)

    def test_wrap_pressure_forces_checkpoint(self):
        system, heap, view, store = mk_store(
            batch_size=4, log_capacity=16
        )
        for i in range(1, 60):
            store.put(i % 7 + 1, 1000 + i)
        store.sync()
        assert store.stats.get("store_checkpoints") >= 1
        state = recovered(system, store)
        assert state.items == store.memtable
        assert state.applied_lsn == store.acked_lsn

    def test_checkpoint_every_n_commits(self):
        system, heap, view, store = mk_store(
            batch_size=2, checkpoint_every=2
        )
        for i in range(1, 13):
            store.put(i, 50 + i)
        assert store.stats.get("store_checkpoints") == 3

    def test_replay_mutant_knob_resurfaces_stale_records(self):
        system, heap, view, store = mk_store(batch_size=4, log_capacity=16)
        for i in range(1, 60):
            store.put(i % 7 + 1, 1000 + i)
        store.sync()
        strict = recovered(system, store)
        trusting = recovered(system, store, check_lsn=False)
        # the wrapped log leaves CRC-valid stale slots; trusting replay
        # walks into them and diverges
        assert trusting.applied_lsn >= strict.applied_lsn
        assert strict.items == store.memtable

    def test_lsn_field_zeroed_slot_ends_replay(self):
        system, heap, view, store = mk_store(batch_size=1)
        store.put(1, 11)
        store.put(2, 12)
        image = dict(system.persisted_image())
        # lsn 3 is the second epoch's payload (batch_size=1 means
        # lsn 2 and 4 are COMMIT markers); zeroing it tears epoch 2
        addr = store.layout.field_addr(store.layout.slot_of(3), F_LSN)
        image[addr] = 0
        state = recover(persisted_reader(image), store.layout)
        assert state.items == {1: 11}
        assert state.stop_reason == "empty_slot"


class TestReopen:
    def test_adopt_then_second_crash_round_trips(self):
        system, heap, view, store = mk_store(batch_size=4, log_capacity=24)
        for i in range(1, 40):
            store.put(i % 9 + 1, 2000 + i)
        store.put(77, 7777)  # left pending: discarded by the crash
        system.crash(at=None)
        state = recovered(system, store)
        assert 77 not in state.items
        assert state.applied_lsn == store.acked_lsn

        reopened = DurableStore(
            heap, view, batch_size=4, layout=store.layout
        )
        reopened.adopt(state)
        assert reopened.memtable == state.items
        for i in range(1, 30):
            reopened.put(50 + i % 11, 3000 + i)
        reopened.sync()
        system.crash(at=None)
        second = recovered(system, reopened)
        assert second.items == reopened.memtable
        assert second.applied_lsn == reopened.acked_lsn

    def test_adopt_requires_fresh_instance(self):
        system, heap, view, store = mk_store(batch_size=1)
        store.put(1, 11)
        state = recovered(system, store)
        with pytest.raises(RuntimeError, match="fresh"):
            store.adopt(state)


class TestOptimizerMatrix:
    @pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
    def test_round_trip_on_every_filter(self, optimizer):
        system, heap, view, store = mk_store(
            optimizer, batch_size=4, checkpoint_every=3
        )
        for i in range(1, 40):
            store.put(i % 10 + 1, 100 + i)
            if i % 7 == 0:
                store.delete(i % 5 + 1)
        store.sync()
        state = recovered(system, store)
        assert state.items == store.memtable
        assert state.applied_lsn == store.acked_lsn

    def test_skipit_filters_log_tail_cleans(self):
        plain_sys, _, _, plain_store = mk_store("plain", batch_size=8)
        skip_sys, _, _, skip_store = mk_store("skipit", batch_size=8)
        for s in (plain_store, skip_store):
            for i in range(1, 33):
                s.put(i % 6 + 1, 500 + i)
            s.sync()
        assert (
            skip_sys.stats.get("cbo_issued")
            < plain_sys.stats.get("cbo_issued") / 2
        )
        assert skip_sys.stats.get("cbo_skipped") > 0


class TestResetMeasurement:
    def test_counters_zeroed_durable_state_kept(self):
        system, heap, view, store = mk_store(batch_size=4)
        for i in range(1, 10):
            store.put(i, 30 + i)
        store.sync()
        memtable = dict(store.memtable)
        acked = store.acked_lsn
        store.reset_measurement()
        assert store.stats.as_dict() == {}
        assert store.batch_sizes.count == 0
        assert store.wal.records_appended == 0
        assert view.flush_requests == 0
        assert view.ctx.now == 0 and not view.ctx.outstanding
        assert store.memtable == memtable and store.acked_lsn == acked
        # the store still works after the reset
        store.put(90, 900)
        store.sync()
        assert store.stats.get("store_commits") == 1


class TestObservability:
    def test_store_registry_snapshot(self):
        system, heap, view, store = mk_store(batch_size=4)
        registry = store_registry(store)
        for i in range(1, 10):
            store.put(i, 30 + i)
        store.sync()
        snap = registry.snapshot()
        assert snap["store"]["store_commits"] == 3
        assert snap["store"]["store_fences"] == 3
        assert snap["store"]["commit_batch"]["count"] == 3
        assert snap["store"]["wal"]["records_appended"] == 12  # 9 + 3 markers
        assert snap["store"]["acked_lsn"] == store.acked_lsn
        assert snap["store"]["memtable_size"] == 9
        assert snap["store"]["pending_ops"] == 0
