"""Tests for :mod:`repro.store.shared` — the shared-log store."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.shared import shared_row
from repro.bench.store import run_mix
from repro.obs.attach import shared_store_registry
from repro.persist.api import PMemView
from repro.persist.flushopt import OPTIMIZER_NAMES, make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures.base import persisted_reader
from repro.store import DurableStore, SharedLogStore, recover
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def mk_shared(optimizer="skipit", threads=3, **kwargs):
    params = TimingParams(num_threads=threads, skip_it=(optimizer == "skipit"))
    system = TimingSystem(params)
    heap = SimHeap(params.line_bytes)
    opt = make_optimizer(optimizer, heap)
    policy = make_policy("none")
    views = [
        PMemView(ctx, policy, opt) for ctx in system.threads[:threads]
    ]
    kwargs.setdefault("log_capacity", 128)
    kwargs.setdefault("num_buckets", 16)
    store = SharedLogStore(heap, views, **kwargs)
    return system, heap, views, store


def recovered(system, store, at=None, **kwargs):
    return recover(
        persisted_reader(system.persisted_image(at)), store.layout, **kwargs
    )


class TestConstruction:
    def test_requires_views(self):
        params = TimingParams(num_threads=1)
        TimingSystem(params)
        heap = SimHeap(params.line_bytes)
        with pytest.raises(ValueError, match="at least one"):
            SharedLogStore(heap, [])

    def test_mixed_strides_rejected(self):
        system, heap, views, store = mk_shared("plain", threads=2)
        flit_view = PMemView(
            views[0].ctx,
            make_policy("none"),
            make_optimizer("flit-adjacent", heap),
        )
        with pytest.raises(ValueError, match="stride"):
            SharedLogStore(heap, [views[0], flit_view])

    def test_epoch_must_fit_the_log(self):
        with pytest.raises(ValueError, match="fit"):
            mk_shared(threads=4, batch_size=16, log_capacity=64)

    def test_epoch_capacity_boundary(self):
        # 3 threads x 8 ops, plus one grace round of 3 records, plus the
        # marker and one op of slack
        with pytest.raises(ValueError, match="fit"):
            mk_shared(threads=3, batch_size=8, log_capacity=28)
        mk_shared(threads=3, batch_size=8, log_capacity=29)

    def test_one_view_capacity_matches_the_private_log(self):
        # a lone thread always leads: no grace round to leave room for
        with pytest.raises(ValueError, match="fit"):
            mk_shared(threads=1, batch_size=8, log_capacity=9)
        system, heap, views, store = mk_shared(
            threads=1, batch_size=8, log_capacity=10
        )
        for i in range(1, 40):
            store.put(0, i % 9 + 1, 100 + i)
        store.sync()
        assert max(store.batch_sizes.samples) == 8
        assert recovered(system, store).items == store.memtable


class TestSharedCommit:
    def test_one_fence_acks_all_threads(self):
        system, heap, views, store = mk_shared(threads=4, batch_size=2)
        tickets = []
        for i in range(2):
            for tid in range(4):
                tickets.append(store.put(tid, 100 * (tid + 1) + i, 7000 + i))
        # the 8th record fires the epoch trigger; depending on which
        # thread lands it, the seal happens there or one grace round
        # later — either way exactly one fence has retired
        store.sync()
        assert all(t.acked for t in tickets)
        assert store.stats.get("store_fences") <= 2  # seal (+ maybe sync)
        assert store.stats.get("store_commits") >= 1
        assert {t.tid for t in tickets} == {0, 1, 2, 3}

    def test_lsns_are_globally_ordered_across_threads(self):
        system, heap, views, store = mk_shared(threads=3, batch_size=4)
        lsns = [
            store.put(tid, 10 + i, 1000 + i).lsn
            for i, tid in enumerate([0, 1, 2, 2, 1, 0, 1, 0])
        ]
        # CAS-bumped tail: submission order IS LSN order, no gaps
        assert lsns == list(range(lsns[0], lsns[0] + len(lsns)))

    def test_cas_tail_word_tracks_reservation(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=4)
        for i in range(5):
            store.put(i % 2, 10 + i, 100 + i)
        tail = views[0].read(store.wal.tail_addr)
        assert tail == store.wal.next_lsn - 1
        assert store.wal.tail_cas_failures == 0  # atomic scheduler steps

    def test_reads_see_unacked_writes_of_other_threads(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=8)
        ticket = store.put(0, 5, 55)
        assert not ticket.acked
        assert store.get(1, 5) == 55  # shared memtable

    def test_handle_binds_tid(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=2)
        handle = store.handle(1)
        ticket = handle.put(9, 99)
        assert ticket.tid == 1
        assert handle.get(9) == 99
        handle.delete(9)
        assert handle.get(9) is None

    def test_handle_sync_seals_partial_epoch(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=8)
        handle = store.handle(1)
        ticket = handle.put(3, 33)
        assert not ticket.acked
        handle.sync()  # charged to the handle's own thread
        assert ticket.acked
        assert store.acked_lsn == store.initiated_lsn

    def test_handle_checkpoint_advances_watermark(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=2)
        handle = store.handle(1)
        handle.put(3, 33)
        handle.put(4, 44)
        before = store.watermark
        handle.checkpoint()
        assert store.watermark > before
        assert store.stats.get("store_checkpoints") == 1

    def test_handle_begin_binds_txn_tid(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=2)
        handle = store.handle(1)
        txn = handle.begin()
        txn.put(5, 55)
        txn.put(6, 66)
        ticket = txn.commit()
        assert ticket.tid == 1
        assert store.get(0, 5) == 55 and store.get(0, 6) == 66

    def test_cycle_budget_seals_partial_epoch(self):
        system, heap, views, store = mk_shared(
            threads=2, batch_size=16, cycle_budget=10_000
        )
        first = store.put(0, 1, 11)
        assert not first.acked
        views[0].ctx.now += 10_000
        second = store.put(0, 2, 12)  # leader lands the expired budget
        assert first.acked and second.acked
        assert store.stats.get("store_commits") == 1


class TestLeaderHandoff:
    def test_follower_takes_over_an_absent_leader(self):
        # thread 0 (the initial leader) never submits: the trigger fires
        # on followers, which defer for one round, then CAS leadership
        system, heap, views, store = mk_shared(threads=3, batch_size=2)
        tickets = [
            store.put(1 + i % 2, 20 + i, 2000 + i) for i in range(12)
        ]
        store.sync(1)
        assert all(t.acked for t in tickets)
        assert store.stats.get("store_leader_takeovers") >= 1
        assert store.leader_tid != 0
        assert store.stats.get("store_seals_deferred") >= 1

    def test_leader_word_in_shared_memory(self):
        system, heap, views, store = mk_shared(threads=3, batch_size=2)
        assert views[0].read(store.leader_addr) == 1  # tid 0, 1-based
        for i in range(12):
            store.put(1, 20 + i, 2000 + i)
        assert views[2].read(store.leader_addr) == store.leader_tid + 1


class TestAckLatency:
    def test_per_thread_histograms_cover_all_tickets(self):
        system, heap, views, store = mk_shared(threads=3, batch_size=2)
        n = 12
        for i in range(n):
            store.put(i % 3, 30 + i, 3000 + i)
        store.sync()
        counts = [h.count for h in store.ack_latency]
        assert sum(counts) == store.ack_latency_all.count == n
        assert all(c > 0 for c in counts)

    def test_latency_is_nonnegative_and_ordered(self):
        system, heap, views, store = mk_shared(threads=4, batch_size=4)
        for i in range(32):
            store.put(i % 4, 1 + i % 9, 4000 + i)
        store.sync()
        hist = store.ack_latency_all
        assert all(sample >= 0 for sample in hist.samples)
        assert hist.p50() <= hist.p99()
        # a follower's op waits for the epoch to fill + seal: strictly
        # positive latency for at least most tickets
        assert hist.p99() > 0

    def test_registry_exports_ack_latency_histograms(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=2)
        registry = shared_store_registry(store)
        for i in range(8):
            store.put(i % 2, 40 + i, 400 + i)
        store.sync()
        snap = registry.snapshot()
        assert snap["store"]["ack_latency"]["count"] == 8
        assert snap["store"]["ack_latency"]["p99"] >= (
            snap["store"]["ack_latency"]["p50"]
        )
        assert snap["store"]["ack_latency"]["t0"]["count"] > 0
        assert snap["store"]["ack_latency"]["t1"]["count"] > 0
        assert snap["store"]["leader_tid"] == store.leader_tid
        assert snap["store"]["wal"]["tail_cas_failures"] == 0


class TestRecovery:
    @pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
    def test_interleaved_round_trip_on_every_filter(self, optimizer):
        system, heap, views, store = mk_shared(
            optimizer, threads=3, batch_size=4, checkpoint_every=3
        )
        for i in range(1, 60):
            tid = i % 3
            store.put(tid, i % 10 + 1, 100 * (tid + 1) + i)
            if i % 7 == 0:
                store.delete(tid, i % 5 + 1)
        store.sync()
        state = recovered(system, store)
        assert state.items == store.memtable
        assert state.applied_lsn == store.acked_lsn

    def test_open_epoch_is_atomic(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=8)
        store.put(0, 1, 11)
        store.put(1, 2, 22)  # epoch open: no marker yet
        state = recovered(system, store)
        assert state.items == {}
        store.sync()
        views[store.leader_tid].ctx.fence()
        state = recovered(system, store)
        assert state.items == {1: 11, 2: 22}

    def test_wrap_pressure_forces_checkpoint(self):
        system, heap, views, store = mk_shared(
            threads=2, batch_size=4, log_capacity=32
        )
        for i in range(1, 80):
            store.put(i % 2, i % 7 + 1, 1000 + i)
        store.sync()
        assert store.stats.get("store_checkpoints") >= 1
        state = recovered(system, store)
        assert state.items == store.memtable

    def test_adopt_then_second_crash_round_trips(self):
        system, heap, views, store = mk_shared(
            threads=2, batch_size=4, log_capacity=48
        )
        for i in range(1, 40):
            store.put(i % 2, i % 9 + 1, 2000 + i)
        store.sync()
        store.put(0, 77, 7777)  # left pending: discarded by the crash
        system.crash(at=None)
        state = recovered(system, store)
        assert 77 not in state.items
        assert state.applied_lsn == store.acked_lsn

        reopened = SharedLogStore(
            heap, views, batch_size=4, layout=store.layout
        )
        reopened.adopt(state, tid=1)
        assert reopened.memtable == state.items
        for i in range(1, 30):
            reopened.put(i % 2, 50 + i % 11, 3000 + i)
        reopened.sync()
        system.crash(at=None)
        second = recovered(system, reopened)
        assert second.items == reopened.memtable
        assert second.applied_lsn == reopened.acked_lsn

    def test_adopt_requires_fresh_instance(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=1)
        store.put(0, 1, 11)
        state = recovered(system, store)
        with pytest.raises(RuntimeError, match="fresh"):
            store.adopt(state)

    def test_adopt_rejects_a_used_store_after_reset_measurement(self):
        # an emptied memtable and zeroed traffic counters must not make
        # a used store look fresh: adopting would re-point a live tail
        system, heap, views, store = mk_shared(threads=2, batch_size=4)
        store.put(0, 5, 50)
        store.delete(0, 5)
        store.sync()
        store.checkpoint()
        store.reset_measurement()
        state = recovered(system, store)
        with pytest.raises(RuntimeError, match="fresh"):
            store.adopt(state)


def one_view_run(store, client, system, seed):
    """A seeded mix of puts, deletes and transactions (empty ones
    included) through *client*; everything a one-thread store decides."""
    rng = random.Random(seed)
    tickets, acked = [], []
    for i in range(80):
        roll, key = rng.random(), rng.randint(1, 12)
        if roll < 0.55:
            tickets.append(client.put(key, 1000 + i))
        elif roll < 0.75:
            tickets.append(client.delete(key))
        else:
            txn = client.begin()
            for j in range(rng.randint(0, 3)):
                wkey = rng.randint(1, 12)
                if rng.random() < 0.8:
                    txn.put(wkey, 5000 + 10 * i + j)
                else:
                    txn.delete(wkey)
            tickets.append(txn.commit())
        acked.append(sum(t.acked for t in tickets))
    store.sync()
    return dict(
        batches=store.batch_sizes.samples,
        commits=store.stats.get("store_commits"),
        fences=store.stats.get("store_fences"),
        checkpoints=store.stats.get("store_checkpoints"),
        acked=acked,
        lsns=[t.lsn for t in tickets],
        acked_lsn=store.acked_lsn,
        recovered=recovered(system, store).items,
    )


class TestOneViewEquivalence:
    """A one-view shared store is the private-log store: the submitter
    always leads, so it seals, checkpoints and acks at the same ops."""

    @pytest.mark.parametrize("ranged_seal", [False, True])
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_same_decisions_as_durable_store(self, optimizer, ranged_seal):
        options = dict(
            batch_size=4,
            log_capacity=40,
            checkpoint_every=3,
            num_buckets=16,
            ranged_seal=ranged_seal,
        )
        params = TimingParams(num_threads=1, skip_it=(optimizer == "skipit"))
        system = TimingSystem(params)
        heap = SimHeap(params.line_bytes)
        view = PMemView(
            system.threads[0],
            make_policy("none"),
            make_optimizer(optimizer, heap),
        )
        private = DurableStore(heap, view, **options)
        want = one_view_run(private, private, system, seed=11)

        system, heap, views, shared = mk_shared(optimizer, threads=1, **options)
        got = one_view_run(shared, shared.handle(0), system, seed=11)
        assert got == want
        assert want["checkpoints"] >= 2  # the mix crosses checkpoints


class TestResetMeasurement:
    def test_counters_and_all_clocks_zeroed(self):
        system, heap, views, store = mk_shared(threads=3, batch_size=2)
        for i in range(12):
            store.put(i % 3, 60 + i, 600 + i)
        store.sync()
        memtable = dict(store.memtable)
        store.reset_measurement()
        assert store.stats.as_dict() == {}
        assert store.ack_latency_all.count == 0
        assert all(h.count == 0 for h in store.ack_latency)
        assert store.wal.records_appended == 0
        for view in views:
            assert view.flush_requests == 0
            assert view.ctx.now == 0 and not view.ctx.outstanding
        assert store.memtable == memtable


class TestReserveProperties:
    """Hypothesis: the CAS-reserved tail under randomized interleavings.

    ``reserve()`` must hand out dense, globally ordered LSNs (submission
    order IS LSN order) with no slot double-reservation, for any thread
    interleaving — including under wrap pressure, where the circular log
    recycles slots across checkpoints.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        tids=st.lists(
            st.integers(min_value=0, max_value=2), min_size=1, max_size=60
        )
    )
    def test_interleaved_reservations_are_dense_and_unique(self, tids):
        system, heap, views, store = mk_shared(threads=3, batch_size=4)
        wal = store.wal
        lsns = [wal.reserve(views[tid]) for tid in tids]
        # dense: no gaps, no duplicates, handed out in submission order
        assert lsns == list(range(lsns[0], lsns[0] + len(lsns)))
        # distinct LSNs within one capacity window -> distinct slots
        slots = {store.layout.slot_of(lsn) for lsn in lsns}
        assert len(slots) == len(lsns)
        # every view agrees on the shared tail word
        for view in views:
            assert view.read(wal.tail_addr) == lsns[-1]
        assert wal.next_lsn == lsns[-1] + 1
        assert wal.tail_cas_failures == 0

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 7)),
            min_size=24,
            max_size=72,
        )
    )
    def test_wrap_pressure_keeps_order_and_round_trips(self, ops):
        system, heap, views, store = mk_shared(
            threads=2, batch_size=4, log_capacity=32
        )
        expected = {}
        lsns = []
        for i, (tid, key) in enumerate(ops):
            lsns.append(store.put(tid, key, 9000 + i).lsn)
            expected[key] = 9000 + i
        sealed_during = store.stats.get("store_commits")
        store.sync()
        # submission order IS LSN order; the only gaps are the seal
        # markers (one reserved LSN per epoch commit)
        gaps = [b - a for a, b in zip(lsns, lsns[1:])]
        assert all(gap in (1, 2) for gap in gaps)
        assert gaps.count(2) <= sealed_during
        assert len(set(lsns)) == len(lsns)
        assert store.memtable == expected
        state = recovered(system, store)
        assert state.items == expected
        assert state.applied_lsn == store.acked_lsn
        assert store.wal.tail_cas_failures == 0

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 2),  # tid
                st.integers(0, 3),  # 0-1: plain put, 2: commit, 3: abort
                st.integers(1, 7),  # base key
            ),
            min_size=12,
            max_size=48,
        )
    )
    def test_interleaved_txns_round_trip_atomically(self, ops):
        """Txn + plain ops mixed across 3 threads survive recovery whole.

        Committed transactions apply every write, aborted ones none, and
        the contiguous-run reservation keeps ticket LSNs globally ordered
        across the interleaving — all after a full seal + recover cycle.
        """
        system, heap, views, store = mk_shared(
            threads=3, batch_size=2, log_capacity=96
        )
        expected = {}
        ticket_lsn_order = []
        committed_txns = 0
        for i, (tid, action, key) in enumerate(ops):
            value = 9000 + i * 10
            if action <= 1:  # plain put
                ticket_lsn_order.append(store.put(tid, key, value).lsn)
                expected[key] = value
            else:
                txn = store.begin(tid)
                writes = {
                    1 + (key + j - 1) % 7: value + j for j in range(2 + i % 2)
                }
                for wkey, wvalue in writes.items():
                    txn.put(wkey, wvalue)
                if action == 2:
                    ticket_lsn_order.append(txn.commit().lsn)
                    expected.update(writes)
                    committed_txns += 1
                else:
                    txn.abort()  # buffered only: no log traffic at all
        store.sync()
        # submission order IS LSN order, txn runs included
        assert ticket_lsn_order == sorted(ticket_lsn_order)
        assert len(set(ticket_lsn_order)) == len(ticket_lsn_order)
        assert store.memtable == expected
        state = recovered(system, store)
        assert state.items == expected
        assert state.applied_lsn == store.acked_lsn
        assert state.replayed_txns == committed_txns
        assert state.rolled_back_txns == 0  # aborts never reached the log
        assert store.wal.tail_cas_failures == 0


class TestAcceptance:
    """ISSUE 5 acceptance: shared beats sharded on fences/op at t=4, gc=8."""

    @pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
    def test_strictly_fewer_fences_per_op_than_sharded(self, optimizer):
        duration = 12_000
        sharded = run_mix(optimizer, 8, 4, duration)
        shared = run_mix(optimizer, 8, 4, duration, shared=True)
        sharded_ops = sharded.result.total_ops
        shared_ops = shared.result.total_ops
        assert sharded_ops > 0 and shared_ops > 0
        sharded_fpo = sharded.total("store_fences") / sharded_ops
        shared_fpo = shared.total("store_fences") / shared_ops
        assert shared_fpo < sharded_fpo, (
            f"{optimizer}: shared {shared_fpo:.4f} fences/op not below "
            f"sharded {sharded_fpo:.4f}"
        )

    def test_benchmark_reports_ack_percentiles(self):
        result = shared_row(run_mix("skipit", 8, 2, 10_000, shared=True))
        assert result.ack_p99 >= result.ack_p50 > 0
        assert result.fences_per_kop > 0
        assert result.metrics["store.shared"]["store"]["ack_latency"][
            "count"
        ] > 0
