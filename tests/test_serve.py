"""Tests for :mod:`repro.serve` — admission control, sessions, the tier."""

import pytest

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.serve.admission import AdmissionController
from repro.serve.tier import ServeTier
from repro.store import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def mk_tier(optimizer="skipit", threads=2, high_water=48, low_water=12,
            **kwargs):
    params = TimingParams(num_threads=threads, skip_it=(optimizer == "skipit"))
    system = TimingSystem(params)
    heap = SimHeap(params.line_bytes)
    opt = make_optimizer(optimizer, heap)
    policy = make_policy("none")
    views = [PMemView(ctx, policy, opt) for ctx in system.threads[:threads]]
    kwargs.setdefault("log_capacity", 128)
    kwargs.setdefault("num_buckets", 16)
    kwargs.setdefault("batch_size", 4)
    store = SharedLogStore(heap, views, **kwargs)
    tier = ServeTier(store, high_water=high_water, low_water=low_water)
    return system, store, tier


class TestAdmissionController:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="high_water"):
            AdmissionController(0, 0)
        with pytest.raises(ValueError, match="low_water"):
            AdmissionController(4, 4)

    def test_hysteresis_engages_high_releases_low(self):
        ctl = AdmissionController(4, 1)
        assert not ctl.update(3)  # below high: stays open
        assert ctl.update(4)  # at high: engages
        assert ctl.update(2)  # inside the band: stays engaged
        assert ctl.update(3)  # even rising again: still engaged
        assert not ctl.update(1)  # at low: releases
        assert not ctl.update(3)  # band re-entered from below: open
        assert ctl.engagements == 1 and ctl.releases == 1

    def test_transition_callback_fires_once_per_edge(self):
        edges = []
        ctl = AdmissionController(4, 1, on_transition=edges.append)
        for depth in (5, 6, 3, 2, 1, 0, 5):
            ctl.update(depth)
        assert edges == ["engaged", "released", "engaged"]

    def test_no_admit_after_shed(self):
        ctl = AdmissionController(2, 0)
        assert ctl.offer(1, 5) == "shed"
        # pressure fully cleared: the same rid must still be refused
        assert ctl.update(0) is False
        assert ctl.offer(1, 0) == "shed"
        assert ctl.offer(2, 0) == "admit"
        assert 1 in ctl.shed_ids and 2 not in ctl.shed_ids

    def test_rejection_counters(self):
        ctl = AdmissionController(2, 0)
        decisions = [ctl.offer(rid, depth) for rid, depth in
                     ((1, 0), (2, 5), (3, 5), (4, 0), (5, 0))]
        # rid 2 engages; 3 and 4 are shed inside the band; 5 is shed too
        # (depth 0 <= low_water releases only via update -- offer(4, 0)
        # released, so 5 is admitted)
        assert decisions == ["admit", "shed", "shed", "admit", "admit"]
        assert ctl.shed == 2
        assert ctl.admitted == 3

    def test_release_on_drain(self):
        ctl = AdmissionController(3, 1)
        assert ctl.offer(1, 3) == "shed"
        assert ctl.offer(2, 2) == "shed"  # still in the band
        assert ctl.offer(3, 1) == "admit"  # drained to low water
        assert ctl.releases == 1


class TestServeTierWrites:
    def test_put_ticketed_and_harvested(self):
        system, store, tier = mk_tier()
        session = tier.session(0, tid=0)
        status, ticket = tier.put(session, 5, 55)
        assert status == "ok" and ticket is not None
        assert session.lsn_floor == ticket.lsn
        assert tier.inflight == 1
        tier.drain()
        assert tier.inflight == 0
        assert tier.stats.get("serve_completed") == 1
        assert tier.ack_latency.count == 1
        assert tier.ack_latency.samples[0] >= 0

    def test_overload_sheds_and_counts(self):
        system, store, tier = mk_tier(high_water=4, low_water=1)
        session = tier.session(0, tid=0)
        status, ticket = tier.put(session, 1, 11, backlog=10)
        assert status == "shed" and ticket is None
        assert tier.stats.get("serve_rejected") == 1
        assert session.lsn_floor == 0  # the op never happened
        assert store.get(0, 1) is None

    def test_shed_rid_never_admitted_later(self):
        system, store, tier = mk_tier(high_water=4, low_water=1)
        session = tier.session(0, tid=0)
        status, _ = tier.put(session, 1, 11, rid=77, backlog=10)
        assert status == "shed"
        status, _ = tier.put(session, 1, 11, rid=77, backlog=0)
        assert status == "shed"
        assert store.get(0, 1) is None

    def test_relieve_drains_the_stalled_epoch(self):
        system, store, tier = mk_tier(high_water=4, low_water=1)
        session = tier.session(0, tid=0)
        tier.put(session, 1, 11)  # partial epoch: unsealed backlog of 1
        assert store.unsealed_backlog == 1
        status, _ = tier.put(session, 2, 22, backlog=10)
        assert status == "shed"
        # the refusal sealed the pending epoch so the release edge is
        # reachable once the ingress queue empties
        assert tier.stats.get("serve_backpressure_drains") == 1
        assert store.unsealed_backlog == 0
        assert tier.stats.get("serve_completed") == 1  # first put harvested

    def test_backpressure_edges_reach_probe_points(self):
        system, store, tier = mk_tier(high_water=4, low_water=0)
        session = tier.session(0, tid=0)
        tier.put(session, 1, 11, backlog=10)
        assert tier.stats.get("serve_backpressure_engaged") == 1
        tier.put(session, 2, 22, backlog=0)
        assert tier.stats.get("serve_backpressure_released") == 1


class TestServeTierReads:
    def test_get_serves_memtable_and_raises_floor(self):
        system, store, tier = mk_tier()
        writer = tier.session(0, tid=0)
        reader = tier.session(1, tid=1)
        _, ticket = tier.put(writer, 7, 70)
        assert tier.get(reader, 7) == 70
        # the reader observed exactly that key's write, not the tip
        assert reader.lsn_floor == ticket.lsn

    def test_snapshot_falls_back_until_checkpoint_covers(self):
        system, store, tier = mk_tier()
        session = tier.session(0, tid=0)
        _, ticket = tier.put(session, 3, 33)
        # no checkpoint yet: fallback serves the memtable
        assert tier.snapshot_get(session, 3) == 33
        assert tier.stats.get("serve_snapshot_fallback") == 1
        assert tier.stats.get("serve_snapshot_reads") == 0
        tier.drain()
        store.checkpoint(0)
        assert store.watermark >= session.lsn_floor
        assert tier.snapshot_get(session, 3) == 33
        assert tier.stats.get("serve_snapshot_reads") == 1

    def test_snapshot_respects_the_session_floor(self):
        system, store, tier = mk_tier()
        session = tier.session(0, tid=0)
        tier.put(session, 4, 40)
        tier.drain()
        store.checkpoint(0)
        # a write past the checkpoint raises the floor above the watermark
        tier.put(session, 4, 41)
        assert not session.snapshot_covers(store.watermark)
        assert tier.snapshot_get(session, 4) == 41  # fallback, never 40
        assert tier.stats.get("serve_snapshot_fallback") == 1

    def test_stale_snapshot_mutant_serves_the_past(self):
        system, store, tier = mk_tier()
        tier.mutants.add("stale_snapshot_read")
        session = tier.session(0, tid=0)
        tier.put(session, 4, 40)
        tier.drain()
        store.checkpoint(0)
        tier.put(session, 4, 41)
        # the seeded bug ignores the floor: the session reads its own
        # write's past
        assert tier.snapshot_get(session, 4) == 40


class TestServeSessions:
    def test_sessions_are_cached_per_sid(self):
        system, store, tier = mk_tier()
        assert tier.session(0, tid=0) is tier.session(0, tid=0)
        assert tier.session(0, tid=0) is not tier.session(1, tid=1)

    def test_queue_wait_recorded(self):
        system, store, tier = mk_tier()
        session = tier.session(0, tid=0)
        now = store.views[0].ctx.now
        tier.put(session, 1, 11, arrival=now - 500)
        assert tier.queue_wait.count == 1
        assert tier.queue_wait.samples[0] == 500
