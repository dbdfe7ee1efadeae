from repro.core.flush_queue import CboKind
"""Unit tests for the writeback unit and the L1 MSHR bookkeeping."""

import pytest

from repro.sim.config import SoCParams
from repro.sim.engine import Engine
from repro.tilelink.channel import BeatChannel
from repro.tilelink.messages import Release
from repro.tilelink.permissions import Grow, Perm, Shrink
from repro.uarch.l1 import L1DataCache
from repro.uarch.mshr import Mshr, MshrState
from repro.uarch.requests import MemOp, MemRequest

LINE = 0xE000


def isolated_l1():
    engine = Engine(watchdog_interval=0)
    l1 = L1DataCache(engine, agent_id=0, params=SoCParams())
    l1.connect(*[BeatChannel(n, 16) for n in "abcde"])
    return engine, l1


def install(l1, address=LINE, perm=Perm.TRUNK, dirty=True, value=99):
    way = l1.meta.victim_way(address)
    l1.meta.install(address, way, perm=perm, dirty=dirty)
    l1.data.write_word(l1.geometry.set_index(address), way, 0, value)
    return way


class TestWritebackUnit:
    def test_dirty_eviction_releases_data(self):
        engine, l1 = isolated_l1()
        way = install(l1, dirty=True, value=99)
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        assert not l1.wbu.wb_rdy
        release = None
        for _ in range(8):
            engine.step()
            release = l1.chan_c.pop_ready(engine.cycle)
            if release:
                break
        assert isinstance(release, Release)
        assert release.shrink is Shrink.TtoN
        assert int.from_bytes(release.data[:8], "little") == 99
        assert l1.line_state(LINE) is None

    def test_clean_eviction_dataless(self):
        engine, l1 = isolated_l1()
        way = install(l1, dirty=False)
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        engine.step(3)
        release = l1.chan_c.pop_ready(engine.cycle)
        assert release.data is None

    def test_branch_eviction_shrink(self):
        engine, l1 = isolated_l1()
        way = install(l1, perm=Perm.BRANCH, dirty=False)
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        engine.step(3)
        assert l1.chan_c.pop_ready(engine.cycle).shrink is Shrink.BtoN

    def test_complete_restores_rdy(self):
        engine, l1 = isolated_l1()
        way = install(l1)
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        l1.wbu.complete(LINE)
        assert l1.wbu.wb_rdy

    def test_complete_wrong_address_rejected(self):
        engine, l1 = isolated_l1()
        way = install(l1)
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        with pytest.raises(RuntimeError):
            l1.wbu.complete(LINE + 64)

    def test_double_eviction_rejected(self):
        engine, l1 = isolated_l1()
        way = install(l1)
        other_way = install(l1, address=LINE + 64)
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        with pytest.raises(RuntimeError):
            l1.wbu.start_eviction(LINE + 64, other_way, engine.cycle)

    def test_eviction_invalidates_flush_entries(self):
        engine, l1 = isolated_l1()
        way = install(l1, dirty=True)
        fu = l1.flush_unit
        fu.offer(LINE, CboKind.CLEAN, hit=l1.meta.lookup(LINE))
        entry = fu.queue.peek()
        l1.wbu.start_eviction(LINE, way, engine.cycle)
        assert not entry.is_hit  # §5.4.2
        assert fu.stats.get("evict_invalidated") == 1

    def test_eviction_of_nonresident_rejected(self):
        engine, l1 = isolated_l1()
        with pytest.raises(RuntimeError):
            l1.wbu.start_eviction(LINE, 0, engine.cycle)


class TestMshr:
    def test_allocation_lifecycle(self):
        mshr = Mshr(0, rpq_depth=4)
        request = MemRequest(MemOp.LOAD, LINE)
        mshr.allocate(request, LINE, Perm.BRANCH, victim_way=1,
                      needs_evict=False, grow=Grow.NtoB)
        assert mshr.state is MshrState.ACQUIRE
        mshr.acquire_sent()
        assert mshr.state is MshrState.WAIT_GRANT
        mshr.granted()
        assert mshr.replaying
        assert mshr.pop_replay() is request
        assert mshr.pop_replay() is None
        mshr.free()
        assert not mshr.busy

    def test_eviction_first_when_needed(self):
        mshr = Mshr(0, rpq_depth=4)
        mshr.allocate(MemRequest(MemOp.STORE, LINE, data=1), LINE, Perm.TRUNK,
                      victim_way=0, needs_evict=True, grow=Grow.NtoT)
        assert mshr.state is MshrState.EVICT_WAIT
        mshr.eviction_done()
        assert mshr.state is MshrState.ACQUIRE

    def test_rpq_depth_limit(self):
        mshr = Mshr(0, rpq_depth=2)
        mshr.allocate(MemRequest(MemOp.STORE, LINE, data=0), LINE, Perm.TRUNK,
                      victim_way=0, needs_evict=False, grow=Grow.NtoT)
        assert mshr.can_accept_secondary(MemOp.LOAD)
        mshr.push_secondary(MemRequest(MemOp.LOAD, LINE + 8))
        assert not mshr.can_accept_secondary(MemOp.LOAD)

    def test_secondary_permission_rule(self):
        mshr = Mshr(0, rpq_depth=4)
        mshr.allocate(MemRequest(MemOp.LOAD, LINE), LINE, Perm.BRANCH,
                      victim_way=0, needs_evict=False, grow=Grow.NtoB)
        assert not mshr.can_accept_secondary(MemOp.STORE)
        assert mshr.can_accept_secondary(MemOp.LOAD)

    def test_no_secondary_during_replay(self):
        mshr = Mshr(0, rpq_depth=4)
        mshr.allocate(MemRequest(MemOp.LOAD, LINE), LINE, Perm.BRANCH,
                      victim_way=0, needs_evict=False, grow=Grow.NtoB)
        mshr.acquire_sent()
        mshr.granted()
        assert not mshr.can_accept_secondary(MemOp.LOAD)

    def test_double_allocate_rejected(self):
        mshr = Mshr(0, rpq_depth=4)
        mshr.allocate(MemRequest(MemOp.LOAD, LINE), LINE, Perm.BRANCH,
                      victim_way=0, needs_evict=False, grow=Grow.NtoB)
        with pytest.raises(RuntimeError):
            mshr.allocate(MemRequest(MemOp.LOAD, LINE), LINE, Perm.BRANCH,
                          victim_way=0, needs_evict=False, grow=Grow.NtoB)
