"""Crash-recovery durability matrix for CBO.CLEAN / CBO.FLUSH.

The writeback instructions must persist the *newest* copy of a line no
matter which level of the hierarchy holds it dirty — the paper's whole
crash-consistency story rests on it.  The matrix crosses
{clean, flush} x dirty-in-{own L1, other L1, L2, victim L3} x Skip It
on/off, dirties exactly one location, issues one CBO plus a fence, then
crashes and checks the stored value survived.  The L3 x clean cell is a
regression test for the data-loss bug where the clean path treated a
line absent from L2 as "persisted already" while the victim L3 held the
only dirty copy.
"""

import pytest

from repro.sim.config import CacheGeometry
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem

ADDR = 0x10000
VALUE = 42

LOCATIONS = ("own_l1", "other_l1", "l2", "l3")


def mk(skip_it: bool) -> TimingSystem:
    return TimingSystem(
        TimingParams(
            num_threads=2,
            skip_it=skip_it,
            l1=CacheGeometry(size_bytes=256, ways=2),
            l2=CacheGeometry(size_bytes=512, ways=2),
            l3=CacheGeometry(size_bytes=4096, ways=4),
        )
    )


def dirty_in(system: TimingSystem, location: str) -> None:
    """Leave ``ADDR`` dirty in exactly the requested level."""
    t0, t1 = system.threads
    if location == "own_l1":
        t0.store(ADDR, VALUE)
        assert system.l1s[0].get(ADDR).dirty
    elif location == "other_l1":
        t1.store(ADDR, VALUE)
        assert system.l1s[1].get(ADDR).dirty
    elif location == "l2":
        t0.store(ADDR, VALUE)
        # a reader probe pulls the dirty data down into the L2 copy
        assert t1.load(ADDR) == VALUE
        assert system.l2.get(ADDR).dirty
        assert not system.l1s[0].get(ADDR).dirty
    elif location == "l3":
        t0.store(ADDR, VALUE)
        # conflict stores push ADDR out of L1 and L2 into the victim L3
        stride = system.params.l2.num_sets * system.params.line_bytes
        for i in range(1, 5):
            t0.store(ADDR + i * stride, 0)
        assert system.l2.get(ADDR) is None
        assert ADDR in system.l3 and system.l3.get(ADDR).dirty
    else:  # pragma: no cover - parametrization guards this
        raise ValueError(location)
    assert ADDR not in system.persisted


class TestDurabilityMatrix:
    @pytest.mark.parametrize("skip_it", (False, True))
    @pytest.mark.parametrize("location", LOCATIONS)
    @pytest.mark.parametrize("op", ("clean", "flush"))
    def test_cbo_persists_dirty_data(self, op, location, skip_it):
        system = mk(skip_it)
        dirty_in(system, location)
        t0 = system.threads[0]
        getattr(t0, op)(ADDR)
        t0.fence()
        recovered = system.crash()
        assert recovered.get(ADDR) == VALUE, (
            f"{op} lost data dirty in {location} (skip_it={skip_it})"
        )
        # post-crash reload must see the stored value, not stale zeroes
        assert system.threads[0].load(ADDR) == VALUE

    @pytest.mark.parametrize("op", ("clean", "flush"))
    def test_l3_dirty_cbo_charges_dram_writeback(self, op):
        """The L3-dirty path is a DRAM writeback, not a clean round trip."""
        system = mk(skip_it=False)
        dirty_in(system, "l3")
        t0 = system.threads[0]
        getattr(t0, op)(ADDR)
        t0.fence()
        assert system.stats.get("cbo_l3_dirty_writebacks") == 1
        assert system.stats.get("cbo_dram") == 1
        assert system.stats.get("cbo_l2_clean") == 0

    def test_clean_of_persisted_line_stays_cheap(self):
        """A genuinely-clean line still takes the trivial LLC path."""
        system = mk(skip_it=False)
        t0 = system.threads[0]
        t0.store(ADDR, VALUE)
        t0.clean(ADDR)
        t0.fence()
        before = system.stats.get("cbo_l2_clean")
        t0.clean(ADDR)  # redundant: already persisted everywhere
        t0.fence()
        assert system.stats.get("cbo_l2_clean") == before + 1
        assert system.stats.get("cbo_l3_dirty_writebacks") == 0

    @pytest.mark.parametrize("skip_it", (False, True))
    @pytest.mark.parametrize("location", LOCATIONS)
    @pytest.mark.parametrize("op", ("clean", "flush"))
    def test_crash_at_every_boundary(self, op, location, skip_it):
        """The matrix again, but crashing at *every* op boundary.

        ``test_cbo_persists_dirty_data`` checks the final image;
        the injector additionally checks the mid-writeback windows —
        after the store, after the CBO issues but before its DRAM write
        completes, and after the sealing fence.
        """
        from repro.verify.cli import matrix_schedule, matrix_system
        from repro.verify.injector import TimingCrashInjector

        system = matrix_system(skip_it)
        schedule = matrix_schedule(system, op, location)
        report = TimingCrashInjector(system).run(schedule)
        assert report.ok, report.summary()
        assert report.crash_points == len(schedule)

    def test_clean_keeps_l3_copy_flush_drops_it(self):
        system_clean = mk(skip_it=False)
        dirty_in(system_clean, "l3")
        system_clean.threads[0].clean(ADDR)
        assert ADDR in system_clean.l3
        assert not system_clean.l3.get(ADDR).dirty

        system_flush = mk(skip_it=False)
        dirty_in(system_flush, "l3")
        system_flush.threads[0].flush(ADDR)
        assert ADDR not in system_flush.l3


class TestAdoption:
    """A CBO that finds its line clean adopts the line's in-flight payloads.

    The line is clean in the hierarchy, but an earlier CBO's DRAM write for
    it may still be queued.  The clean CBO completes behind those writes,
    so its entry carries their merged words and a fence that waits for it
    lands them too.  Default hierarchy, Skip It off, so the repeated clean
    is not filtered at the L1.
    """

    LINE = 0x4000

    def mk(self) -> TimingSystem:
        return TimingSystem(TimingParams(skip_it=False))

    def test_same_thread_second_clean_adopts_first_payload(self):
        system = self.mk()
        t0 = system.threads[0]
        t0.store(self.LINE, VALUE)
        t0.clean(self.LINE)
        t0.clean(self.LINE)
        first, adopted = system.in_flight
        assert (first.tid, first.done, first.values) == (0, 218, {self.LINE: VALUE})
        # the clean round trip finishes before the DRAM write it adopts
        assert (adopted.tid, adopted.done) == (0, 171)
        assert adopted.values == first.values
        assert adopted.line == first.line == self.LINE
        assert system.wb_lines[self.LINE] == 1  # adopting is not a DRAM write

    def test_adopted_payload_lands_in_arrival_order(self):
        system = self.mk()
        t0 = system.threads[0]
        t0.store(self.LINE, VALUE)
        t0.clean(self.LINE)
        t0.clean(self.LINE)
        # the adopted entry's own done has passed, but it cannot land
        # before the same-line write that arrived ahead of it
        assert self.LINE not in system.persisted_image(at=171)
        assert system.persisted_image(at=218)[self.LINE] == VALUE

    def test_other_thread_adopts_and_its_fence_lands_the_payload(self):
        system = self.mk()
        t0, t1 = system.threads
        t0.store(self.LINE, VALUE)
        t0.clean(self.LINE)  # t0 never fences
        t1.clean(self.LINE)
        assert [(wb.tid, wb.values) for wb in system.in_flight] == [
            (0, {self.LINE: VALUE}),
            (1, {self.LINE: VALUE}),
        ]
        t1.fence()
        assert system.persisted[self.LINE] == VALUE
        assert not [wb for wb in system.in_flight if wb.line == self.LINE]

    def test_adopted_payload_holds_the_newest_write(self):
        system = self.mk()
        t0 = system.threads[0]
        t0.store(self.LINE, 1)
        t0.clean(self.LINE)
        t0.store(self.LINE, 2)
        t0.clean(self.LINE)
        t0.clean(self.LINE)
        assert [wb.values[self.LINE] for wb in system.in_flight] == [1, 2, 2]
        assert system.wb_lines[self.LINE] == 2
