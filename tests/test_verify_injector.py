"""Crash-point injector behaviour on known-good models.

The self-test in ``test_verify_oracle.py`` proves the injectors turn red
on known bugs; these tests pin down the green path — crash points are
actually enumerated, seals are counted, sampled mode visits every cycle
that can matter, and the ``CrashChecker`` crash-at-a-point path reuses
the injector's image computation.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.recovery import CrashChecker
from repro.persist.structures import STRUCTURES
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify.cli import matrix_schedule, matrix_system
from repro.verify.injector import SocCrashInjector, TimingCrashInjector

LINE = 0x3000

# two lines, two words each: same-line writes from both threads
CRASH_WORDS = [LINE, LINE + 8, LINE + 0x40, LINE + 0x48]
HISTORY_OP = st.one_of(
    st.tuples(
        st.just("store"),
        st.integers(0, 1),
        st.sampled_from(CRASH_WORDS),
        st.integers(1, 99),
    ),
    st.tuples(
        st.sampled_from(("clean", "flush", "load")),
        st.integers(0, 1),
        st.sampled_from(CRASH_WORDS),
    ),
    st.tuples(st.just("fence"), st.integers(0, 1)),
    # the thread computes off-memory, skewing its clock from the other's
    st.tuples(st.just("idle"), st.integers(0, 1), st.integers(1, 500)),
)
#: thread 0 cleans LINE late on its clock; thread 1, far behind, then
#: writes and cleans the same line: the later arrival has the earlier done
INVERTED = [
    ("idle", 0, 400),
    ("store", 0, LINE, 1),
    ("clean", 0, LINE),
    ("store", 1, LINE + 8, 2),
    ("clean", 1, LINE),
]


def replay(history):
    """A fresh two-thread timing system after *history*."""
    system = TimingSystem(TimingParams(num_threads=2))
    for kind, tid, *args in history:
        thread = system.threads[tid]
        if kind == "idle":
            thread.now += args[0]
        else:
            getattr(thread, kind)(*args)
    return system


class TestTimingInjector:
    @pytest.mark.parametrize("op", ("clean", "flush"))
    @pytest.mark.parametrize("location", ("own_l1", "other_l1", "l2", "l3"))
    def test_matrix_cell_green(self, op, location):
        system = matrix_system(skip_it=True)
        schedule = matrix_schedule(system, op, location)
        report = TimingCrashInjector(system).run(schedule)
        assert report.ok, report.summary()
        assert report.crash_points == len(schedule)
        assert report.seals == 1

    def test_mid_writeback_window_is_checked(self):
        """Crash points between CBO issue and fence must be enumerated."""
        system = TimingSystem(TimingParams(num_threads=1))
        schedule = [
            (0, Instr.store(LINE, 7)),
            (0, Instr.clean(LINE)),
            (0, Instr.fence()),
        ]
        report = TimingCrashInjector(system).run(schedule)
        assert report.ok
        assert report.crash_points == 3
        assert report.words == 1

    @example(history=INVERTED)
    @example(history=[("store", 0, LINE, 7), ("clean", 0, LINE)])
    @settings(max_examples=60, deadline=None)
    @given(history=st.lists(HISTORY_OP, max_size=30))
    def test_persisted_image_matches_crash(self, history):
        """``crash(at)`` lands exactly the writes ``persisted_image(at)``
        shows, in place, at every time a write could land."""
        system = replay(history)
        dones = {wb.done for wb in system.in_flight}
        for at in [None, *sorted(dones | {done - 1 for done in dones})]:
            image = system.persisted_image(at)
            crashed = replay(history)
            persisted = crashed.persisted
            assert crashed.crash(at=at) == image, at
            assert crashed.persisted is persisted

    def test_inverted_same_line_writes_land_in_arrival_order(self):
        system = replay(INVERTED)
        first, second = system.in_flight_by_line[LINE]
        assert second.done < first.done
        # the younger write cannot land before the older one has
        assert LINE + 8 not in system.persisted_image(second.done)
        assert system.persisted_image(first.done)[LINE + 8] == 2

    def test_at_gates_the_mid_writeback_window(self):
        """A CBO's DRAM write lands at its completion time, not at issue."""
        system = TimingSystem(TimingParams(num_threads=1))
        thread = system.threads[0]
        thread.store(LINE, 7)
        thread.clean(LINE)
        (pending,) = system.in_flight
        assert pending.done > thread.now
        assert system.persisted_image(thread.now).get(LINE) is None
        assert system.persisted_image(pending.done).get(LINE) == 7


class TestSocInjector:
    def _programs(self):
        return [
            [
                Instr.store(LINE, 1),
                Instr.clean(LINE),
                Instr.fence(),
                Instr.store(LINE + 0x40, 2),
                Instr.flush(LINE + 0x40),
                Instr.fence(),
            ],
            [Instr.store(LINE + 0x80, 3), Instr.clean(LINE + 0x80), Instr.fence()],
        ]

    def test_sampled_run_green(self):
        report = SocCrashInjector(Soc()).run(self._programs())
        assert report.ok, report.summary()
        assert report.mode == "sampled"
        assert 0 < report.crash_points <= report.boundaries
        assert report.seals == 3
        assert report.words == 3

    @pytest.mark.slow
    def test_exhaustive_checks_every_cycle(self):
        report = SocCrashInjector(Soc(), mode="exhaustive").run(
            self._programs()
        )
        assert report.ok, report.summary()
        # every cycle boundary plus the final post-drain check
        assert report.crash_points >= report.boundaries

    def test_multi_writer_word_rejected(self):
        """The oracle needs single-writer words; racing programs are a
        harness bug, not a finding."""
        programs = [[Instr.store(LINE, 1)], [Instr.store(LINE, 2)]]
        with pytest.raises(ValueError):
            SocCrashInjector(Soc()).run(programs)

    def test_fewer_programs_than_cores(self):
        report = SocCrashInjector(Soc()).run(
            [[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]]
        )
        assert report.ok, report.summary()


class TestCrashCheckerAt:
    def _checker(self):
        system = TimingSystem(TimingParams(num_threads=1))
        heap = SimHeap()
        optimizer = make_optimizer("plain", heap)
        structure = STRUCTURES["hashtable"](
            heap, field_stride=optimizer.field_stride
        )
        view = PMemView(system.threads[0], make_policy("automatic"), optimizer)
        structure.initialize(view)
        return system, CrashChecker(system, structure, view)

    def test_crash_at_point_is_nondestructive(self):
        """The injected-crash path must not drop the live cache state."""
        system, checker = self._checker()
        checker.apply([("insert", k) for k in range(1, 6)])
        first = checker.crash_and_check(at=system.threads[0].now)
        assert first.consistent, (first.lost, first.ghosts)
        # the system keeps running: more updates, then check again
        checker.apply([("insert", k) for k in range(6, 11)])
        second = checker.crash_and_check(at=system.threads[0].now)
        assert second.consistent, (second.lost, second.ghosts)
        assert second.recovered > first.recovered

    def test_crash_at_now_matches_default_crash(self):
        system, checker = self._checker()
        checker.apply(
            [("insert", 1), ("insert", 2), ("delete", 1), ("insert", 3)]
        )
        at_report = checker.crash_and_check(at=system.threads[0].now)
        assert at_report.consistent, (at_report.lost, at_report.ghosts)
        default_report = checker.crash_and_check()  # destructive path
        assert default_report.recovered == at_report.recovered
