"""CBO.RANGE end to end: encodings, flush-queue lifecycle, both models.

The ranged ops (`cbo.range.{clean,flush,inval}`) enter the flush queue as
one entry, sweep line by line with in-range Skip It filtering, and act as
a single ordering token.  These tests pin the encoding, the queue's
mixed per-line/ranged bookkeeping, the Soc sweep behaviors, the timing
model's pipelined semantics, and Soc-vs-timing differential agreement
with ranged ops in the fuzzer vocabulary.
"""

import pytest

from repro.core.encodings import (
    CboInstruction,
    CboOp,
    CboRangeInstruction,
    CboRangeOp,
    decode,
    disassemble,
    encode_cbo,
    encode_cbo_range,
)
from repro.core.flush_queue import (
    CboKind,
    FlushQueue,
    FlushRequest,
    RangedFlushRequest,
)
from repro.tilelink.permissions import Cap, Perm
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify.fuzz import DifferentialFuzzer, ProgramGenerator
from repro.verify.sweep import CrashSweep

LINE = 64
LINES = [0x3000 + i * LINE for i in range(4)]


# ------------------------------------------------------------ encodings
class TestEncoding:
    @pytest.mark.parametrize("op", list(CboRangeOp))
    def test_round_trip(self, op):
        word = encode_cbo_range(op, rs1=5, rs2=6)
        assert decode(word) == CboRangeInstruction(op=op, rs1=5, rs2=6)

    def test_disassembly(self):
        word = encode_cbo_range(CboRangeOp.CLEAN, rs1=10, rs2=11)
        assert disassemble(word) == "cbo.range.clean 0(x10), x11"

    def test_ranged_and_plain_words_are_disjoint(self):
        """funct7 selectors sit above every ratified imm12 value."""
        plain = {encode_cbo(op, rs1=1) for op in CboOp}
        ranged = {
            encode_cbo_range(op, rs1=1, rs2=2) for op in CboRangeOp
        }
        assert not plain & ranged
        for word in plain:
            assert isinstance(decode(word), CboInstruction)
        for word in ranged:
            assert isinstance(decode(word), CboRangeInstruction)

    def test_register_bounds_checked(self):
        with pytest.raises(ValueError):
            encode_cbo_range(CboRangeOp.FLUSH, rs1=32, rs2=0)


# ----------------------------------------------------------- flush queue
def per_line_request(address, kind=CboKind.CLEAN):
    return FlushRequest(
        address=address,
        kind=kind,
        is_hit=True,
        is_dirty=True,
        way=0,
        perm=Perm.TRUNK,
    )


def ranged_request(base, lines, kind=CboKind.CLEAN):
    covered = tuple(base + i * LINE for i in range(lines))
    return RangedFlushRequest(
        address=base,
        kind=kind,
        is_hit=False,
        is_dirty=False,
        covered=covered,
        base=base,
        lines=lines,
    )


class TestFlushQueueRanged:
    def test_one_entry_covers_every_line(self):
        q = FlushQueue(depth=4)
        q.push(ranged_request(LINES[0], 3))
        assert len(q) == 1
        for line in LINES[:3]:
            assert q.has_line(line)
            assert len(q.entries_for(line)) == 1
        assert not q.has_line(LINES[3])

    def test_mixed_per_line_and_ranged_lifecycle(self):
        q = FlushQueue(depth=4)
        ranged = ranged_request(LINES[0], 3)
        per_line = per_line_request(LINES[1])
        q.push(ranged)
        q.push(per_line)
        # both entries pend on the overlapping line
        assert q.entries_for(LINES[1]) == [ranged, per_line]
        assert q.pop() is ranged
        # the per-line entry still holds its line after the range leaves
        assert q.has_line(LINES[1])
        assert not q.has_line(LINES[0])
        assert q.pop() is per_line
        assert q.empty and not q.has_line(LINES[1])

    def test_probe_downgrades_per_line_but_not_ranged(self):
        """Ranged entries sample at the cursor: probes need no downgrade."""
        q = FlushQueue(depth=4)
        ranged = ranged_request(LINES[0], 3)
        per_line = per_line_request(LINES[1])
        q.push(ranged)
        q.push(per_line)
        touched = q.probe_invalidate(LINES[1], Cap.toN)
        assert touched == 2  # both entries cover the line...
        assert not per_line.is_hit and per_line.perm is Perm.NONE
        # ...but the ranged entry's (unsampled) metadata is untouched
        assert not ranged.is_hit and ranged.lines == 3

    def test_eviction_is_noop_on_ranged_entries(self):
        q = FlushQueue(depth=4)
        ranged = ranged_request(LINES[0], 2)
        q.push(ranged)
        assert q.evict_invalidate(LINES[1]) == 1
        assert ranged.lines == 2 and ranged.cursor == 0


# ------------------------------------------------------------- Soc sweep
def run_soc(programs, skip_it=True):
    soc = Soc(Soc().params.with_skip_it(skip_it))
    soc.run_programs(programs)
    soc.drain()
    return soc


class TestSocRangedSweep:
    def test_one_queue_entry_per_range(self):
        soc = run_soc(
            [
                [
                    Instr.store(LINES[0], 1),
                    Instr.store(LINES[1], 2),
                    Instr.store(LINES[2], 3),
                    Instr.clean_range(LINES[0], 3 * LINE),
                    Instr.fence(),
                ]
            ]
        )
        stats = soc.l1s[0].flush_unit.stats
        assert stats.get("range_enqueued") == 1
        assert stats.get("range_lines") == 3
        assert stats.get("enqueued") == 0  # no per-line entries
        for line, value in zip(LINES[:3], (1, 2, 3)):
            assert soc.persisted_value(line) == value

    @pytest.mark.parametrize(
        "skip_it", (False, True), ids=("skip_off", "skip_on")
    )
    def test_in_range_skip_filter(self, skip_it):
        """A line persisted by an earlier CBO is filtered inside the sweep."""
        soc = run_soc(
            [
                [
                    Instr.store(LINES[0], 1),
                    Instr.clean(LINES[0]),
                    Instr.fence(),
                    Instr.store(LINES[1], 2),
                    Instr.clean_range(LINES[0], 2 * LINE),
                    Instr.fence(),
                ]
            ],
            skip_it=skip_it,
        )
        stats = soc.l1s[0].flush_unit.stats
        assert stats.get("range_line_skipped") == (1 if skip_it else 0)
        assert soc.persisted_value(LINES[0]) == 1
        assert soc.persisted_value(LINES[1]) == 2

    def test_range_yields_to_pending_per_line_cbo(self):
        """§5.3 dependence across the range: covered pending CBOs nack it."""
        soc = run_soc(
            [
                [
                    Instr.store(LINES[1], 1),
                    Instr.clean(LINES[1]),
                    Instr.flush_range(LINES[0], 3 * LINE),
                    Instr.fence(),
                ]
            ]
        )
        stats = soc.l1s[0].flush_unit.stats
        assert (
            stats.get("range_nacked_dependent")
            + stats.get("range_line_deferred")
        ) >= 1
        assert soc.persisted_value(LINES[1]) == 1


# ----------------------------------------------------------- timing model
def timing_thread(skip_it=True):
    system = TimingSystem(TimingParams(num_threads=1, skip_it=skip_it))
    return system, system.threads[0]


class TestTimingRanged:
    def test_single_ordering_token(self):
        system, t = timing_thread()
        for line, value in zip(LINES[:3], (1, 2, 3)):
            t.store(line, value)
        t.clean_range(LINES[0], 3 * LINE)
        assert len(t.outstanding) == 1
        assert system.stats.get("cbo_range_issued") == 1
        assert system.stats.get("cbo_range_lines") == 3
        t.fence()
        assert not t.outstanding
        for line, value in zip(LINES[:3], (1, 2, 3)):
            assert system.persisted.get(line) == value

    def test_staggered_completions(self):
        """Each unfiltered line lands at its own cursor-paced time."""
        system, t = timing_thread()
        for line, value in zip(LINES, (1, 2, 3, 4)):
            t.store(line, value)
        t.clean_range(LINES[0], 4 * LINE)
        dones = sorted(wb.done for wb in system.in_flight)
        assert len(dones) == 4
        assert len(set(dones)) == 4  # strictly staggered, no barrier

    def test_in_range_skip_filter(self):
        system, t = timing_thread()
        t.store(LINES[0], 1)
        t.clean(LINES[0])
        t.fence()
        t.store(LINES[1], 2)
        t.clean_range(LINES[0], 2 * LINE)
        t.fence()
        assert system.stats.get("cbo_range_line_skipped") == 1
        assert system.persisted.get(LINES[1]) == 2

    def test_wait_adopts_completion_semantics_without_fence(self):
        system, t = timing_thread()
        t.store(LINES[0], 1)
        t.clean_range(LINES[0], LINE, wait=True)
        assert not t.outstanding
        assert system.stats.get("fences") == 0
        assert system.stats.get("cbo_range_waits") == 1
        assert system.persisted.get(LINES[0]) == 1

    def test_await_with_nothing_outstanding_is_safe(self):
        system, t = timing_thread()
        t.await_writebacks()
        assert system.stats.get("cbo_range_waits") == 1
        assert system.stats.get("fences") == 0

    def test_zero_length_rejected(self):
        _, t = timing_thread()
        with pytest.raises(ValueError):
            t.clean_range(LINES[0], 0)


# ------------------------------------------------------------ differential
class TestDifferentialRanged:
    def test_deterministic_ranged_program_agrees(self):
        bodies = [
            [
                Instr.store(LINES[0], 1),
                Instr.store(LINES[2], 2),
                Instr.clean_range(LINES[0], 3 * LINE),
                Instr.fence(),
                Instr.store(LINES[1], 3),
                Instr.flush_range(LINES[1], 2 * LINE),
                Instr.fence(),
            ]
        ]
        report = DifferentialFuzzer(skip_it=True, num_cores=1).run_case(
            bodies
        )
        assert report.ok, report.mismatches

    def test_fuzzer_vocabulary_includes_ranged_ops(self):
        generator = ProgramGenerator(seed=3, num_cores=1, ops_per_core=64)
        ops = {i.op for body in generator.generate_bodies() for i in body}
        assert any(i.name.startswith("CBO_RANGE") for i in ops)

    @pytest.mark.slow
    def test_seeded_fuzz_runs_clean(self):
        fuzzer = DifferentialFuzzer(skip_it=True, num_cores=1)
        assert fuzzer.run(4, seed=11) == []


# ------------------------------------------------------------ crash sweep
class TestRangedSealCrashSweep:
    def test_ranged_seal_survives_every_crash_point(self):
        report = CrashSweep(
            "store", "skipit", group_commit=8, ranged_seal=True
        ).run()
        assert report.violations == []
        assert report.crash_points > 0

    def test_truncated_sweep_mutant_turns_red(self):
        report = CrashSweep(
            "store",
            "skipit",
            group_commit=8,
            ranged_seal=True,
            mutants=("range_skips_unreached_lines",),
        ).run()
        assert report.violations, "seeded mutant must be caught"
