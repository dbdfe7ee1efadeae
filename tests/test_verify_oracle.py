"""Self-test of the verification harness: known bugs must be caught.

A fault-injection harness that never fails is indistinguishable from one
that checks nothing.  These tests re-introduce the known-bad model
variants from :mod:`repro.verify.mutants` — including the PR 2 L3-dirty
data-loss bug — and assert the crash-point injectors report violations
for every one of them, with the expected violation kind.  Plus unit
tests for the durability oracle itself (floors, ghosts, ceilings).
"""

import pytest

from repro.sim.config import CacheGeometry
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify.injector import SocCrashInjector, TimingCrashInjector
from repro.verify.mutants import (
    SERVE_MUTANTS,
    SHARED_STORE_MUTANTS,
    SOC_MUTANTS,
    STORE_MUTANTS,
    TIMING_MUTANTS,
    TXN_MUTANTS,
    soc_mutant,
    timing_mutant,
)
from repro.verify.oracle import DurabilityOracle, WordHistory
from repro.verify.sweep import CrashSweep

ADDR = 0x10000


def mk(skip_it: bool = True) -> TimingSystem:
    return TimingSystem(
        TimingParams(
            num_threads=2,
            skip_it=skip_it,
            l1=CacheGeometry(size_bytes=256, ways=2),
            l2=CacheGeometry(size_bytes=512, ways=2),
            l3=CacheGeometry(size_bytes=4096, ways=4),
        )
    )


def timing_schedule(system: TimingSystem, mutant: str):
    """A schedule that exercises the code path the mutant breaks."""
    if mutant == "l3_dirty_clean_lost":
        # dirty ADDR into the victim L3 via conflict stores, then clean
        stride = system.params.l2.num_sets * system.params.line_bytes
        return (
            [(0, Instr.store(ADDR, 42))]
            + [
                (0, Instr.store(ADDR + i * stride, 100 + i))
                for i in range(1, 5)
            ]
            + [(0, Instr.clean(ADDR)), (0, Instr.fence())]
        )
    if mutant == "clean_forgets_l2_dirty":
        # reader probe leaves the dirty copy in L2, then clean it
        return [
            (0, Instr.store(ADDR, 42)),
            (1, Instr.load(ADDR)),
            (0, Instr.clean(ADDR)),
            (0, Instr.fence()),
        ]
    if mutant == "store_keeps_skip":
        # clean sets the skip bit; the re-dirtying store must clear it
        return [
            (0, Instr.store(ADDR, 42)),
            (0, Instr.clean(ADDR)),
            (0, Instr.fence()),
            (0, Instr.store(ADDR, 43)),
        ]
    if mutant == "skip_dirty_grant":
        # t1 fills from t0's dirty line; the grant is dirty, no skip bit
        return [
            (0, Instr.store(ADDR, 42)),
            (1, Instr.load(ADDR)),
        ]
    if mutant == "fence_forgets_writebacks":
        return [
            (0, Instr.store(ADDR, 42)),
            (0, Instr.clean(ADDR)),
            (0, Instr.fence()),
        ]
    if mutant == "range_skips_unreached_lines":
        # the truncated sweep never reaches the tail lines; their
        # stores are lost once the fence retires the range's token
        line = system.params.line_bytes
        return [
            (0, Instr.store(ADDR + i * line, 50 + i)) for i in range(4)
        ] + [
            (0, Instr.clean_range(ADDR, 4 * line)),
            (0, Instr.fence()),
        ]
    raise ValueError(mutant)


EXPECTED_KIND = {
    "l3_dirty_clean_lost": "lost",
    "clean_forgets_l2_dirty": "skip_unsound",
    "store_keeps_skip": "skip_unsound",
    "skip_dirty_grant": "skip_unsound",
    "fence_forgets_writebacks": "lost",
    "range_skips_unreached_lines": "lost",
}


class TestTimingMutantsCaught:
    @pytest.mark.parametrize("mutant", sorted(TIMING_MUTANTS))
    def test_mutant_reported(self, mutant):
        system = mk()
        schedule = timing_schedule(system, mutant)
        with timing_mutant(system, mutant):
            report = TimingCrashInjector(system).run(schedule)
        assert not report.ok, f"{mutant} not caught"
        kinds = {violation.kind for violation in report.violations}
        assert EXPECTED_KIND[mutant] in kinds, report.violations

    @pytest.mark.parametrize("mutant", sorted(TIMING_MUTANTS))
    def test_unmutated_run_is_green(self, mutant):
        system = mk()
        schedule = timing_schedule(system, mutant)
        report = TimingCrashInjector(system).run(schedule)
        assert report.ok, report.summary()


class TestSocMutantsCaught:
    L, M, M2 = 0x3000, 0x8000, 0x9000

    def _programs(self, mutant):
        if mutant == "grant_dirty_sets_skip":
            # c0 busy-waits through two fenced cleans so c1's store lands
            # first; c0's load then fills from the dirty data c1 left
            return [
                [
                    Instr.store(self.M, 1),
                    Instr.clean(self.M),
                    Instr.fence(),
                    Instr.store(self.M2, 2),
                    Instr.clean(self.M2),
                    Instr.fence(),
                    Instr.load(self.L),
                ],
                [Instr.store(self.L, 7)],
            ]
        return [
            [
                Instr.store(self.L, 1),
                Instr.clean(self.L),
                Instr.fence(),
            ]
        ]

    @pytest.mark.parametrize("mutant", sorted(SOC_MUTANTS))
    def test_mutant_reported(self, mutant):
        programs = self._programs(mutant)
        with soc_mutant(mutant):
            soc = Soc()
            report = SocCrashInjector(soc).run(programs)
        assert not report.ok, f"{mutant} not caught"

    @pytest.mark.parametrize("mutant", sorted(SOC_MUTANTS))
    def test_unmutated_run_is_green(self, mutant):
        report = SocCrashInjector(Soc()).run(self._programs(mutant))
        assert report.ok, report.summary()


#: violation kinds each store mutant must produce somewhere in the sweep
STORE_EXPECTED_KIND = {
    "store_ack_before_fence": "lost",
    "store_replay_trusts_crc": "ghost",  # stale markers replay as fresh
}


class TestStoreMutantsCaught:
    """The store crash sweep's own false-negative guarantee.

    ``ops=60`` guarantees the log wraps (capacity defaults to ~40
    slots), which the replay mutant needs: only a wrapped log leaves
    CRC-valid stale records in the replay path.
    """

    @pytest.mark.parametrize("mutant", sorted(STORE_MUTANTS))
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_mutant_turns_sweep_red(self, mutant, optimizer):
        report = CrashSweep(
            "store", optimizer, group_commit=8, ops=60, mutants=(mutant,)
        ).run()
        assert not report.ok, f"{mutant} not caught on {optimizer}"
        kinds = {violation.kind for violation in report.violations}
        assert STORE_EXPECTED_KIND[mutant] in kinds, report.violations

    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_unmutated_sweep_is_green(self, optimizer):
        report = CrashSweep("store", optimizer, group_commit=8, ops=60).run()
        assert report.ok, report.summary()


#: violation kinds each shared-log mutant must produce in the sweep
SHARED_STORE_EXPECTED_KIND = {
    "shared_ack_before_fence": "lost",
}


class TestSharedStoreMutantsCaught:
    """False-negative guarantee of the shared-log crash sweep.

    The seeded leader bug acks *follower* tickets before the epoch's
    fence retires; the sweep's windowed crash images at ``epoch_flushed``
    must surface the acknowledged-but-still-in-flight records as lost
    updates.  ``group_commit=4`` with 3 threads keeps epochs frequent
    enough that several seal windows are crashed.
    """

    @pytest.mark.parametrize("mutant", sorted(SHARED_STORE_MUTANTS))
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_mutant_turns_sweep_red(self, mutant, optimizer):
        report = CrashSweep(
            "shared",
            optimizer,
            group_commit=4,
            threads=3,
            ops=60,
            mutants=(mutant,),
        ).run()
        assert not report.ok, f"{mutant} not caught on {optimizer}"
        kinds = {violation.kind for violation in report.violations}
        assert SHARED_STORE_EXPECTED_KIND[mutant] in kinds, report.violations

    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_unmutated_sweep_is_green(self, optimizer):
        report = CrashSweep(
            "shared", optimizer, group_commit=4, threads=3, ops=60
        ).run()
        assert report.ok, report.summary()


#: violation kinds each serving-tier mutant must produce in the sweep
SERVE_EXPECTED_KIND = {
    "stale_snapshot_read": "session_ryw",
    "shed_acked_op": "shed_acked",
}


class TestServeMutantsCaught:
    """False-negative guarantee of the serve session sweep.

    ``group_commit=8`` with 2 sessions gives 16-record epochs, so the
    write backlog crosses the sweep's low ``high_water`` and admission
    control actually sheds — the precondition for ``shed_acked_op``
    to have anything to lie about.  Each session's closing
    put-then-snapshot-read pairs pin the ``stale_snapshot_read``
    window regardless of the random mixed phase.
    """

    @pytest.mark.parametrize("mutant", sorted(SERVE_MUTANTS))
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_mutant_turns_sweep_red(self, mutant, optimizer):
        report = CrashSweep(
            "serve", optimizer, group_commit=8, mutants=(mutant,)
        ).run()
        assert not report.ok, f"{mutant} not caught on {optimizer}"
        kinds = {violation.kind for violation in report.violations}
        assert SERVE_EXPECTED_KIND[mutant] in kinds, report.violations

    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    @pytest.mark.parametrize("group_commit", [1, 8])
    def test_unmutated_sweep_is_green(self, optimizer, group_commit):
        report = CrashSweep("serve", optimizer, group_commit=group_commit).run()
        assert report.ok, report.summary()


#: violation kinds each transaction mutant must produce in the sweep
TXN_EXPECTED_KIND = {
    "txn_partial_replay": "txn_partial",
    "txn_commit_before_fence": "lost",
}


class TestTxnMutantsCaught:
    """False-negative guarantee of the transaction sweeps.

    ``txn_partial_replay`` only bites when a crash image tears a
    transaction's commit record off a surviving payload prefix — the
    ``txn_record_appended`` probes between a run's appends crash inside
    exactly that window.  ``txn_commit_before_fence`` acks the ticket at
    the commit record, so the very next crash image shows acked > applied.
    """

    @pytest.mark.parametrize("mutant", sorted(TXN_MUTANTS))
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_mutant_turns_private_sweep_red(self, mutant, optimizer):
        report = CrashSweep(
            "txn", optimizer, group_commit=8, mutants=(mutant,)
        ).run()
        assert not report.ok, f"{mutant} not caught on {optimizer}"
        kinds = {violation.kind for violation in report.violations}
        assert TXN_EXPECTED_KIND[mutant] in kinds, report.violations

    @pytest.mark.parametrize("mutant", sorted(TXN_MUTANTS))
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_mutant_turns_shared_sweep_red(self, mutant, optimizer):
        report = CrashSweep(
            "txn-shared", optimizer, group_commit=8, threads=3, mutants=(mutant,)
        ).run()
        assert not report.ok, f"{mutant} not caught on {optimizer}"
        kinds = {violation.kind for violation in report.violations}
        assert TXN_EXPECTED_KIND[mutant] in kinds, report.violations

    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    @pytest.mark.parametrize("group_commit", [1, 8])
    def test_unmutated_sweeps_are_green(self, optimizer, group_commit):
        private = CrashSweep("txn", optimizer, group_commit=group_commit).run()
        assert private.ok, private.summary()
        shared = CrashSweep(
            "txn-shared", optimizer, group_commit=group_commit, threads=3
        ).run()
        assert shared.ok, shared.summary()


class TestWordHistory:
    def test_versions_round_trip(self):
        history = WordHistory()
        assert history.observe(ADDR, 10) == 1
        assert history.observe(ADDR, 20) == 2
        assert history.version_of(ADDR, 0) == 0
        assert history.version_of(ADDR, 10) == 1
        assert history.version_of(ADDR, 20) == 2
        assert history.version_of(ADDR, 99) is None
        assert history.value_of(ADDR, 2) == 20

    def test_duplicate_values_rejected(self):
        history = WordHistory()
        history.observe(ADDR, 10)
        history.observe(ADDR, 20)
        with pytest.raises(ValueError):
            history.observe(ADDR, 10)

    def test_unchanged_value_is_not_a_write(self):
        history = WordHistory()
        history.observe(ADDR, 10)
        assert history.observe(ADDR, 10) is None
        assert history.latest_version(ADDR) == 1


class TestDurabilityOracle:
    def _oracle(self):
        oracle = DurabilityOracle()
        oracle.history.observe(ADDR, 10)
        oracle.history.observe(ADDR, 20)
        return oracle

    def test_unsealed_words_may_hold_any_version(self):
        oracle = self._oracle()
        for value in (0, 10, 20):
            assert oracle.check_image({ADDR: value}) == []

    def test_sealed_floor_flags_older_versions(self):
        oracle = self._oracle()
        oracle.seal({ADDR: 2})
        violations = oracle.check_image({ADDR: 10})
        assert [v.kind for v in violations] == ["lost"]
        assert oracle.check_image({ADDR: 20}) == []

    def test_never_written_value_is_a_ghost(self):
        oracle = self._oracle()
        violations = oracle.check_image({ADDR: 999})
        assert [v.kind for v in violations] == ["ghost"]

    def test_ceiling_flags_future_versions(self):
        oracle = self._oracle()
        violations = oracle.check_image({ADDR: 20}, ceiling={ADDR: 1})
        assert [v.kind for v in violations] == ["ghost"]
        assert oracle.check_image({ADDR: 10}, ceiling={ADDR: 1}) == []

    def test_seal_only_raises_the_floor(self):
        oracle = self._oracle()
        oracle.seal({ADDR: 2})
        oracle.seal({ADDR: 1})  # an older CBO retiring later
        assert oracle.floor[ADDR] == 2
        assert oracle.seals == 2
