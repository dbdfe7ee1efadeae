"""Crash-recovery tests: durable state matches completed updates."""

import random
import zlib

import pytest

from repro.persist.api import PMemView
from repro.persist.flushopt import OPTIMIZER_NAMES, make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.recovery import CrashChecker, CrashReport
from repro.persist.structures import STRUCTURES
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def checker_for(structure_name, optimizer_name, policy_name):
    system = TimingSystem(
        TimingParams(num_threads=1, skip_it=optimizer_name == "skipit")
    )
    heap = SimHeap()
    optimizer = make_optimizer(optimizer_name, heap)
    if (
        STRUCTURES[structure_name].uses_pointer_tagging
        and not optimizer.supports_pointer_tagging_structures
    ):
        pytest.skip("combination excluded (pointer tagging)")
    policy = make_policy(policy_name)
    structure = STRUCTURES[structure_name](
        heap, field_stride=optimizer.field_stride
    )
    view = PMemView(system.threads[0], policy, optimizer)
    structure.initialize(view)
    return CrashChecker(system, structure, view)


def random_ops(seed, count=150, key_range=40):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        r = rng.random()
        key = rng.randint(1, key_range)
        ops.append(
            ("insert" if r < 0.5 else "delete" if r < 0.8 else "contains", key)
        )
    return ops


class TestCrashReport:
    def test_consistent_when_equal(self):
        report = CrashReport(reference={1, 2}, recovered={1, 2})
        assert report.consistent

    def test_lost_keys_detected(self):
        report = CrashReport(reference={1, 2}, recovered={1})
        assert report.lost == {2} and not report.consistent

    def test_ghost_keys_detected(self):
        report = CrashReport(reference={1}, recovered={1, 9})
        assert report.ghosts == {9} and not report.consistent


@pytest.mark.parametrize("structure_name", sorted(STRUCTURES))
@pytest.mark.parametrize("optimizer_name", OPTIMIZER_NAMES)
class TestCrashConsistency:
    """Every filter preserves durable linearizability of updates."""

    @pytest.mark.parametrize("policy_name", ["automatic", "nvtraverse", "manual"])
    def test_recovered_equals_reference(
        self, structure_name, optimizer_name, policy_name
    ):
        checker = checker_for(structure_name, optimizer_name, policy_name)
        # CRC-32, not hash(): str hashing varies with PYTHONHASHSEED
        seed = zlib.crc32(f"{structure_name}/{optimizer_name}".encode()) & 0xFFFF
        checker.apply(random_ops(seed=seed))
        report = checker.crash_and_check()
        assert report.consistent, (
            f"lost={sorted(report.lost)} ghosts={sorted(report.ghosts)}"
        )


class TestNonPersistentLoses:
    def test_none_policy_can_lose_updates(self):
        """Negative control: with no flushes, a crash may lose updates —
        the checker is not vacuously green."""
        checker = checker_for("list", "plain", "none")
        checker.apply([("insert", k) for k in range(1, 20)])
        report = checker.crash_and_check()
        assert report.lost  # unpersisted inserts vanished


class TestCrashMidstream:
    def test_repeated_crashes(self):
        checker = checker_for("hashtable", "skipit", "manual")
        for seed in range(3):
            checker.apply(random_ops(seed=seed, count=60))
            report = checker.crash_and_check()
            assert report.consistent
            # after a crash the structure keeps working on recovered state
            assert checker.apply([("contains", 1)]) is not None
