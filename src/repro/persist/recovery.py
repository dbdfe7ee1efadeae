"""Crash-recovery checking for the persistent structures.

Under every §7.4 persistence policy, each completed *update* operation is
sealed by a fence before the operation returns, so after a crash the
persisted image must decode to exactly the set of keys the completed
updates left behind.  :class:`CrashChecker` runs an operation sequence,
maintains the reference set, crashes the timing system (dropping all
cache state), and diffs the recovered keys against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.persist.api import PMemView
from repro.persist.structures.base import PersistentSet, persisted_reader
from repro.timing.system import TimingSystem


@dataclass
class CrashReport:
    """Outcome of one crash-recovery check."""

    reference: Set[int]
    recovered: Set[int]
    lost: Set[int] = field(default_factory=set)  # fenced but not recovered
    ghosts: Set[int] = field(default_factory=set)  # recovered but never live

    @property
    def consistent(self) -> bool:
        return not self.lost and not self.ghosts

    def __post_init__(self) -> None:
        self.lost = self.reference - self.recovered
        self.ghosts = self.recovered - self.reference


class CrashChecker:
    """Drives a structure, then crashes and validates recovery."""

    def __init__(
        self,
        system: TimingSystem,
        structure: PersistentSet,
        view: PMemView,
    ) -> None:
        self.system = system
        self.structure = structure
        self.view = view
        self.reference: Set[int] = set()

    def apply(self, operations: Sequence[Tuple[str, int]]) -> List[bool]:
        """Apply ('insert'|'delete'|'contains', key) ops, tracking the reference."""
        results = []
        for op, key in operations:
            if op == "insert":
                ok = self.structure.insert(self.view, key)
                if ok:
                    self.reference.add(key)
            elif op == "delete":
                ok = self.structure.delete(self.view, key)
                if ok:
                    self.reference.discard(key)
            elif op == "contains":
                ok = self.structure.contains(self.view, key)
            else:
                raise ValueError(f"unknown operation {op!r}")
            results.append(ok)
        return results

    def crash_and_check(self, at: Optional[int] = None) -> CrashReport:
        """Simulate power loss and decode the surviving image.

        With *at*, the crash is injected at that point in simulated time
        instead of now: in-flight writebacks whose completion lies beyond
        *at* are dropped, exactly as
        :meth:`~repro.timing.system.TimingSystem.persisted_image` computes
        crash images for the fault-injection sweep — one code path for both.
        """
        if at is None:
            persisted = self.system.crash()
        else:
            persisted = self.system.persisted_image(at)
        recovered = self.structure.recover_keys(persisted_reader(persisted))
        return CrashReport(reference=set(self.reference), recovered=recovered)
