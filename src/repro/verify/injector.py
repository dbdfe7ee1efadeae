"""Crash-point enumeration over both simulators.

The key trick is *crash-image equivalence*: neither simulator needs to be
re-run per crash point.

For the cycle-level :class:`~repro.uarch.soc.Soc`, a crash at cycle N
keeps exactly ``memory`` (main memory *is* the persistence domain —
dropping the volatile caches is conceptual), so the DRAM contents at the
end of cycle N *are* the crash image for a crash at N.  One run therefore
checks every crash point by inspecting DRAM once per boundary.

For the fast :class:`~repro.timing.system.TimingSystem`,
:meth:`~repro.timing.system.TimingSystem.persisted_image` plays the same
role: the persisted words plus every in-flight DRAM write whose
completion time has passed.  Checking it after every operation enumerates
all operation-boundary crash points, including the mid-writeback window
between a CBO.X's issue and the fence that retires it.

Floors (what *must* survive) come from the §4 contract, not from model
internals — a model bug must not be able to weaken the oracle that judges
it:

* Soc: a CBO.X covers every **same-core** store to its line that
  committed before the CBO fired (the L1 nacks CBOs while a same-line
  MSHR is live, so committed stores are always in the array by then).
  Remote stores may still sit unreplayed in a remote MSHR when the probe
  arrives, so they are conservatively excluded.
* TimingSystem: operations are atomic, so a CBO covers the full
  architectural line at issue.  A *skipped* CBO is the one exception: the
  model sets the skip bit at CBO issue (hardware sets it at the
  RootReleaseAck), so a foreign thread's writeback may still be in flight
  when skip legitimately reads as "persisted"; skipped CBOs therefore
  seal only what is durable or settled by the issuing thread's fence.

In both models the floor is *sealed* (becomes binding) only when a fence
of the issuing core/thread commits, per §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.uarch.cpu import Instr, _Status
from repro.uarch.requests import MemOp
from repro.verify.oracle import (
    DurabilityOracle,
    Violation,
    check_soc_skip_bits,
    check_timing_skip_bits,
)

#: program ops the oracle can track (value-unique stores, no INVAL/ZERO,
#: whose discard/zeroing semantics would make version tracking ambiguous)
TRACKABLE_OPS = frozenset(
    {
        MemOp.LOAD,
        MemOp.STORE,
        MemOp.CBO_CLEAN,
        MemOp.CBO_FLUSH,
        MemOp.CBO_RANGE_CLEAN,
        MemOp.CBO_RANGE_FLUSH,
        MemOp.FENCE,
    }
)

#: CBO ops that establish a durability floor when they fire
_FLOOR_OPS = frozenset(
    {
        MemOp.CBO_CLEAN,
        MemOp.CBO_FLUSH,
        MemOp.CBO_RANGE_CLEAN,
        MemOp.CBO_RANGE_FLUSH,
    }
)

_RANGE_OPS = frozenset({MemOp.CBO_RANGE_CLEAN, MemOp.CBO_RANGE_FLUSH})


def _covered_lines(instr: Instr, line_of, line_bytes: int) -> range:
    """Line base addresses an op covers: one line, or the whole range."""
    base = line_of(instr.address)
    if instr.op in _RANGE_OPS:
        last = line_of(instr.address + instr.length - 1)
        return range(base, last + 1, line_bytes)
    return range(base, base + 1, line_bytes)

#: events in these categories mark a cycle as a sampled crash point
SAMPLED_CATEGORIES = frozenset({"tilelink", "cbo", "core", "probe", "eviction"})

#: stop collecting after this many violations; a broken model would
#: otherwise fail at thousands of consecutive boundaries
MAX_VIOLATIONS = 20


@dataclass
class CrashPointReport:
    """Outcome of one crash-point sweep."""

    model: str  # "soc" | "timing"
    mode: str  # "sampled" | "exhaustive"
    crash_points: int = 0
    boundaries: int = 0  # cycles (soc) or ops (timing) traversed
    seals: int = 0
    words: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"{self.model}/{self.mode}: {self.crash_points} crash points "
            f"over {self.boundaries} boundaries, {self.seals} seals, "
            f"{self.words} words -> {status}"
        )


def _check_programs(programs: Sequence[Sequence[Instr]]) -> None:
    for program in programs:
        for instr in program:
            if instr.op not in TRACKABLE_OPS:
                raise ValueError(
                    f"oracle cannot track {instr.op}; use "
                    f"{sorted(op.value for op in TRACKABLE_OPS)}"
                )


class SocCrashInjector:
    """Enumerates crash points of a cycle-level run via engine cycle hooks.

    ``mode="exhaustive"`` checks the crash image every cycle;
    ``mode="sampled"`` checks only *interesting* cycles — any cycle with a
    TileLink message, CBO/FSHR activity, a fence commit, a DRAM write, or
    an instruction status change.  Sampled mode provably checks every
    cycle at which the crash image can differ from the previous one: DRAM
    only changes on a DRAM write, and floors only change on instruction
    boundaries.
    """

    def __init__(self, soc, mode: str = "sampled") -> None:
        if mode not in ("sampled", "exhaustive"):
            raise ValueError(f"unknown mode {mode!r}")
        self.soc = soc
        self.mode = mode
        self.oracle = DurabilityOracle()
        self.report = CrashPointReport(model="soc", mode=mode)
        self._owner: Dict[int, int] = {}  # word -> writing core
        self._line_words: Dict[int, Set[int]] = {}
        self._version_count: Dict[int, int] = {}
        self._slot_status: List[List[_Status]] = []
        # per core: (slot index, floor versions) for fired, unfenced CBOs
        self._pending: List[List[Tuple[int, Dict[int, int]]]] = []
        self._event_flag = False
        self._last_writes = 0
        self._bus = None

    # ------------------------------------------------------------- wiring
    def _prepare(self, programs: Sequence[List[Instr]]) -> None:
        _check_programs(programs)
        line_of = self.soc.params.l1.line_address
        for core_idx, program in enumerate(programs):
            for instr in program:
                if instr.op is not MemOp.STORE:
                    continue
                word = instr.address
                owner = self._owner.setdefault(word, core_idx)
                if owner != core_idx:
                    raise ValueError(
                        f"word {word:#x} written by cores {owner} and "
                        f"{core_idx}; the oracle needs one writer per word"
                    )
                self._line_words.setdefault(line_of(word), set()).add(word)
                self.oracle.history.observe(word, instr.data)
                self._version_count.setdefault(word, 0)
        self.report.words = len(self._owner)
        padded: List[List[Instr]] = list(programs) + [
            [] for _ in range(len(self.soc.cores) - len(programs))
        ]
        self._slot_status = [
            [_Status.WAITING] * len(program) for program in padded
        ]
        self._pending = [[] for _ in padded]
        # the static history pre-populates versions; reset the live counts
        for word in self._version_count:
            self._version_count[word] = 0

    def _on_event(self, event) -> None:
        if event.category in SAMPLED_CATEGORIES:
            self._event_flag = True

    # ---------------------------------------------------------------- run
    def run(
        self,
        programs: Sequence[List[Instr]],
        max_cycles: Optional[int] = 500_000,
    ) -> CrashPointReport:
        """Run *programs* on the Soc, checking every crash point."""
        from repro.obs.attach import acquire_bus, release_bus

        self._prepare(programs)
        self._bus = acquire_bus(self.soc)
        self._bus.subscribe(self._on_event)
        self.soc.engine.add_cycle_hook(self._on_cycle)
        self._last_writes = self.soc.memory.writes
        try:
            self.soc.run_programs(programs, max_cycles=max_cycles)
            self.soc.drain()
            self._check(self.soc.engine.cycle)  # quiescent final image
        finally:
            self.soc.engine.remove_cycle_hook(self._on_cycle)
            self._bus.unsubscribe(self._on_event)
            release_bus(self.soc)
            self._bus = None
        self.report.seals = self.oracle.seals
        return self.report

    # -------------------------------------------------------- cycle hook
    def _on_cycle(self, cycle: int) -> None:
        self.report.boundaries += 1
        interesting = self._event_flag or self.mode == "exhaustive"
        self._event_flag = False
        writes = self.soc.memory.writes
        if writes != self._last_writes:
            self._last_writes = writes
            interesting = True
        if self._scan_slots():
            interesting = True
        if interesting:
            self._check(cycle)

    def _scan_slots(self) -> bool:
        """Track instruction completions; returns True on any transition."""
        changed = False
        line_of = self.soc.params.l1.line_address
        for core_idx, core in enumerate(self.soc.cores):
            statuses = self._slot_status[core_idx]
            for idx, slot in enumerate(core.slots):
                current = slot.status
                if current is statuses[idx]:
                    continue
                previous = statuses[idx]
                statuses[idx] = current
                changed = True
                op = slot.instr.op
                if op is MemOp.STORE and previous is _Status.WAITING:
                    # data is in the array (hit) or RPQ (miss) from the
                    # fire cycle on; count it for the ghost ceiling now
                    self._version_count[slot.instr.address] += 1
                elif op in _FLOOR_OPS and previous is _Status.WAITING:
                    # a ranged CBO floors every covered line: the L1
                    # nacks dependent lines mid-sweep exactly as it
                    # nacks a per-line CBO, so any same-core store that
                    # committed before the range fired is in the array
                    # when the cursor reaches its line
                    line_bytes = self.soc.params.l1.line_bytes
                    floors = {}
                    for line in _covered_lines(
                        slot.instr, line_of, line_bytes
                    ):
                        for w in self._line_words.get(line, ()):
                            if self._owner[w] == core_idx:
                                floors[w] = self._version_count[w]
                    self._pending[core_idx].append((idx, floors))
                elif op is MemOp.FENCE and current is _Status.DONE:
                    keep = []
                    for cbo_idx, floors in self._pending[core_idx]:
                        if cbo_idx < idx:
                            self.oracle.seal(floors)
                        else:  # pragma: no cover - younger CBO, keep
                            keep.append((cbo_idx, floors))
                    self._pending[core_idx] = keep
        return changed

    # -------------------------------------------------------------- check
    def _check(self, cycle: int) -> None:
        if len(self.report.violations) >= MAX_VIOLATIONS:
            return
        self.report.crash_points += 1
        image = {w: self.soc.persisted_value(w) for w in self._owner}
        found = self.oracle.check_image(
            image, at=cycle, ceiling=self._version_count
        )
        found += check_soc_skip_bits(self.soc, at=cycle)
        self.report.violations.extend(found[:MAX_VIOLATIONS])


class TimingCrashInjector:
    """Enumerates every operation-boundary crash point of a timing run.

    Drives a *schedule* — a global sequence of ``(thread id, Instr)``
    pairs — through a :class:`~repro.timing.system.TimingSystem` and
    checks the crash image after every operation.  Because the in-flight
    writeback window is real in the timing model, this exercises crashes
    *between* a CBO.X and its completion, which the Soc's cycle hook sees
    as mid-FSHR cycles.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.oracle = DurabilityOracle()
        self.report = CrashPointReport(model="timing", mode="sampled")
        self._line_words: Dict[int, Set[int]] = {}
        self._version_count: Dict[int, int] = {}
        self._pending: List[List[Dict[int, int]]] = []

    def _prepare(self, schedule: Sequence[Tuple[int, Instr]]) -> None:
        _check_programs([[instr for _, instr in schedule]])
        for _, instr in schedule:
            if instr.op is not MemOp.STORE:
                continue
            word = instr.address
            line = self.system.line_of(word)
            self._line_words.setdefault(line, set()).add(word)
            self.oracle.history.observe(word, instr.data)
            self._version_count.setdefault(word, 0)
        self.report.words = len(self._version_count)
        self._pending = [[] for _ in self.system.threads]

    def _guaranteed_floors(self, tid: int, line: int) -> Dict[int, int]:
        """Versions a *skipped* CBO may seal: durable or settled by our fence."""
        image = dict(self.system.persisted)
        for wb in self.system.in_flight:
            if wb.tid == tid:
                image.update(wb.values)
        floors = {}
        for w in self._line_words.get(line, ()):
            version = self.oracle.history.version_of(w, image.get(w, 0))
            if version is not None:
                floors[w] = version
        return floors

    def run(self, schedule: Sequence[Tuple[int, Instr]]) -> CrashPointReport:
        self._prepare(schedule)
        system = self.system
        for step, (tid, instr) in enumerate(schedule):
            ctx = system.threads[tid]
            op = instr.op
            if op is MemOp.STORE:
                ctx.store(instr.address, instr.data)
                self._version_count[instr.address] += 1
            elif op is MemOp.LOAD:
                ctx.load(instr.address)
            elif op in (MemOp.CBO_CLEAN, MemOp.CBO_FLUSH):
                line = system.line_of(instr.address)
                skipped_before = system.stats.get("cbo_skipped")
                if op is MemOp.CBO_CLEAN:
                    ctx.clean(instr.address)
                else:
                    ctx.flush(instr.address)
                if system.stats.get("cbo_skipped") > skipped_before:
                    floors = self._guaranteed_floors(tid, line)
                else:
                    # §4 contract: an issued CBO covers the whole
                    # architectural line as of its issue
                    floors = {
                        w: self._version_count[w]
                        for w in self._line_words.get(line, ())
                    }
                self._pending[tid].append(floors)
            elif op in _RANGE_OPS:
                line_bytes = system.params.line_bytes
                lines = _covered_lines(instr, system.line_of, line_bytes)
                skipped_before = system.stats.get("cbo_range_line_skipped")
                if op is MemOp.CBO_RANGE_CLEAN:
                    ctx.clean_range(instr.address, instr.length)
                else:
                    ctx.flush_range(instr.address, instr.length)
                any_skipped = (
                    system.stats.get("cbo_range_line_skipped")
                    > skipped_before
                )
                floors = {}
                for line in lines:
                    if any_skipped:
                        # the sweep filtered at least one line and the
                        # stat cannot attribute which: fall back to the
                        # skipped-CBO rule for the whole range (durable
                        # or settled by this thread's fence — which now
                        # includes the sweep's own in-flight payloads)
                        floors.update(self._guaranteed_floors(tid, line))
                    else:
                        for w in self._line_words.get(line, ()):
                            floors[w] = self._version_count[w]
                self._pending[tid].append(floors)
            elif op is MemOp.FENCE:
                ctx.fence()
                for floors in self._pending[tid]:
                    self.oracle.seal(floors)
                self._pending[tid].clear()
            self.report.boundaries += 1
            self._check(step)
        self.report.seals = self.oracle.seals
        return self.report

    def _check(self, step: int) -> None:
        if len(self.report.violations) >= MAX_VIOLATIONS:
            return
        self.report.crash_points += 1
        image = self.system.persisted_image()
        found = self.oracle.check_image(
            image, at=step, ceiling=self._version_count
        )
        found += check_timing_skip_bits(self.system, at=step)
        self.report.violations.extend(found[:MAX_VIOLATIONS])
