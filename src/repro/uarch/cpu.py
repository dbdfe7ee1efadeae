"""Simplified BOOM core front-end: ROB + LSU with LDQ/STQ semantics.

The model keeps the rules that matter for the paper's mechanisms
(§3.1-§3.2, §5.1, §5.3):

* loads fire out of order as soon as they have no older unresolved
  same-line STQ dependence and no older pending fence;
* stores and CBO.X are STQ requests: they fire only when every older
  instruction has completed (the ROB head points at them), hence in
  program order;
* a CBO.X is *complete* as soon as the flush unit buffers (or drops) it —
  the ROB may commit past it while the writeback proceeds asynchronously;
* a fence completes only when every older instruction is done, the L1 has
  no in-flight fills, **and** the flush counter is zero (``flushing`` low,
  §5.3);
* a nacked request is retried every ``RETRY_DELAY`` cycles, as the LSU
  does.  A nacked STQ request (store, cbo.zero, CBO.X, CBO.RANGE) is
  *parked* instead of re-fired: it sits at the ROB head, so nothing
  older fires in its cycle and its retry cadence (the nack cycle plus
  k·``RETRY_DELAY``) is fixed.  While the L1's pure nack decision
  (:meth:`~repro.uarch.l1.L1DataCache.nack_keys`) still says nack, the
  slot is no fast-forward event; every stepped cycle counts the
  retries the polling LSU made since the last one (core ``nacks`` plus
  the decision's keys) and fires for real on the first cadence cycle
  whose decision passes.  Loads, which fire out of order and so can
  have their cadence shifted by the fire width, keep polling; so does
  every request of a core with an observability bus attached, whose
  flush-unit nacks are traced one instant per retry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.config import SoCParams
from repro.sim.engine import Engine
from repro.sim.stats import StatCounter, StatKeys, inc_all
from repro.uarch.l1 import FireStatus, L1DataCache
from repro.uarch.requests import MemOp, MemRequest

RETRY_DELAY = 2

# enum members bound once at import (see tests/test_hot_paths.py)
_LOAD = MemOp.LOAD
_STORE = MemOp.STORE
_CBO_CLEAN = MemOp.CBO_CLEAN
_CBO_FLUSH = MemOp.CBO_FLUSH
_CBO_INVAL = MemOp.CBO_INVAL
_CBO_ZERO = MemOp.CBO_ZERO
_CBO_RANGE_CLEAN = MemOp.CBO_RANGE_CLEAN
_CBO_RANGE_FLUSH = MemOp.CBO_RANGE_FLUSH
_CBO_RANGE_INVAL = MemOp.CBO_RANGE_INVAL
_FENCE = MemOp.FENCE
_OK_NOW = FireStatus.OK_NOW
_NACK = FireStatus.NACK


@dataclass
class Instr:
    """One instruction of a core's (pre-decoded) program."""

    op: MemOp
    address: int = 0
    data: Optional[int] = None
    length: int = 0  # byte length of a CBO.RANGE sweep

    @staticmethod
    def load(address: int) -> "Instr":
        return Instr(_LOAD, address)

    @staticmethod
    def store(address: int, data: int) -> "Instr":
        return Instr(_STORE, address, data)

    @staticmethod
    def clean(address: int) -> "Instr":
        return Instr(_CBO_CLEAN, address)

    @staticmethod
    def flush(address: int) -> "Instr":
        return Instr(_CBO_FLUSH, address)

    @staticmethod
    def inval(address: int) -> "Instr":
        return Instr(_CBO_INVAL, address)

    @staticmethod
    def zero(address: int) -> "Instr":
        return Instr(_CBO_ZERO, address)

    @staticmethod
    def clean_range(address: int, length: int) -> "Instr":
        return Instr(_CBO_RANGE_CLEAN, address, length=length)

    @staticmethod
    def flush_range(address: int, length: int) -> "Instr":
        return Instr(_CBO_RANGE_FLUSH, address, length=length)

    @staticmethod
    def inval_range(address: int, length: int) -> "Instr":
        return Instr(_CBO_RANGE_INVAL, address, length=length)

    @staticmethod
    def fence() -> "Instr":
        return Instr(_FENCE)


class _Status(enum.Enum):
    WAITING = "waiting"
    FIRED = "fired"
    DONE = "done"


_WAITING = _Status.WAITING
_FIRED = _Status.FIRED
_DONE = _Status.DONE


@dataclass(slots=True)
class _Slot:
    instr: Instr
    op: MemOp  # == instr.op, denormalized for the per-cycle window walks
    line: int = -1  # line address of instr.address (valid for memory ops)
    lines: Optional[Tuple[int, ...]] = None  # covered lines of a CBO.RANGE
    status: _Status = _Status.WAITING
    retry_at: int = 0  # next retry (cadence) cycle of a nacked request
    # parked STQ request: the keys its nack decision last returned
    nack: Optional[StatKeys] = None
    done_at: Optional[int] = None  # for fixed-latency completions
    req_id: Optional[int] = None
    value: Optional[int] = None  # load result
    wait_noted: bool = False  # fence: blocked-commit already counted


class Core:
    """One hardware thread executing a straight-line memory program."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        l1: L1DataCache,
        params: SoCParams,
        rob_entries: int = 32,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.l1 = l1
        self.params = params
        self.rob_entries = rob_entries
        self.slots: List[_Slot] = []
        self.head = 0
        self.stats = StatCounter()
        self.obs = None  # observability bus; attached via repro.obs.attach
        self.finish_cycle: Optional[int] = None
        self._by_req: Dict[int, _Slot] = {}
        self._line_of = params.l1.line_address
        # count of FIRED slots with a fixed-latency done_at pending; all
        # of them live inside the ROB window (commit stops at the first
        # non-done slot, so fired slots can never fall behind the head)
        self._timed_inflight = 0
        # index of the last LOAD in the program: past it, a blocked
        # window can stop scanning early (only loads fire out of order)
        self._max_load_index = -1
        l1.resp_sink = self
        engine.register(self)

    # ------------------------------------------------------------- program
    def run_program(self, program: List[Instr]) -> None:
        """Load a fresh program; the engine then executes it."""
        line_of = self._line_of
        line_bytes = self.params.l1.line_bytes
        self.slots = []
        for instr in program:
            slot = _Slot(instr, instr.op, line_of(instr.address))
            if instr.op.is_cbo_range:
                # younger loads must order against every covered line,
                # not just the base line
                last = line_of(instr.address + instr.length - 1)
                slot.lines = tuple(range(slot.line, last + 1, line_bytes))
            self.slots.append(slot)
        self.head = 0
        self.finish_cycle = None
        self._by_req.clear()
        self._timed_inflight = 0
        self._max_load_index = -1
        for index, instr in enumerate(program):
            if instr.op is _LOAD:
                self._max_load_index = index

    @property
    def done(self) -> bool:
        return self.head >= len(self.slots)

    def load_result(self, index: int) -> Optional[int]:
        """Value returned by the load at program position *index*."""
        return self.slots[index].value

    # ---------------------------------------------------------------- tick
    def tick(self, cycle: int) -> None:
        """One cycle: complete timed ops, fire the window, commit.

        A single forward pass over the ROB window fuses what used to be
        separate complete/fire sweeps.  Eligibility of a slot depends
        only on *older* slots, and walking in program order applies an
        older slot's completion (or fence commit) before any younger
        slot checks it — exactly the order the two-pass version
        produced — while the blocking state (``all_older_done``, older
        fence, older STQ lines) is carried forward instead of rescanned
        per slot (the old O(n²) ``_eligible`` walk).
        """
        slots = self.slots
        head = self.head
        if head >= len(slots):
            return
        width = self.params.lsu_fire_width
        max_load = self._max_load_index
        note_progress = self.engine.note_progress
        end = head + self.rob_entries
        if end > len(slots):
            end = len(slots)
        fired = 0
        timed_ahead = self._timed_inflight
        all_older_done = True
        older_fence = False
        older_stq_lines = None
        for index in range(head, end):
            # Nothing ahead can act: no timed completions left in the
            # window and no slot can fire (width exhausted, or firing is
            # blocked and no out-of-order load remains ahead).
            if timed_ahead <= 0 and (
                fired >= width
                or (not all_older_done and (older_fence or index > max_load))
            ):
                break
            slot = slots[index]
            status = slot.status
            if status is _FIRED:
                done_at = slot.done_at
                if done_at is not None:
                    timed_ahead -= 1
                    if cycle >= done_at:
                        slot.status = status = _DONE
                        self._timed_inflight -= 1
                        note_progress()
            elif status is _WAITING and fired < width and cycle >= slot.retry_at:
                op = slot.op
                if op is _FENCE:
                    if all_older_done:
                        self._try_fence(index, slot, cycle)
                        status = slot.status
                elif op is _LOAD:
                    if not older_fence and (
                        older_stq_lines is None
                        or slot.line not in older_stq_lines
                    ):
                        self._fire(slot, cycle)
                        status = slot.status
                        fired += 1
                elif all_older_done:
                    if slot.nack is None:
                        self._fire(slot, cycle)
                        fired += 1
                    elif self._retry_parked(slot, cycle):
                        fired += 1
                    status = slot.status
            if status is not _DONE:
                all_older_done = False
                op = slot.op
                if op is _FENCE:
                    older_fence = True
                elif op.is_stq and index < max_load:
                    # the line set only gates younger *loads*; past the
                    # program's last load nothing ever consults it
                    if older_stq_lines is None:
                        older_stq_lines = set()
                    if slot.lines is not None:
                        older_stq_lines.update(slot.lines)
                    else:
                        older_stq_lines.add(slot.line)
        self._commit(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle this core could act (fast-forward hook).

        Timed completions of fired slots and nack retries of slots that
        are *currently eligible to fire* are reported.  A slot blocked by
        older instructions contributes nothing — it is unblocked only by
        an older completion, and every such completion is itself an
        event: timed ones are reported here, L1 grants and flush acks by
        the responding components.  The engine therefore steps on the
        unblocking cycle, re-evaluates this hook, and the formerly
        blocked slot's retry is picked up then; skipped cycles stay
        strict no-ops.

        A parked request contributes nothing while its nack decision
        still says nack: its retries change no state, and the decision
        reads only this core's L1, which acts only in stepped cycles.
        The hook re-evaluates the decision (the engine calls it at the
        end of a stepped cycle before any jump) and caches its keys for
        the retries ``tick`` then counts in bulk.  Once the decision
        passes, the slot is unparked and reports its next cadence cycle,
        not ``cycle + 1``: the polling LSU would fire only then.
        """
        slots = self.slots
        head = self.head
        if head >= len(slots):
            return None
        max_load = self._max_load_index
        floor = cycle + 1
        best: Optional[int] = None
        # Single pass mirroring tick's fused walk: track the blocking
        # state older slots impose on younger ones and bail out once no
        # timed completion remains ahead and nothing younger can fire.
        timed_ahead = self._timed_inflight
        all_older_done = True
        older_fence = False
        older_stq_lines = None
        end = head + self.rob_entries
        if end > len(slots):
            end = len(slots)
        for index in range(head, end):
            if (
                timed_ahead <= 0
                and not all_older_done
                and (older_fence or index > max_load)
            ):
                break
            slot = slots[index]
            status = slot.status
            if status is _FIRED:
                done_at = slot.done_at
                if done_at is not None:
                    timed_ahead -= 1
                    when = done_at if done_at > floor else floor
                    if best is None or when < best:
                        best = when
            elif status is _WAITING:
                op = slot.op
                if op is _FENCE:
                    if all_older_done and self._fence_blocker() is None:
                        return floor
                elif op is _LOAD:
                    if not older_fence and (
                        older_stq_lines is None
                        or slot.line not in older_stq_lines
                    ):
                        retry = slot.retry_at
                        if retry <= floor:
                            return floor
                        if best is None or retry < best:
                            best = retry
                elif all_older_done:
                    if slot.nack is not None:
                        # parked: re-evaluate the decision (an attached
                        # bus turns parking off)
                        instr = slot.instr
                        slot.nack = (
                            None
                            if self.obs is not None
                            else self.l1.nack_keys(op, instr.address, instr.length)
                        )
                    if slot.nack is None:
                        retry = slot.retry_at
                        if retry <= floor:
                            return floor
                        if best is None or retry < best:
                            best = retry
            if status is not _DONE:
                all_older_done = False
                op = slot.op
                if op is _FENCE:
                    older_fence = True
                elif op.is_stq and index < max_load:
                    # the line set only gates younger *loads*; past the
                    # program's last load nothing ever consults it
                    if older_stq_lines is None:
                        older_stq_lines = set()
                    if slot.lines is not None:
                        older_stq_lines.update(slot.lines)
                    else:
                        older_stq_lines.add(slot.line)
        return best

    def _eligible(self, index: int, slot: _Slot) -> bool:
        """Reference form of the fire-ordering rules (§3.1-§3.2).

        ``tick`` enforces the same rules with carried-forward blocking
        state instead of this per-slot rescan; the method is kept as the
        readable specification and is pinned by the load-bypass ordering
        unit tests.
        """
        instr = slot.instr
        if instr.op is _LOAD:
            line = self.params.l1.line_address(instr.address)
            for older in self.slots[self.head : index]:
                if older.status is _DONE:
                    continue
                o = older.instr
                if o.op is _FENCE:
                    return False
                if o.op.is_stq:
                    if o.op.is_cbo_range:
                        base = self.params.l1.line_address(o.address)
                        last = self.params.l1.line_address(
                            o.address + o.length - 1
                        )
                        if base <= line <= last:
                            return False
                    elif self.params.l1.line_address(o.address) == line:
                        return False
            return True
        # STQ requests (stores, CBO.X) fire at the ROB head, in order
        return all(
            older.status is _DONE for older in self.slots[self.head : index]
        )

    def _fence_blocker(self) -> Optional[str]:
        """What keeps a fence from committing right now (§5.3), if anything."""
        if self.l1.flush_unit.flushing:
            return "flush"
        if any(m.busy for m in self.l1.mshrs):
            return "mshr"
        if not self.l1.wbu.wb_rdy:
            return "wbu"
        return None

    def _try_fence(self, index: int, slot: _Slot, cycle: int) -> None:
        """Fence commit conditions (§5.3): prior ops done, no pending flushes.

        The caller (``tick``'s fused walk) guarantees every older slot
        is already DONE; only the flush/MSHR/WBU blockers remain.
        """
        blocker = self._fence_blocker()
        if blocker is not None:
            # Counted once per fence, not once per waiting cycle, so the
            # stat is identical whether idle cycles are stepped or skipped
            # by the engine's fast-forward.
            if not slot.wait_noted:
                slot.wait_noted = True
                self.stats.inc(f"fence_wait_{blocker}")
            return
        slot.status = _DONE
        self.stats.inc("fences")
        if self.obs is not None:
            self.obs.emit(
                cycle,
                "core",
                "fence_commit",
                track=f"core{self.core_id}",
                index=index,
            )
        self.engine.note_progress()

    def _retry_parked(self, slot: _Slot, cycle: int) -> bool:
        """Catch a parked request up to *cycle*; True if it retried now.

        Cadence cycles before *cycle* were skipped by the engine's
        fast-forward, so nothing acted in them: each nacked with the keys
        ``next_event_cycle`` cached at the last stepped cycle.  On a
        cadence cycle the decision is asked afresh: a nack counts one
        more retry (it takes a fire slot, as the polled nack did), a pass
        fires the request for real.
        """
        retry_at = slot.retry_at
        if retry_at < cycle:
            missed = (cycle - retry_at + RETRY_DELAY - 1) // RETRY_DELAY
            self.stats.counts["nacks"] += missed
            inc_all(slot.nack, missed)
            retry_at += missed * RETRY_DELAY
            slot.retry_at = retry_at
            if retry_at > cycle:
                return False
        instr = slot.instr
        nack = self.l1.nack_keys(slot.op, instr.address, instr.length)
        if nack is None or self.obs is not None:
            slot.nack = None
            self._fire(slot, cycle)
            return True
        slot.nack = nack
        slot.retry_at = cycle + RETRY_DELAY
        self.stats.counts["nacks"] += 1
        inc_all(nack)
        return True

    def _fire(self, slot: _Slot, cycle: int) -> None:
        instr = slot.instr
        request = MemRequest(
            op=instr.op,
            address=instr.address,
            data=instr.data,
            length=instr.length,
        )
        if self.obs is not None:
            # ambient cause: spans opened while the L1 handles this fire
            # (flush-queue entries, MSHRs) record which request caused them
            with self.obs.causal(f"core{self.core_id}.req{request.req_id}"):
                outcome = self.l1.fire(request, cycle)
        else:
            outcome = self.l1.fire(request, cycle)
        if outcome.status is _NACK:
            slot.retry_at = cycle + RETRY_DELAY
            self.stats.inc("nacks")
            if self.obs is None:
                # park an STQ request (a load's nack carries no keys: it polls)
                slot.nack = outcome.nack
            return
        self.engine.note_progress()
        slot.status = _FIRED
        slot.req_id = request.req_id
        if outcome.status is _OK_NOW:
            if instr.op is _LOAD:
                slot.value = outcome.value
                slot.done_at = cycle + self.params.latencies.l1_hit
            else:
                # stores/CBOs are complete once the cache accepts them
                slot.done_at = cycle + 1
            self._timed_inflight += 1
        else:  # OK_LATER: load data arrives via mem_response
            self._by_req[request.req_id] = slot
        self.stats.inc(instr.op.stat_key)

    def _commit(self, cycle: int) -> None:
        slots = self.slots
        head = self.head
        while head < len(slots) and slots[head].status is _DONE:
            head += 1
        if head != self.head:
            self.head = head
            self.engine.note_progress()
        if head >= len(slots) and self.finish_cycle is None:
            self.finish_cycle = cycle
            if self.obs is not None:
                self.obs.emit(
                    cycle,
                    "core",
                    "program_done",
                    track=f"core{self.core_id}",
                    instructions=len(self.slots),
                )

    # --------------------------------------------------------- L1 callback
    def mem_response(self, req_id: int, value: int) -> None:
        slot = self._by_req.pop(req_id, None)
        if slot is None:
            return
        slot.value = value
        slot.status = _DONE
        self.engine.note_progress()
