"""The flush unit (§5.2-§5.4) with Skip It filtering (§6).

The flush unit lives inside the L1 data cache (Figure 8).  It owns:

* the **flush queue** buffering incoming CBO.X requests, which lets the
  LSU commit a CBO.X as soon as it is buffered;
* eight **FSHRs** executing dequeued requests asynchronously;
* the **flush counter** tracking outstanding writebacks; fences commit
  only while it is zero (``flushing`` low, §5.3);
* the interference machinery of §5.4: pending queue entries are downgraded
  when probes (``probe_invalidate``) or evictions (``evict_invalidate``)
  change line state, ``flush_rdy`` blocks probes/evictions while an FSHR
  is mutating line state, and dequeue is gated on ``probe_rdy`` and
  ``wb_rdy``.

Skip It (§6.1): when the skip bit says the line is persisted (hit, clean,
skip set), the CBO.X is dropped before it ever enters the queue — saving
the queue/FSHR occupancy and the round trip to L2.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.flush_queue import (
    CboKind,
    FlushQueue,
    FlushRequest,
    RangedFlushRequest,
)
from repro.core.fshr import Fshr, FshrState, release_shrink
from repro.sim.config import SoCParams
from repro.sim.stats import StatCounter, StatKeys, inc_all
from repro.tilelink.messages import root_release
from repro.tilelink.permissions import Cap, Perm

if TYPE_CHECKING:  # avoid a circular import with repro.uarch
    from repro.uarch.arrays import MetaEntry


class OfferResult(enum.Enum):
    """Outcome of offering a CBO.X to the flush unit."""

    ACCEPTED = "accepted"  # buffered in the flush queue
    SKIPPED = "skipped"  # dropped by Skip It (persisted line)
    COALESCED = "coalesced"  # merged with a pending same-line same-kind entry
    NACK = "nack"  # flush queue full; LSU must retry


# the L1 stat each outcome bumps, per-line and ranged, as member
# attributes (see ``MemOp.is_cbo``): the L1 counts one on every CBO fire
for _result in OfferResult:
    _result.stat_key = f"cbo_{_result.value}"
    _result.range_stat_key = f"cbo_range_{_result.value}"
del _result

# enum members bound once at import (see tests/test_hot_paths.py)
_ACCEPTED = OfferResult.ACCEPTED
_SKIPPED = OfferResult.SKIPPED
_COALESCED = OfferResult.COALESCED
_NACK = OfferResult.NACK
_INVALID = FshrState.INVALID
_META_WRITE = FshrState.META_WRITE
_FILL_BUFFER = FshrState.FILL_BUFFER
_ROOT_RELEASE_DATA = FshrState.ROOT_RELEASE_DATA
_ROOT_RELEASE = FshrState.ROOT_RELEASE
_ROOT_RELEASE_ACK = FshrState.ROOT_RELEASE_ACK
_RANGE_SCAN = FshrState.RANGE_SCAN
_RANGE_META_WRITE = FshrState.RANGE_META_WRITE
_RANGE_FILL_BUFFER = FshrState.RANGE_FILL_BUFFER
_RANGE_RELEASE_DATA = FshrState.RANGE_RELEASE_DATA
_RANGE_RELEASE = FshrState.RANGE_RELEASE
_RANGE_RELEASE_ACK = FshrState.RANGE_RELEASE_ACK
_CLEAN = CboKind.CLEAN
_FLUSH = CboKind.FLUSH
_INVAL = CboKind.INVAL
_NONE = Perm.NONE


class FlushUnit:
    """Flush queue + FSHRs + flush counter, embedded in one L1."""

    def __init__(self, l1, params: SoCParams) -> None:
        self.l1 = l1
        self.params = params
        fu = params.flush_unit
        self.queue = FlushQueue(fu.flush_queue_depth)
        self.fshrs: List[Fshr] = [Fshr(i) for i in range(fu.num_fshrs)]
        self._rr_next = 0  # round-robin allocation pointer (§5.2)
        # line address -> busy FSHR; offer() nacks dependents, so at most
        # one FSHR ever runs a given line — the map replaces the
        # per-query linear scan over all eight FSHRs
        self._fshr_by_line: Dict[int, Fshr] = {}
        self.flush_counter = 0
        self.stats = StatCounter()
        # one shared stat-key tuple per nack rule (see offer_nack)
        self._nacks: Dict[str, StatKeys] = {
            key: ((self.stats, key),)
            for key in (
                "nacked_dependent",
                "nacked_full",
                "range_nacked_dependent",
                "range_nacked_full",
            )
        }
        self.obs = None  # observability bus; attached via repro.obs.attach

    # ------------------------------------------------------- observability
    @property
    def _track(self) -> str:
        return f"core{self.l1.agent_id}.flush_unit"

    def _obs_instant(self, name: str, address: int, kind: CboKind) -> None:
        self.obs.emit(
            self.l1.engine.cycle,
            "cbo",
            name,
            track=self._track,
            address=address,
            kind=kind.value,
        )

    # ------------------------------------------------------------- signals
    @property
    def flushing(self) -> bool:
        """High while any CBO.X is pending; gates fence commit (§5.3)."""
        return self.flush_counter > 0

    @property
    def flush_rdy(self) -> bool:
        """Low while any FSHR may still mutate line state (§5.4.1).

        ``range_scan`` and ``range_release_ack`` are exempt like the
        per-line ack state: a scanning range FSHR has not touched the
        cursor line yet (it samples metadata fresh next cycle), so
        probes, evictions and demand-miss evictions proceed against any
        line the sweep has not reached — the in-flight range yields.
        """
        for fshr in self.fshrs:
            state = fshr.state
            if (
                state is not _INVALID
                and state is not _ROOT_RELEASE_ACK
                and state is not _RANGE_SCAN
                and state is not _RANGE_RELEASE_ACK
            ):
                return False
        return True

    # ------------------------------------------------------------- queries
    def pending_for(self, address: int) -> bool:
        """Any queue entry or busy FSHR for this line?"""
        return self.queue.has_line(address) or address in self._fshr_by_line

    def queue_pending_for(self, address: int) -> bool:
        return self.queue.has_line(address)

    def fshr_for(self, address: int) -> Optional[Fshr]:
        return self._fshr_by_line.get(address)

    def store_may_proceed(self, address: int) -> bool:
        """The three store conditions of §5.3.

        A store to a line with a pending CBO.X may only proceed when the
        request is already in an FSHR, that FSHR runs a CBO.CLEAN, and the
        line either was not dirty or the data buffer is already filled —
        guaranteeing the store's data is not swept up by the writeback.
        """
        if self.queue.has_line(address):
            return False
        fshr = self.fshr_for(address)
        if fshr is None:
            return True
        if not fshr.is_clean:
            return False
        request = fshr.request
        assert request is not None
        if request.is_dirty and not fshr.buffer_filled:
            return False
        return True

    def load_forward(self, address: int) -> Optional[bytes]:
        """Forward a filled FSHR buffer to a missing load (§5.3)."""
        fshr = self.fshr_for(address)
        if fshr is not None and fshr.buffer_filled:
            return fshr.buffer
        return None

    def load_must_wait(self, address: int) -> bool:
        """A missing load must be nacked while this line's CBO.X is unresolved."""
        if self.queue.has_line(address):
            return True
        fshr = self.fshr_for(address)
        return fshr is not None and not fshr.buffer_filled

    # ------------------------------------------------------ nack decisions
    def _skips(self, kind: CboKind, hit: "Optional[Tuple[int, MetaEntry]]") -> bool:
        """Skip It (§6.1): hit + clean + skip set => the line is persisted.

        Never applies to cbo.inval, whose invalidation is architecturally
        required.
        """
        if hit is None or kind is _INVAL or not self.params.skip_it:
            return False
        entry = hit[1]
        return not entry.dirty and entry.skip

    def _merge_target(self, address: int, kind: CboKind) -> Optional[FlushRequest]:
        """The queued entry a CBO.X to *address* coalesces into (§5.3), if any.

        A same-kind CBO.X to a line already pending in the queue adds
        nothing — the queued request will write back every earlier store
        to the line.  (FSHR-resident requests are not coalesced with: the
        line state may have changed since dequeue.)  Cross-kind merging
        is the future-work optimization of §5.3, off by default: a
        CBO.CLEAN merges into a queued CBO.FLUSH (which does strictly
        more) and a CBO.FLUSH upgrades a queued CBO.CLEAN in place.
        cbo.inval never merges across kinds (its discard semantics
        differ), and neither does a ranged entry (an upgrade in place
        would upgrade every covered line, not just this one).
        """
        fu = self.params.flush_unit
        if not fu.coalesce:
            return None
        for pending in self.queue.entries_for(address):
            if pending.kind is kind or (
                fu.coalesce_cross_kind
                and not pending.is_range
                and pending.kind is not _INVAL
                and kind is not _INVAL
            ):
                return pending
        return None

    def _first_pending(self, base_line: int, last_line: int) -> Optional[int]:
        """First line of ``[base_line, last_line]`` with a pending CBO.X."""
        line_bytes = self.params.line_bytes
        line = base_line
        while line <= last_line:
            if self.pending_for(line):
                return line
            line += line_bytes
        return None

    def offer_nack(
        self,
        address: int,
        kind: CboKind,
        hit: "Optional[Tuple[int, MetaEntry]]",
    ) -> Optional[StatKeys]:
        """The stat keys :meth:`offer` would bump by nacking now, or ``None``.

        Pure: reads the queue and FSHRs, changes nothing.  A CBO.X that
        Skip It drops or that coalesces is taken whatever the queue
        holds; any other one must pass :meth:`_enqueue_nack`.
        """
        if self._skips(kind, hit) or self._merge_target(address, kind) is not None:
            return None
        return self._enqueue_nack(address)

    def _enqueue_nack(self, address: int) -> Optional[StatKeys]:
        """Why a CBO.X to *address* cannot enter the queue now, if it cannot.

        A CBO.X dependent on a pending same-line request must nack
        (§5.3): enqueueing it now would sample metadata that the pending
        request is about to change (e.g. a flush invalidating the line
        after this request recorded a hit).  So must one that finds the
        queue full.
        """
        if self.pending_for(address):
            return self._nacks["nacked_dependent"]
        if self.queue.full:
            return self._nacks["nacked_full"]
        return None

    def range_nack(self, base_line: int, last_line: int) -> Optional[StatKeys]:
        """The stat keys :meth:`offer_range` would bump by nacking now, or ``None``.

        Pure.  The §5.3 dependence rule applies across the whole range:
        any covered line with its own pending CBO.X nacks the ranged op
        (enqueueing now would race the pending request's state change).
        """
        if self._first_pending(base_line, last_line) is not None:
            return self._nacks["range_nacked_dependent"]
        if self.queue.full:
            return self._nacks["range_nacked_full"]
        return None

    def note_nack(
        self, nack: StatKeys, base_line: int, last_line: int, kind: CboKind
    ) -> None:
        """Count one nacked fire of a CBO covering ``[base_line, last_line]``.

        *nack* may come from the L1's own rule (``cbo_nack_mshr``) or
        from this unit's.  With a bus attached, a flush-unit nack is also
        traced as one ``nacked_*`` instant at the line that nacked it:
        the first pending covered line, else the base line.
        """
        inc_all(nack)
        if self.obs is not None and nack[0][0] is self.stats:
            line = self._first_pending(base_line, last_line)
            self._obs_instant(
                nack[0][1], base_line if line is None else line, kind
            )

    # -------------------------------------------------------------- enqueue
    def offer(
        self,
        address: int,
        kind: CboKind,
        hit: "Optional[Tuple[int, MetaEntry]]",
    ) -> OfferResult:
        """Handle a CBO.X fired from the LSU.

        *hit* is the (way, metadata) pair when the line is present, or
        ``None`` on a miss; the metadata was fetched with the request, so
        no extra metadata-array access is charged (§5.2).
        """
        if self._skips(kind, hit):
            # drop the request outright: it never enters the queue
            self.stats.inc("skipped")
            if self.obs is not None:
                self._obs_instant("skipped", address, kind)
            return _SKIPPED
        pending = self._merge_target(address, kind)
        if pending is not None:
            if pending.kind is kind:
                self.stats.inc("coalesced")
            elif pending.kind is _FLUSH:
                # a clean merges into the queued flush
                self.stats.inc("coalesced_cross")
            else:
                # a flush upgrades the queued clean in place
                pending.kind = _FLUSH
                self.stats.inc("coalesced_cross_upgrade")
            if self.obs is not None:
                self._obs_instant("coalesced", address, kind)
            return _COALESCED
        nack = self._enqueue_nack(address)
        if nack is not None:
            self.note_nack(nack, address, address, kind)
            return _NACK
        if hit is not None:
            way, meta = hit
            request = FlushRequest(
                address=address,
                kind=kind,
                is_hit=True,
                is_dirty=meta.dirty,
                way=way,
                perm=meta.perm,
            )
        else:
            request = FlushRequest(
                address=address, kind=kind, is_hit=False, is_dirty=False
            )
        self.queue.push(request)
        self.flush_counter += 1
        self.stats.inc("enqueued")
        if self.obs is not None:
            # one span per CBO.X: flush-queue wait, then every FSHR FSM
            # state, closed by the RootReleaseAck (§5.2, Figure 7)
            self.obs.open_span(
                self.l1.engine.cycle,
                f"cbo:{request.flush_id}",
                "cbo",
                name=f"cbo.{kind.value}",
                track=self._track,
                state="queued",
                address=address,
                kind=kind.value,
                hit=request.is_hit,
                dirty=request.is_dirty,
            )
        return _ACCEPTED

    def offer_range(
        self, base_line: int, last_line: int, kind: CboKind
    ) -> OfferResult:
        """Handle a CBO.RANGE.* fired from the LSU: one entry, many lines.

        The whole range enters the flush queue as a *single* entry and
        holds a *single* flush-counter token — a younger fence treats
        the sweep as one ordering unit and commits once the final line's
        ack (or skip) lands.  No metadata is sampled here: the sweeping
        FSHR samples each line when its cursor arrives, so Skip It is
        consulted per line inside the sweep rather than at enqueue.
        """
        nack = self.range_nack(base_line, last_line)
        if nack is not None:
            self.note_nack(nack, base_line, last_line, kind)
            return _NACK
        line_bytes = self.params.line_bytes
        lines = (last_line - base_line) // line_bytes + 1
        covered = tuple(base_line + i * line_bytes for i in range(lines))
        request = RangedFlushRequest(
            address=base_line,
            kind=kind,
            is_hit=False,
            is_dirty=False,
            base=base_line,
            lines=lines,
            covered=covered,
        )
        self.queue.push(request)
        self.flush_counter += 1
        self.stats.inc("range_enqueued")
        self.stats.inc("range_lines", lines)
        if self.obs is not None:
            self.obs.open_span(
                self.l1.engine.cycle,
                f"cbo:{request.flush_id}",
                "cbo",
                name=f"cbo.range.{kind.value}",
                track=self._track,
                state="queued",
                address=base_line,
                kind=kind.value,
                lines=lines,
            )
        return _ACCEPTED

    # ------------------------------------------------- interference (§5.4)
    def probe_invalidate(self, address: int, cap: Cap) -> None:
        """Probe unit reports a downgrade of *address* (§5.4.1)."""
        if self.obs is not None:
            for entry in self.queue.entries_for(address):
                self.obs.annotate(
                    f"cbo:{entry.flush_id}", probe_downgraded=cap.name
                )
        touched = self.queue.probe_invalidate(address, cap)
        if touched:
            self.stats.inc("probe_invalidated", touched)
            if self.obs is not None:
                self.obs.emit(
                    self.l1.engine.cycle,
                    "cbo",
                    "probe_invalidated",
                    track=self._track,
                    address=address,
                    cap=cap.name,
                    touched=touched,
                )

    def evict_invalidate(self, address: int) -> None:
        """Writeback unit reports the eviction of *address* (§5.4.2)."""
        if self.obs is not None:
            for entry in self.queue.entries_for(address):
                self.obs.annotate(f"cbo:{entry.flush_id}", evict_downgraded=True)
        touched = self.queue.evict_invalidate(address)
        if touched:
            self.stats.inc("evict_invalidated", touched)
            if self.obs is not None:
                self.obs.emit(
                    self.l1.engine.cycle,
                    "cbo",
                    "evict_invalidated",
                    track=self._track,
                    address=address,
                    touched=touched,
                )

    # ---------------------------------------------------------------- tick
    def tick(self, cycle: int) -> None:
        # flush_counter == queued entries + busy FSHRs (offer increments,
        # deliver_ack decrements), so zero means both sub-steps are no-ops
        if not self.flush_counter:
            return
        self._step_fshrs(cycle)
        self._try_dequeue(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle the flush unit could act (fast-forward hook).

        An FSHR advances its FSM every tick until it awaits its ack; a
        queued request dequeues as soon as the §5.4 gates are open.  An
        ack-awaiting FSHR wakes only via channel D, which the L1 reports.
        """
        has_free = False
        for fshr in self.fshrs:
            state = fshr.state
            if state is _INVALID:
                has_free = True
            elif state is not _ROOT_RELEASE_ACK and state is not _RANGE_RELEASE_ACK:
                return cycle + 1
        if (
            has_free
            and not self.queue.empty
            and self.l1.probe_unit.probe_rdy
            and self.l1.wbu.wb_rdy
        ):
            return cycle + 1
        return None

    def _try_dequeue(self, cycle: int) -> None:
        """Allocate a free FSHR for the queue head when the way is clear.

        Dequeue requires ``probe_rdy`` (no probe racing the queue, §5.4.1)
        and ``wb_rdy`` (no eviction racing it, §5.4.2).
        """
        if self.queue.empty:
            return
        if not self.l1.probe_unit.probe_rdy or not self.l1.wbu.wb_rdy:
            return
        fshr = self._free_fshr()
        if fshr is None:
            return
        request = self.queue.pop()
        fill_cycles = (
            1
            if self.params.flush_unit.wide_data_array
            else self.params.line_bytes // 8
        )
        if request.is_range:
            # the sweep claims lines one at a time: _fshr_by_line maps
            # only the line under the cursor, from plan to ack
            fshr.accept_range(request, fill_cycles)
        else:
            fshr.accept(request, fill_cycles)
            self._fshr_by_line[request.address] = fshr
        self.stats.inc("fshr_allocated")
        if self.obs is not None:
            self.obs.transition(
                cycle, f"cbo:{request.flush_id}", fshr.state.value, fshr=fshr.index
            )
        self.l1.engine.note_progress()

    def _free_fshr(self) -> Optional[Fshr]:
        n = len(self.fshrs)
        for offset in range(n):
            fshr = self.fshrs[(self._rr_next + offset) % n]
            if not fshr.busy:
                self._rr_next = (fshr.index + 1) % n
                return fshr
        return None

    def _step_fshrs(self, cycle: int) -> None:
        for fshr in self.fshrs:
            state = fshr.state
            if (
                state is _INVALID
                or state is _ROOT_RELEASE_ACK
                or state is _RANGE_RELEASE_ACK
            ):
                continue
            request = fshr.request
            assert request is not None
            prev_state = fshr.state
            if state is _RANGE_SCAN:
                if not self._range_scan(fshr, request, cycle):
                    continue  # stalled this cycle: no action, no progress
            elif state is _META_WRITE or state is _RANGE_META_WRITE:
                self._apply_meta_write(request)
                fshr.after_meta_write()
            elif state is _FILL_BUFFER or state is _RANGE_FILL_BUFFER:
                line = self.l1.data.read_line(
                    self.l1.geometry.set_index(request.address), request.way
                )
                fshr.fill_step(line)
            elif state is _ROOT_RELEASE_DATA or state is _RANGE_RELEASE_DATA:
                self._send_release(fshr, request, with_data=True, cycle=cycle)
            elif state is _ROOT_RELEASE or state is _RANGE_RELEASE:
                self._send_release(fshr, request, with_data=False, cycle=cycle)
            if (
                self.obs is not None
                and fshr.state is not prev_state
                and fshr.state is not _INVALID
            ):
                self.obs.transition(
                    cycle, f"cbo:{request.flush_id}", fshr.state.value
                )
            self.l1.engine.note_progress()

    def _range_scan(self, fshr: Fshr, request: FlushRequest, cycle: int) -> bool:
        """Advance a ranged sweep by one line (one line per cycle).

        Samples the cursor line's metadata fresh — nothing was recorded
        at enqueue — and either filters it (Skip It: a persisted line
        costs this lookup and nothing else), defers it (a line with its
        own pending CBO.X is already covered by that entry's
        flush-counter token), or plans the per-line release pipeline.
        Returns False when the sweep is stalled this cycle: a probe or
        eviction is in flight, or the cursor line has an in-flight
        demand fill (``flush_rdy`` stays high in ``range_scan``, so the
        fill's own eviction cannot deadlock against this stall).
        """
        if not self.l1.probe_unit.probe_rdy or not self.l1.wbu.wb_rdy:
            return False  # yield to the probe/eviction, re-sample after
        line = request.base + request.cursor * self.params.line_bytes
        if line in self.l1._mshr_by_line:
            return False  # wait for the demand fill to land
        request.address = line
        if self.pending_for(line):
            request.is_hit = False
            request.is_dirty = False
            request.way = -1
            request.perm = _NONE
            self.stats.inc("range_line_deferred")
            if self.obs is not None:
                self._obs_instant("range_line_deferred", line, request.kind)
            self._range_advance(fshr, request, cycle)
            return True
        hit = self.l1.meta.lookup(line)
        if hit is not None:
            way, entry = hit
            request.is_hit = True
            request.is_dirty = entry.dirty
            request.way = way
            request.perm = entry.perm
            if (
                request.kind is not _INVAL
                and self.params.skip_it
                and not entry.dirty
                and entry.skip
            ):
                # Skip It inside the sweep (§6.1)
                self.stats.inc("range_line_skipped")
                if self.obs is not None:
                    self._obs_instant("range_line_skipped", line, request.kind)
                self._range_advance(fshr, request, cycle)
                return True
        else:
            request.is_hit = False
            request.is_dirty = False
            request.way = -1
            request.perm = _NONE
        fshr.plan_range_line()
        self._fshr_by_line[line] = fshr
        self.stats.inc("range_line_planned")
        return True

    def _range_advance(self, fshr: Fshr, request: FlushRequest, cycle: int) -> None:
        """One covered line is done; move the cursor or finish the sweep."""
        if fshr.advance_cursor():
            self.flush_counter -= 1
            self.stats.inc("range_completed")
            if self.obs is not None:
                self.obs.close_span(cycle, f"cbo:{request.flush_id}")
            fshr.complete_range()

    def _apply_meta_write(self, request: FlushRequest) -> None:
        """Invalidate (flush/inval) or clean (clear dirty) the metadata."""
        entry = self.l1.meta.way_entry(request.address, request.way)
        if request.kind is _CLEAN:
            entry.dirty = False
        else:
            entry.invalidate()
            self.l1.flush_unit_evicted_line(request.address)

    def _send_release(
        self, fshr: Fshr, request: FlushRequest, with_data: bool, cycle: int
    ) -> None:
        data = fshr.buffer if with_data else None
        message = root_release(
            source=self.l1.agent_id,
            address=request.address,
            param=request.kind.release_param,
            shrink=release_shrink(request),
            data=data,
        )
        if self.obs is not None:
            # causal link: the TileLink beats this release occupies (and
            # the DRAM writeback they trigger) happened *because of* this
            # CBO.X — downstream emitters propagate the span key
            message.cause = f"cbo:{request.flush_id}"
        self.l1.send_channel_c(message, cycle)
        fshr.sent_release()
        self.stats.inc("root_release_data" if with_data else "root_release_nodata")

    # ----------------------------------------------------------------- ack
    def deliver_ack(self, address: int) -> None:
        """Consume a RootReleaseAck for *address* (its awaiting FSHR)."""
        fshr = self._fshr_by_line.get(address)
        if fshr is None or not fshr.awaiting_ack:
            raise RuntimeError(
                f"RootReleaseAck for {address:#x} with no waiting FSHR"
            )
        del self._fshr_by_line[address]
        cycle = self.l1.engine.cycle
        if fshr.state is _RANGE_RELEASE_ACK:
            # one swept line is durable; the range itself completes (and
            # releases its single flush-counter token) only with the
            # final line — lines behind the cursor are done
            request = fshr.request
            assert request is not None
            self.stats.inc("range_line_acks")
            if request.kind is _CLEAN:
                self._maybe_set_skip(request)
            self._range_advance(fshr, request, cycle)
            if self.obs is not None and fshr.busy:
                self.obs.transition(
                    cycle, f"cbo:{request.flush_id}", fshr.state.value
                )
            self.l1.engine.note_progress()
            return
        request = fshr.complete()
        self.flush_counter -= 1
        self.stats.inc("acks")
        if request.kind is _CLEAN:
            self._maybe_set_skip(request)
        if self.obs is not None:
            self.obs.close_span(cycle, f"cbo:{request.flush_id}")
        self.l1.engine.note_progress()

    def _maybe_set_skip(self, request: FlushRequest) -> None:
        """After a completed CBO.CLEAN the line is persisted end to end.

        The ack means L2 wrote the line to DRAM (§5.5), so if the line is
        still resident and has not been re-dirtied, its skip bit may be
        set — making follow-up CBO.X to the line skippable.  Guarded by
        the dirty bit: a store that squeezed in after the buffer fill
        (§5.3) re-dirties the line and must keep skip unset.
        """
        if not self.params.skip_it:
            return
        hit = self.l1.meta.lookup(request.address)
        if hit is None:
            return
        _, entry = hit
        if not entry.dirty:
            entry.skip = True
