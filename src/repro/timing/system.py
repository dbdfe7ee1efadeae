"""The functional-with-timing memory system.

Each simulated thread owns a :class:`ThreadCtx` (its virtual clock plus its
outstanding asynchronous writebacks).  All architectural state lives in
:class:`TimingSystem`:

* ``arch`` — the architecturally-current value of every written word;
* per-thread L1 state (permission, dirty, skip bit) in set-associative
  LRU caches;
* shared inclusive L2 state (dirty bit, full-map directory, and the word
  values its copy of the line holds);
* ``persisted`` — what main memory (the persistence domain) holds; a
  simulated crash keeps exactly this.  Every write to it bumps
  ``persisted_version``, so an unchanged version means an unchanged
  persistence domain.

Writeback semantics follow §4: a CBO.X snapshots the line's words at issue
time into the persistence domain (writes *before* the writeback are
covered, later writes are not), completes asynchronously after a latency
that depends on where dirty data was found, and fences wait for all of the
issuing thread's outstanding writebacks.  Skip It (§6) drops a CBO.X at
the L1 for ``cbo_skip`` cycles when the line hits clean with the skip bit
set; the skip bit is set on fills from a clean L2 (GrantData) and cleared
on fills from a dirty L2 (GrantDataDirty), on re-dirtying stores, and on
dirty-data probes.

Unfinished DRAM writes live in ``in_flight``, in arrival order.  Beside it,
``in_flight_by_line`` maps each line to that line's entries: the same
objects in the same order, with no empty lists.  Every method that adds,
settles or drops entries keeps the two in step, so a clean CBO adopts
same-line payloads and an L2 fill settles its line without scanning every
pending write.

When each of those writes reaches DRAM is decided in one place,
:meth:`TimingSystem._landing_order`.  A crash image is ``persisted`` plus
the writes landed by the crash time: :meth:`~TimingSystem.persisted_image`
builds one, :meth:`~TimingSystem.crash` keeps one, and
:meth:`~TimingSystem.landed_words` describes the crash points of a sweep
by their landed words alone, so a sweep that sees the same version and
the same words knows the image is unchanged without building it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.coherence.directory import DirectoryEntry
from repro.sim.stats import StatCounter
from repro.timing.cache import LineCache
from repro.timing.params import TimingParams
from repro.tilelink.permissions import Perm

# enum members bound once at import (see tests/test_hot_paths.py)
_NONE = Perm.NONE
_BRANCH = Perm.BRANCH
_TRUNK = Perm.TRUNK
#: sort key of :meth:`TimingSystem._landing_order`'s ``(lands, write)`` pairs
_LANDS = itemgetter(0)


@dataclass(slots=True)
class L1Rec:
    perm: Perm
    dirty: bool = False
    skip: bool = False


@dataclass(slots=True)
class L2Rec:
    dirty: bool = False
    directory: DirectoryEntry = field(default_factory=DirectoryEntry)
    values: Dict[int, int] = field(default_factory=dict)  # this copy's words


@dataclass
class L3Rec:
    """Victim-L3 record (optional deeper hierarchy, §7.4)."""

    dirty: bool = False
    values: Dict[int, int] = field(default_factory=dict)


@dataclass
class InFlightWriteback:
    """One asynchronous DRAM write travelling to the persistence domain.

    A CBO.X snapshots the line's words at issue time (§4) but the bytes
    only land in DRAM when the writeback completes, ``done`` cycles into
    the issuing thread's virtual clock.  A crash before ``done`` loses the
    payload — exactly the window the paper's fence exists to close.
    """

    tid: int
    done: int  # completion time on the issuing thread's clock
    line: int
    values: Dict[int, int]  # words snapshotted at issue


class ThreadCtx:
    """One simulated hardware thread: clock + outstanding writebacks."""

    def __init__(self, system: "TimingSystem", tid: int) -> None:
        self.system = system
        self.tid = tid
        self.now = 0
        self.outstanding: Deque[int] = deque()  # writeback completion times
        self.ops = 0
        #: cycles the most recent fence spent draining writebacks (pure
        #: bookkeeping for blame attribution; never read by the model)
        self.last_fence_waited = 0

    # convenience wrappers --------------------------------------------------
    def load(self, address: int) -> int:
        return self.system.load(self, address)

    def store(self, address: int, value: int) -> None:
        self.system.store(self, address, value)

    def cas(self, address: int, expected: int, new: int) -> bool:
        return self.system.cas(self, address, expected, new)

    def clean(self, address: int) -> None:
        self.system.cbo(self, address, invalidate=False)

    def flush(self, address: int) -> None:
        self.system.cbo(self, address, invalidate=True)

    def clean_range(self, address: int, length: int, wait: bool = False) -> None:
        self.system.cbo_range(self, address, length, invalidate=False, wait=wait)

    def flush_range(self, address: int, length: int, wait: bool = False) -> None:
        self.system.cbo_range(self, address, length, invalidate=True, wait=wait)

    def await_writebacks(self) -> None:
        self.system.await_writebacks(self)

    def fence(self) -> None:
        self.system.fence(self)


class TimingSystem:
    """Shared memory hierarchy for N virtual-time threads."""

    def __init__(self, params: Optional[TimingParams] = None) -> None:
        self.params = params or TimingParams()
        p = self.params
        self.l1s: List[LineCache[L1Rec]] = [
            LineCache(p.l1) for _ in range(p.num_threads)
        ]
        self.l2: LineCache[L2Rec] = LineCache(p.l2)
        self.l3: Optional[LineCache[L3Rec]] = (
            LineCache(p.l3) if p.l3 is not None else None
        )
        self.arch: Dict[int, int] = {}
        self.persisted: Dict[int, int] = {}
        #: bumped by every write to ``persisted`` (here and in the filters'
        #: ``declare_persisted``): an unchanged version means an unchanged
        #: persistence domain
        self.persisted_version = 0
        self._line_words: Dict[int, Set[int]] = {}
        # hot-path copies of the params the per-access paths read (the
        # params are frozen, and ``line_bytes`` is a property)
        self._line_bytes = p.line_bytes
        self._l1_hit = p.l1_hit
        self._l2_hit = p.l2_hit
        self._mem_access = p.mem_access
        self._l3_hit = p.l3_hit
        self._upgrade = p.upgrade
        self._skip_it = p.skip_it
        self._cbo_issue = p.cbo_issue
        self._cbo_skip = p.cbo_skip
        self._num_fshrs = p.num_fshrs
        self.threads = [ThreadCtx(self, tid) for tid in range(p.num_threads)]
        self.stats = StatCounter()
        #: ``stats.counts``, which the per-access paths bump directly
        #: (``StatCounter.reset`` clears it in place, never rebinds it)
        self._counts = self.stats.counts
        self.obs = None  # observability bus; attached via repro.obs.attach_timing
        #: DRAM writes still in flight; a crash drops the unfinished ones
        self.in_flight: List[InFlightWriteback] = []
        #: ``in_flight`` grouped by line (same objects, same order, no
        #: empty lists)
        self.in_flight_by_line: Dict[int, List[InFlightWriteback]] = {}
        #: per-line DRAM writeback counts (differential fuzzing oracle)
        self.wb_lines: Dict[int, int] = {}
        #: test-only fault injection: names of re-introduced known bugs
        #: (see :mod:`repro.verify.mutants`); empty in production use
        self.mutants: Set[str] = set()

    # ------------------------------------------------------------- helpers
    def line_of(self, address: int) -> int:
        return address - (address % self._line_bytes)

    def _words_of(self, line: int) -> Set[int]:
        return self._line_words.get(line, set())

    def _arch_line(self, line: int) -> Dict[int, int]:
        return {w: self.arch[w] for w in self._words_of(line) if w in self.arch}

    # ------------------------------------------------- in-flight writebacks
    def _settle_thread(self, tid: int) -> None:
        """Land every in-flight write of *tid* (the fence waited for them).

        The memory controller serializes same-line writes in arrival
        order, so retiring one of *tid*'s writes also retires every
        same-line write that arrived before it — otherwise a stale
        payload could land after a newer one and revert the persistence
        domain.
        """
        last: Dict[int, int] = {}
        for i, wb in enumerate(self.in_flight):
            if wb.tid == tid:
                last[wb.line] = i
        remaining = []
        by_line: Dict[int, List[InFlightWriteback]] = {}
        for i, wb in enumerate(self.in_flight):
            if i <= last.get(wb.line, -1):
                self.persisted.update(wb.values)
            else:
                remaining.append(wb)
                by_line.setdefault(wb.line, []).append(wb)
        self.in_flight = remaining
        self.in_flight_by_line = by_line
        if last:
            self.persisted_version += 1

    def _landing_order(self) -> List[Tuple[int, InFlightWriteback]]:
        """``(lands, write)`` for every in-flight write, by landing time.

        The one landing rule.  A write lands once its landing time has
        passed (``lands <= at``, or the issuing thread's clock for a crash
        *now*); younger ones are the mid-writeback window a crash loses.
        Same-line writes complete in arrival order at the controller, so a
        write cannot land before its predecessors: its landing time is the
        running maximum of ``done`` over its line.  Each write carries
        words of its own line only, so the order across lines does not
        matter; the sort is stable, so a line's writes keep arrival order.
        """
        order = []
        append = order.append
        for pending in self.in_flight_by_line.values():
            lands = pending[0].done
            for wb in pending:
                if wb.done > lands:
                    lands = wb.done
                append((lands, wb))
        order.sort(key=_LANDS)
        return order

    def _land(
        self,
        image: Dict[int, int],
        at: Optional[int],
        order: List[Tuple[int, InFlightWriteback]],
    ) -> None:
        """Apply to *image* every write of *order* (see
        :meth:`_landing_order`) that landed by *at*."""
        if at is None:
            threads = self.threads
            for lands, wb in order:
                if lands <= threads[wb.tid].now:
                    image.update(wb.values)
            return
        for lands, wb in order:
            if lands > at:
                break
            image.update(wb.values)

    def persisted_image(self, at: Optional[int] = None) -> Dict[int, int]:
        """The words DRAM would hold if power failed right now.

        Non-destructive counterpart of :meth:`crash`: the persisted words
        plus every in-flight write that landed by *at* (see :meth:`_land`).
        """
        image = dict(self.persisted)
        self._land(image, at, self._landing_order())
        return image

    def landed_words(
        self, window: bool = False
    ) -> Iterator[Tuple[Optional[int], Dict[int, int]]]:
        """``(at, words)`` for each crash point of this instant.

        The first point is a crash now (``at`` is ``None``); with *window*
        one more follows at every distinct ``done`` of an in-flight write,
        in increasing order.  *words* are the landed words (see
        :meth:`_landing_order`) that differ from ``persisted``, so
        ``persisted`` updated with *words* is :meth:`persisted_image` (at),
        and while ``persisted_version`` holds, two points see equal images
        exactly when their words are equal.  The now point walks the
        in-flight writes once; each windowed point applies only the writes
        that land at its time, and one where none lands yields the dict of
        the point before (a dict is never changed once yielded).
        """
        persisted = self.persisted
        order = self._landing_order()
        landed: Dict[int, int] = {}
        self._land(landed, None, order)
        yield None, {w: v for w, v in landed.items() if persisted.get(w) != v}
        if not window:
            return
        landed = {}
        words: Dict[int, int] = {}
        i, n = 0, len(order)
        for at in sorted({wb.done for wb in self.in_flight}):
            first = i
            while i < n and order[i][0] <= at:
                landed.update(order[i][1].values)
                i += 1
            if i > first:
                words = {
                    w: v for w, v in landed.items() if persisted.get(w) != v
                }
            yield at, words

    # ------------------------------------------------------ L2 maintenance
    def _l2_evict(self, line: int, rec: L2Rec) -> None:
        """Inclusive eviction: revoke L1 copies, write back if dirty."""
        counts = self._counts
        l1s = self.l1s
        for tid in rec.directory.sharers:
            l1 = l1s[tid]
            l1rec = l1.sets[(line // l1.line_bytes) % l1.num_sets].pop(line, None)
            if l1rec is not None and l1rec.dirty:
                rec.values.update(self._arch_line(line))
                rec.dirty = True
        wb_lines = self.wb_lines
        if self.l3 is not None:
            spilled = self.l3.put(line, L3Rec(dirty=rec.dirty, values=rec.values))
            if spilled is not None:
                victim_line, victim = spilled
                if victim.dirty:
                    self.persisted.update(victim.values)
                    self.persisted_version += 1
                    wb_lines[victim_line] = wb_lines.get(victim_line, 0) + 1
                    counts["l3_evict_writebacks"] += 1
            counts["l2_evict_to_l3"] += 1
        elif rec.dirty:
            self.persisted.update(rec.values)
            self.persisted_version += 1
            wb_lines[line] = wb_lines.get(line, 0) + 1
            counts["l2_evict_writebacks"] += 1
        else:
            counts["l2_evict_drops"] += 1

    def _merge_owner_dirty(self, line: int, rec: L2Rec, keep_owner: bool) -> bool:
        """Pull dirty data from the TRUNK owner (if any) into the L2 copy.

        Returns True when a probe transfer happened.  ``keep_owner`` keeps
        the owner's copy as a BRANCH (clean) reader; otherwise the copy is
        revoked.
        """
        owner = rec.directory.owner
        if owner is None:
            return False
        l1rec = self.l1s[owner].get(line)
        transferred = False
        if l1rec is not None:
            if l1rec.dirty:
                rec.values.update(self._arch_line(line))
                rec.dirty = True
                l1rec.dirty = False
                l1rec.skip = False  # dirty above us: not persisted (§6.2)
                transferred = True
            if keep_owner:
                l1rec.perm = _BRANCH
            else:
                self.l1s[owner].remove(line)
        rec.directory.downgrade(owner, _BRANCH if keep_owner else _NONE)
        return transferred

    def _revoke_sharers(self, line: int, rec: L2Rec, keep: Optional[int]) -> None:
        for tid in list(rec.directory.sharers):
            if tid == keep:
                continue
            l1rec = self.l1s[tid].get(line)
            if l1rec is not None:
                if l1rec.dirty:
                    rec.values.update(self._arch_line(line))
                    rec.dirty = True
                self.l1s[tid].remove(line)
            rec.directory.downgrade(tid, _NONE)

    # ------------------------------------------------------------ accesses
    # The per-access paths below (load, store, cbo, _fill) index
    # ``LineCache.sets`` themselves, bump ``self._counts`` directly and read
    # ``self.l1s``/``self.l2`` on every call (``crash`` rebuilds them).
    def _fill(self, ctx: ThreadCtx, line: int, want_write: bool) -> int:
        """L1 miss path; returns the access cost.

        An L2 miss fills here too: from the victim L3 when it holds the
        line, else from memory, after the line's pending DRAM writes land
        (a fetch is ordered behind them at the memory controller).  The
        new L2 copy and the new L1 copy each evict their set's LRU line
        when the set spills.
        """
        counts = self._counts
        l2 = self.l2
        l2_sets, l2_line_bytes, l2_num_sets = l2.sets, l2.line_bytes, l2.num_sets
        bucket = l2_sets[(line // l2_line_bytes) % l2_num_sets]
        rec = bucket.get(line)
        if rec is None:
            l3 = self.l3
            l3rec = None
            if l3 is not None:
                l3rec = l3.sets[(line // l3.line_bytes) % l3.num_sets].pop(line, None)
            if l3rec is not None:
                cost = self._l3_hit
                rec = L2Rec(l3rec.dirty, DirectoryEntry(), dict(l3rec.values))
                counts["l3_hits"] += 1
            else:
                cost = self._mem_access
                persisted = self.persisted
                pending = self.in_flight_by_line.pop(line, None)
                if pending is not None:
                    for wb in pending:
                        persisted.update(wb.values)
                    self.persisted_version += 1
                    self.in_flight = [wb for wb in self.in_flight if wb.line != line]
                words = self._line_words.get(line, ())
                rec = L2Rec(
                    False,
                    DirectoryEntry(),
                    {w: persisted[w] for w in words if w in persisted},
                )
            # the line is not in this set, so the insert lands MRU
            bucket[line] = rec
            if len(bucket) > l2.ways:
                self._l2_evict(*bucket.popitem(last=False))
            counts["mem_fills"] += 1
        else:
            bucket.move_to_end(line)
            cost = self._l2_hit
            counts["l2_hits"] += 1
        directory = rec.directory
        if want_write:
            if directory.owner is not None and self._merge_owner_dirty(
                line, rec, keep_owner=False
            ):
                cost += self.params.probe_extra
            if directory.sharers:
                self._revoke_sharers(line, rec, keep=ctx.tid)
            perm = _TRUNK
        else:
            if directory.owner is not None and self._merge_owner_dirty(
                line, rec, keep_owner=True
            ):
                cost += self.params.probe_extra
            perm = _BRANCH if directory.sharers else _TRUNK
        # GrantData vs GrantDataDirty decides the skip bit (§6.1)
        skip = self._skip_it and (
            not rec.dirty or "skip_dirty_grant" in self.mutants
        )
        # a miss: the line is not in this set, so the insert lands MRU
        l1 = self.l1s[ctx.tid]
        bucket = l1.sets[(line // l1.line_bytes) % l1.num_sets]
        bucket[line] = L1Rec(perm, want_write, skip and not want_write)
        if len(bucket) > l1.ways:
            # the L1 victim hands its dirty words to its inclusive L2 copy
            victim, l1rec = bucket.popitem(last=False)
            vrec = l2_sets[(victim // l2_line_bytes) % l2_num_sets].get(victim)
            if vrec is None:  # pragma: no cover - inclusivity guarantees presence
                raise RuntimeError("L1 line absent from inclusive L2")
            if l1rec.dirty:
                arch = self.arch
                values = vrec.values
                for w in self._line_words.get(victim, ()):
                    if w in arch:
                        values[w] = arch[w]
                vrec.dirty = True
                counts["l1_evict_writebacks"] += 1
            vrec.directory.downgrade(ctx.tid, _NONE)
            cost += 5
        directory.grant(ctx.tid, perm)
        return cost

    def load(self, ctx: ThreadCtx, address: int) -> int:
        line = address - address % self._line_bytes
        counts = self._counts
        counts["loads"] += 1
        l1 = self.l1s[ctx.tid]
        bucket = l1.sets[(line // l1.line_bytes) % l1.num_sets]
        if line in bucket:
            bucket.move_to_end(line)
            ctx.now += self._l1_hit
            counts["l1_hits"] += 1
        else:
            ctx.now += self._fill(ctx, line, False)
            counts["l1_misses"] += 1
        return self.arch.get(address, 0)

    def store(self, ctx: ThreadCtx, address: int, value: int) -> None:
        line = address - address % self._line_bytes
        counts = self._counts
        counts["stores"] += 1
        l1 = self.l1s[ctx.tid]
        bucket = l1.sets[(line // l1.line_bytes) % l1.num_sets]
        l1rec = bucket.get(line)
        if l1rec is not None and l1rec.perm is _TRUNK:
            bucket.move_to_end(line)
            ctx.now += self._l1_hit
            counts["l1_hits"] += 1
        elif l1rec is not None:  # upgrade BRANCH -> TRUNK, LRU order kept
            rec = self.l2.get(line)
            assert rec is not None
            self._revoke_sharers(line, rec, keep=ctx.tid)
            rec.directory.downgrade(ctx.tid, _NONE)
            rec.directory.grant(ctx.tid, _TRUNK)
            l1rec.perm = _TRUNK
            ctx.now += self._upgrade
            counts["upgrades"] += 1
        else:
            ctx.now += self._fill(ctx, line, True)
            counts["l1_misses"] += 1
            l1rec = bucket[line]
        l1rec.dirty = True
        if "store_keeps_skip" not in self.mutants:
            l1rec.skip = False  # a dirty line is never persisted
        self.arch[address] = value
        words = self._line_words.get(line)
        if words is None:
            self._line_words[line] = {address}
        else:
            words.add(address)

    def cas(self, ctx: ThreadCtx, address: int, expected: int, new: int) -> bool:
        """Compare-and-swap: acquires write permission, then swaps atomically.

        Atomicity is trivially satisfied because operations are atomic at
        the model level; the cost is a write access plus a small ALU tax.
        """
        current = self.arch.get(address, 0)
        if current != expected:
            # failed CAS still acquired the line for writing
            self.store(ctx, address, current)
            ctx.now += 2
            self.stats.inc("cas_failures")
            return False
        self.store(ctx, address, new)
        ctx.now += 2
        self.stats.inc("cas_successes")
        return True

    # ----------------------------------------------------------- writeback
    def cbo(self, ctx: ThreadCtx, address: int, invalidate: bool) -> None:
        """CBO.FLUSH (*invalidate*) / CBO.CLEAN, asynchronous per §4."""
        line = address - address % self._line_bytes
        l1 = self.l1s[ctx.tid]
        l1rec = l1.sets[(line // l1.line_bytes) % l1.num_sets].get(line)
        # Skip It (§6.1): hit + clean + skip set => drop before the queue.
        if self._skip_it and l1rec is not None and not l1rec.dirty and l1rec.skip:
            ctx.now += self._cbo_skip
            self._counts["cbo_skipped"] += 1
            if self.obs is not None:
                self.obs.emit(
                    ctx.now,
                    "timing",
                    "cbo_skipped",
                    track=f"t{ctx.tid}",
                    address=line,
                    invalidate=invalidate,
                )
            return
        ctx.now += self._cbo_issue
        self._counts["cbo_issued"] += 1
        if self.obs is not None:
            self.obs.emit(
                ctx.now,
                "timing",
                "cbo_issued",
                track=f"t{ctx.tid}",
                address=line,
                invalidate=invalidate,
            )
        latency, payload = self._cbo_line(ctx, line, l1rec, invalidate)
        # the writeback holds one of the thread's FSHRs: with all of them
        # busy it starts when the oldest outstanding one completes
        outstanding = ctx.outstanding
        start = ctx.now
        if len(outstanding) >= self._num_fshrs:
            oldest = outstanding.popleft()
            if oldest > start:
                start = oldest
        done = start + latency
        outstanding.append(done)
        self._record_or_adopt(ctx, line, payload, done)

    def _cbo_line(
        self,
        ctx: ThreadCtx,
        line: int,
        l1rec: Optional[L1Rec],
        invalidate: bool,
    ) -> "tuple[int, Optional[Dict[int, int]]]":
        """Per-line writeback decision shared by cbo() and cbo_range().

        Applies the metadata effects (dirty bits cleared, invalidations,
        skip bit set after a clean) and returns the writeback latency
        plus the words this line carries to DRAM (``None`` when the
        hierarchy holds nothing dirty).
        """
        l2 = self.l2
        rec = l2.sets[(line // l2.line_bytes) % l2.num_sets].get(line)
        counts = self._counts
        latency = self.params.cbo_l2_roundtrip
        # a deeper hierarchy lengthens every writeback's path (§7.4):
        # requests traverse the L3 on their way to the persistence domain
        l3_extra = self.params.l3_extra_writeback if self.l3 is not None else 0
        latency += l3_extra
        # words this CBO carries to DRAM; they land only when the
        # asynchronous writeback completes (see InFlightWriteback)
        payload: Optional[Dict[int, int]] = None
        if l1rec is not None and l1rec.dirty:
            # dirty in our L1: full path to DRAM
            assert rec is not None
            arch = self.arch
            values = rec.values
            for w in self._line_words.get(line, ()):
                if w in arch:
                    values[w] = arch[w]
            l1rec.dirty = False
            latency = self.params.cbo_dram_writeback + l3_extra
            payload = self._persist_l2(line, rec)
            counts["cbo_dram"] += 1
        elif rec is not None and (
            rec.dirty or rec.directory.owner not in (None, ctx.tid)
        ):
            # dirty somewhere else in the hierarchy: probe/merge, then DRAM
            if self._merge_owner_dirty(line, rec, keep_owner=not invalidate):
                latency = (
                    self.params.cbo_dram_writeback
                    + self.params.probe_extra
                    + l3_extra
                )
            if rec.dirty:
                latency = max(
                    latency, self.params.cbo_dram_writeback + l3_extra
                )
                payload = self._persist_l2(line, rec)
                counts["cbo_dram"] += 1
            else:
                counts["cbo_l2_clean"] += 1
        else:
            # Not dirty anywhere the L2 can see — but the victim L3 may
            # hold the only dirty copy (the line lives in at most one of
            # L2/L3, so ``rec is None`` does not mean "persisted").
            l3rec = self.l3.get(line) if self.l3 is not None else None
            if "l3_dirty_clean_lost" in self.mutants and not invalidate:
                l3rec = None  # re-introduced PR 2 bug (test-only)
            if l3rec is not None and l3rec.dirty:
                payload = dict(l3rec.values)
                l3rec.dirty = False
                latency = self.params.cbo_dram_writeback + l3_extra
                counts["cbo_dram"] += 1
                counts["cbo_l3_dirty_writebacks"] += 1
            else:
                # persisted already: the LLC trivially skips the DRAM write
                counts["cbo_l2_clean"] += 1
        if invalidate:
            if rec is not None:
                self._revoke_sharers(line, rec, keep=None)
                self.l2.remove(line)
            if self.l3 is not None:
                l3rec = self.l3.remove(line)
                if l3rec is not None and l3rec.dirty:
                    # flushing a line dirty only in L3 persists it
                    payload = dict(payload or {})
                    payload.update(l3rec.values)
        elif l1rec is not None:
            # after a clean the resident line is persisted (§6.2)
            l1rec.skip = self.params.skip_it
        return latency, payload

    def _record_or_adopt(
        self,
        ctx: ThreadCtx,
        line: int,
        payload: Optional[Dict[int, int]],
        completion: int,
    ) -> None:
        """Track one CBO's asynchronous DRAM write; it lands when settled.

        *payload* is the fresh dict :meth:`_cbo_line` built, so it is
        recorded as is.
        """
        pending = self.in_flight_by_line.get(line)
        if payload:
            wb = InFlightWriteback(ctx.tid, completion, line, payload)
            self.in_flight.append(wb)
            if pending is None:
                self.in_flight_by_line[line] = [wb]
            else:
                pending.append(wb)
            wb_lines = self.wb_lines
            wb_lines[line] = wb_lines.get(line, 0) + 1
            return
        # The line is clean in the hierarchy, but an earlier CBO's DRAM
        # write for it may still sit in the controller queue.  Same-address
        # ordering puts this CBO's completion behind those writes, so the
        # fence that waits for *this* CBO also covers them: adopt their
        # payload under our completion.  Not a new DRAM write — wb_lines is
        # deliberately untouched.
        if pending is None:
            return
        merged: Dict[int, int] = {}
        for wb in pending:
            merged.update(wb.values)
        if merged:
            adopted = InFlightWriteback(ctx.tid, completion, line, merged)
            self.in_flight.append(adopted)
            pending.append(adopted)

    def cbo_range(
        self,
        ctx: ThreadCtx,
        address: int,
        length: int,
        invalidate: bool = False,
        wait: bool = False,
    ) -> None:
        """CBO.RANGE.{CLEAN,FLUSH}: one charged multi-line sweep (SIMF-style).

        One instruction, one flush-queue entry, one ordering token: the
        issue cost is charged once, then a single range-capable FSHR
        sweeps ``[address, address + length)`` line by line.  Skip It is
        consulted per line *inside* the sweep — a filtered line costs a
        lookup (``cbo_skip``), not a writeback.  Each unfiltered line's
        payload travels as its own :class:`InFlightWriteback` with a
        staggered completion time, so a crash mid-sweep exposes every
        cursor position as a distinct window.

        With ``wait=True`` the op adopts SIMF completion semantics: the
        thread settles to the sweep's final line before continuing, so
        the whole range is one ordering token and no separate FENCE is
        needed — the caller's next instruction is ordered after every
        covered line is durable.
        """
        if length <= 0:
            raise ValueError("ranged CBO requires a positive byte length")
        line_bytes = self.params.line_bytes
        base = self.line_of(address)
        last = self.line_of(address + length - 1)
        nlines = (last - base) // line_bytes + 1
        ctx.now += self.params.cbo_issue
        self.stats.inc("cbo_range_issued")
        self.stats.inc("cbo_range_lines", nlines)
        if self.obs is not None:
            self.obs.emit(
                ctx.now,
                "timing",
                "cbo_range_issued",
                track=f"t{ctx.tid}",
                address=base,
                lines=nlines,
                invalidate=invalidate,
            )
        # the sweep occupies one FSHR: same admission rule as one CBO.X
        start = ctx.now
        if len(ctx.outstanding) >= self.params.num_fshrs:
            start = max(start, ctx.outstanding.popleft())
        # seeded mutant: the range reports done with every line at or
        # past the mid-sweep cursor unswept — their dirty data never
        # reaches DRAM (lost writes the crash sweep must catch)
        sweep_lines = nlines
        if "range_skips_unreached_lines" in self.mutants:
            sweep_lines = max(1, nlines // 2)
        cursor = start
        horizon = start
        l1 = self.l1s[ctx.tid]
        skipped = 0
        for index in range(sweep_lines):
            line = base + index * line_bytes
            l1rec = l1.get(line)
            if (
                self.params.skip_it
                and l1rec is not None
                and not l1rec.dirty
                and l1rec.skip
            ):
                # filtered inside the sweep: a lookup, not a writeback
                cursor += self.params.cbo_skip
                skipped += 1
                continue
            latency, payload = self._cbo_line(ctx, line, l1rec, invalidate)
            # the FSHR hands the line to the memory controller and
            # advances at sweep pitch; the write lands asynchronously
            # (same handoff the per-line CBO path gets from its flush
            # unit), so completions stagger by cursor position
            cursor += self.params.cbo_range_line
            done = cursor + latency
            horizon = max(horizon, done)
            self._record_or_adopt(ctx, line, payload, done)
        if skipped:
            self.stats.inc("cbo_range_line_skipped", skipped)
        if self.obs is not None:
            self.obs.emit(
                cursor,
                "timing",
                "cbo_range_done",
                track=f"t{ctx.tid}",
                address=base,
                lines=nlines,
                skipped=skipped,
            )
        # the whole sweep is one ordering token that a younger fence (or
        # an explicit SIMF completion wait) retires; it covers the last
        # line's landing, not just the scan's end
        ctx.outstanding.append(max(cursor, horizon))
        if wait:
            self.await_writebacks(ctx)

    def await_writebacks(self, ctx: ThreadCtx) -> None:
        """SIMF-style completion wait: retire *ctx*'s tokens, no FENCE.

        A CBO.RANGE is its own ordering token — waiting on its
        completion orders the caller's next instruction after every
        covered line is durable without issuing (or counting) a fence
        instruction.  The thread's clock advances to its last
        outstanding completion and those writebacks settle.
        """
        if ctx.outstanding:
            horizon = max(ctx.outstanding)
            ctx.now = max(ctx.now, horizon)
            ctx.outstanding.clear()
        self._settle_thread(ctx.tid)
        self.stats.inc("cbo_range_waits")

    def _persist_l2(self, line: int, rec: L2Rec) -> Dict[int, int]:
        """Snapshot the L2 copy for DRAM and clear its dirty bit (§4)."""
        rec.dirty = False
        if "clean_forgets_l2_dirty" in self.mutants:
            return {}  # marked clean, payload dropped (test-only bug)
        return dict(rec.values)

    def fence(self, ctx: ThreadCtx) -> None:
        """FENCE: wait for every outstanding writeback of this thread (§5.3)."""
        waited = 0
        if "fence_forgets_writebacks" in self.mutants:
            ctx.outstanding.clear()  # test-only bug: no wait, no settle
        elif ctx.outstanding:
            horizon = max(ctx.outstanding)
            waited = max(0, horizon - ctx.now)
            ctx.now = max(ctx.now, horizon)
            ctx.outstanding.clear()
        if "fence_forgets_writebacks" not in self.mutants:
            # every writeback of this thread has now completed; its bytes
            # are in the persistence domain
            self._settle_thread(ctx.tid)
        ctx.last_fence_waited = waited
        ctx.now += self.params.fence_base
        self.stats.inc("fences")
        if self.obs is not None:
            self.obs.emit(
                ctx.now, "timing", "fence", track=f"t{ctx.tid}", waited=waited
            )

    # ------------------------------------------------------------ steady state
    def persist_all(self) -> None:
        """Declare the current state fully persisted (benchmark setup aid).

        Copies every architectural value into the persistence domain,
        clears all dirty bits, and sets every resident line's skip bit
        (with Skip It enabled).  Benchmarks call this after prefilling so
        each configuration starts from the same warm, persisted state
        instead of measuring the prefill's writeback transient.
        """
        self.in_flight.clear()  # superseded: everything lands right now
        self.in_flight_by_line.clear()
        self.persisted.update(self.arch)
        for _, rec in self.l2.items():
            rec.values.update(
                {w: self.arch[w] for w in rec.values if w in self.arch}
            )
            rec.dirty = False
        if self.l3 is not None:
            for _, l3rec in self.l3.items():
                if l3rec.dirty:
                    self.persisted.update(l3rec.values)
                    l3rec.dirty = False
        self.persisted_version += 1
        for l1 in self.l1s:
            for line, l1rec in l1.items():
                if l1rec.dirty:
                    l2rec = self.l2.get(line)
                    if l2rec is not None:
                        l2rec.values.update(self._arch_line(line))
                l1rec.dirty = False
                l1rec.skip = self.params.skip_it

    # ---------------------------------------------------------------- crash
    def crash(self, at: Optional[int] = None) -> Dict[int, int]:
        """Drop all cache state; return what survived (the persisted words).

        Exactly the in-flight writebacks :meth:`persisted_image` shows for
        the same *at* land, in place; younger ones are lost with the
        caches — the mid-writeback crash window the injector
        (:mod:`repro.verify.injector`) enumerates.
        """
        self._land(self.persisted, at, self._landing_order())
        self.persisted_version += 1
        self.in_flight = []
        self.in_flight_by_line = {}
        p = self.params
        self.l1s = [LineCache(p.l1) for _ in range(p.num_threads)]
        self.l2 = LineCache(p.l2)
        if self.l3 is not None:
            self.l3 = LineCache(p.l3)
        self.arch = dict(self.persisted)
        for ctx in self.threads:
            ctx.outstanding.clear()
        self.stats.inc("crashes")
        return dict(self.persisted)
