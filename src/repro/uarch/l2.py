"""SiFive-style inclusive last-level cache (§3.4) with RootRelease support (§5.5).

The model keeps the structures Figure 4 names: *SinkC* (the per-client
channel C intake), a *ListBuffer* holding requests that could not get an
MSHR (none free, or an MSHR already active on the line), the *Directory*
(full map of L1 sharers + dirty bit per line), the *BankedStore* (line
data), *SourceB/C/D* (probes to L1s, releases to DRAM, responses to L1s).

RootRelease handling follows §5.5:

* the request allocates an MSHR (or waits in the ListBuffer);
* dirty payload data is written to the BankedStore on arrival;
* for ``RootReleaseFlush`` every *other* owner is probed ``toN``; for
  ``RootReleaseClean`` the owner is probed ``toB`` only if it is not the
  requester;
* probing happens even when the requesting core did not hold the line;
* if the line is dirty after merging probe responses, it is released to
  DRAM via SourceC — if it is clean the DRAM writeback is skipped (the
  LLC's *trivial* redundant-writeback filter the paper contrasts Skip It
  against);
* the requester finally receives a ``RootReleaseAck`` via SourceD.

For Skip It (§6.1) the L2 answers Acquires with ``GrantDataDirty``
(modelled as ``GrantData(dirty=True)``) whenever its copy of the line is
dirty, i.e. not yet persisted.
"""

from __future__ import annotations

import enum
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.coherence.directory import DirectoryEntry
from repro.mem.dram import DramModel
from repro.sim.config import SoCParams
from repro.sim.engine import Engine
from repro.sim.stats import StatCounter
from repro.tilelink.channel import BeatChannel
from repro.tilelink.messages import (
    Acquire,
    GrantAck,
    GrantData,
    Probe,
    ProbeAck,
    ProbeAckParam,
    Release,
    ReleaseAck,
    root_release_ack,
)
from repro.tilelink.permissions import Cap, Grow, Perm, is_report, shrink_result


@dataclass
class ClientLink:
    """The five channels between one L1 client and this cache."""

    a: BeatChannel
    b: BeatChannel
    c: BeatChannel
    d: BeatChannel
    e: BeatChannel


@dataclass
class L2Line:
    data: bytes
    dirty: bool = False
    directory: DirectoryEntry = field(default_factory=DirectoryEntry)


class _MshrKind(enum.Enum):
    ACQUIRE = "acquire"
    ROOT_RELEASE = "root_release"


class _MshrState(enum.Enum):
    START = "start"
    EVICT_PROBE = "evict_probe"  # revoking L1 copies of the L2 victim
    EVICT_WB = "evict_wb"  # victim writeback to DRAM in flight
    FETCH = "fetch"  # line fetch from DRAM in flight
    PROBE = "probe"  # revoking/downgrading L1 copies of the target
    ROOT_WB = "root_wb"  # RootRelease-triggered DRAM writeback in flight
    GRANT_WAIT = "grant_wait"  # waiting for GrantAck on channel E
    DONE = "done"


# enum members bound once at import (see tests/test_hot_paths.py)
_ACQUIRE = _MshrKind.ACQUIRE
_ROOT_RELEASE = _MshrKind.ROOT_RELEASE
_START = _MshrState.START
_EVICT_PROBE = _MshrState.EVICT_PROBE
_EVICT_WB = _MshrState.EVICT_WB
_FETCH = _MshrState.FETCH
_PROBE = _MshrState.PROBE
_ROOT_WB = _MshrState.ROOT_WB
_GRANT_WAIT = _MshrState.GRANT_WAIT
_DONE = _MshrState.DONE
_CLEAN = ProbeAckParam.CLEAN
_INVAL = ProbeAckParam.INVAL
_BRANCH = Perm.BRANCH
_TRUNK = Perm.TRUNK
_N_TO_B = Grow.NtoB
_N_TO_T = Grow.NtoT
_TO_B = Cap.toB
_TO_N = Cap.toN


@dataclass
class _L2Mshr:
    kind: _MshrKind
    client: int
    address: int
    slot: int = -1  # index in the MSHR file, set at allocation
    state: _MshrState = _MshrState.START
    grow: Grow = Grow.NtoB
    cbo: ProbeAckParam = ProbeAckParam.NORMAL  # which RootRelease kind
    awaiting_acks: Set[int] = field(default_factory=set)
    probe_cap: Optional[Cap] = None  # cap of the probes currently awaited
    victim_address: Optional[int] = None

    @property
    def clean(self) -> bool:
        return self.cbo is _CLEAN

    @property
    def inval(self) -> bool:
        return self.cbo is _INVAL


class InclusiveL2Cache:
    """Shared, inclusive L2 acting as manager for the L1s, client to DRAM."""

    AGENT_ID = 100

    def __init__(self, engine: Engine, params: SoCParams, dram: DramModel) -> None:
        self.engine = engine
        self.params = params
        self.geometry = params.l2
        self.dram = dram
        self.lines: Dict[int, L2Line] = {}  # BankedStore + Directory, by address
        self.links: List[ClientLink] = []
        self.mshrs: List[Optional[_L2Mshr]] = [None] * params.num_l2_mshrs
        self.list_buffer: Deque[Tuple[str, object]] = deque()
        self._ingress: Deque[Tuple[int, str, object]] = deque()  # (ready, kind, msg)
        # busy-slot count plus target/victim address maps so idle ticks
        # and per-message lookups skip the 64-slot scans; _active_slots
        # is kept sorted so iterating it visits MSHRs in slot order,
        # exactly like walking self.mshrs
        self._n_active = 0
        self._active_slots: List[int] = []
        self._mshr_by_addr: Dict[int, _L2Mshr] = {}
        self._victim_by_addr: Dict[int, _L2Mshr] = {}
        # per-set resident addresses in self.lines insertion order, so
        # victim choice stays identical to the old whole-dict filter
        self._set_members: Dict[int, List[int]] = {}
        self.stats = StatCounter()
        self.obs = None  # observability bus; attached via repro.obs.attach
        # Per-slot (mshr object, span key, last seen state) for the poller:
        # L2 MSHR state is mutated in a dozen places, so spans are derived
        # by diffing slot contents once per tick instead of inline hooks.
        self._obs_slots: List[Optional[Tuple[_L2Mshr, str, _MshrState]]] = []
        self._obs_seq = 0
        engine.register(self)

    def add_client(self, link: ClientLink) -> int:
        self.links.append(link)
        return len(self.links) - 1

    # ------------------------------------------------------------- helpers
    def _line(self, address: int) -> Optional[L2Line]:
        return self.lines.get(address)

    def _mshr_on(self, address: int) -> Optional[_L2Mshr]:
        return self._mshr_by_addr.get(address)

    def _busy_lines(self) -> Set[int]:
        return set(self._mshr_by_addr) | set(self._victim_by_addr)

    def _set_occupancy(self, address: int) -> List[int]:
        """Addresses of resident lines mapping to *address*'s set."""
        return self._set_members.get(self.geometry.set_index(address), [])

    def _install_line(self, address: int, line: L2Line) -> None:
        """Install into the BankedStore, keeping the per-set index current."""
        self.lines[address] = line
        self._set_members.setdefault(self.geometry.set_index(address), []).append(
            address
        )

    def _remove_line(self, address: int) -> None:
        del self.lines[address]
        self._set_members[self.geometry.set_index(address)].remove(address)

    # ---------------------------------------------------------------- tick
    def tick(self, cycle: int) -> None:
        # Each sub-step is guarded so a fully idle L2 costs a handful of
        # truthiness tests per cycle instead of five deque/slot walks.
        self._drain_clients(cycle)
        if self.dram.chan_d.pending:
            self._drain_dram(cycle)
        if self._ingress:
            self._admit_ingress(cycle)
        if self.list_buffer and self._n_active < len(self.mshrs):
            # nothing in the buffer can allocate while every slot is busy
            self._drain_list_buffer(cycle)
        if self._n_active:
            self._step_mshrs(cycle)
        if self.obs is not None:
            self._obs_poll(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle this cache could act (fast-forward hook)."""
        if self._n_active:
            for slot in self._active_slots:
                mshr = self.mshrs[slot]
                state = mshr.state
                if state is _START or state is _DONE:
                    return cycle + 1
                if (
                    (state is _EVICT_PROBE or state is _PROBE)
                    and not mshr.awaiting_acks
                ):
                    return cycle + 1
        if self.list_buffer and self._n_active < len(self.mshrs):
            # a free MSHR slot lets a buffered request allocate next tick
            return cycle + 1
        best: Optional[int] = None
        for ready, _, _ in self._ingress:
            if best is None or ready < best:
                best = ready
        for link in self.links:
            for channel in (link.a, link.c, link.e):
                if channel.pending:
                    nxt = channel.pending[0][0]
                    if best is None or nxt < best:
                        best = nxt
        dram_pending = self.dram.chan_d.pending
        if dram_pending:
            nxt = dram_pending[0][0]
            if best is None or nxt < best:
                best = nxt
        return best

    def _obs_poll(self, cycle: int) -> None:
        """Diff MSHR slots against last tick, translating changes to spans."""
        if len(self._obs_slots) < len(self.mshrs):
            self._obs_slots.extend(
                [None] * (len(self.mshrs) - len(self._obs_slots))
            )
        for idx, mshr in enumerate(self.mshrs):
            tracked = self._obs_slots[idx]
            if tracked is not None and (mshr is not tracked[0]):
                self.obs.close_span(cycle, tracked[1])
                self._obs_slots[idx] = tracked = None
            if mshr is None:
                continue
            if tracked is None:
                key = f"mshr:l2:{self._obs_seq}"
                self._obs_seq += 1
                self.obs.open_span(
                    cycle,
                    key,
                    "l2_mshr",
                    name=f"l2.{mshr.kind.value}",
                    track="l2.mshrs",
                    state=mshr.state.value,
                    address=mshr.address,
                    client=mshr.client,
                )
                self._obs_slots[idx] = (mshr, key, mshr.state)
            elif mshr.state is not tracked[2]:
                self.obs.transition(cycle, tracked[1], mshr.state.value)
                self._obs_slots[idx] = (mshr, tracked[1], mshr.state)

    # --------------------------------------------------------- channel I/O
    def _drain_clients(self, cycle: int) -> None:
        pipeline = self.params.latencies.l2_pipeline
        for link in self.links:
            if link.a.pending:
                for message in link.a.drain_ready(cycle):
                    self._ingress.append((cycle + pipeline, "acquire", message))
                    self.engine.note_progress()
            if link.c.pending:
                for message in link.c.drain_ready(cycle):
                    # SinkC: split probe responses from (Root)Releases
                    if isinstance(message, ProbeAck) and message.is_root_release:
                        # §5.5: dirty payload data is written to the
                        # BankedStore *on arrival*, even when the request
                        # then waits in the ListBuffer — a concurrent
                        # Acquire must never be granted the stale
                        # pre-writeback data.
                        self._sink_root_release_data(message)
                        self._ingress.append((cycle + pipeline, "root", message))
                    elif isinstance(message, ProbeAck):
                        self._probe_ack(message)
                    elif isinstance(message, Release):
                        self._ingress.append((cycle + pipeline, "release", message))
                    else:  # pragma: no cover - defensive
                        raise TypeError(f"unexpected C message {message}")
                    self.engine.note_progress()
            if link.e.pending:
                for message in link.e.drain_ready(cycle):
                    self._grant_ack(message)
                    self.engine.note_progress()

    def _drain_dram(self, cycle: int) -> None:
        for message in self.dram.chan_d.drain_ready(cycle):
            if isinstance(message, GrantData):
                mshr = self._find_mshr(message.address, _FETCH)
                self._install_line(
                    message.address, L2Line(data=message.data, dirty=False)
                )
                mshr.state = _START  # re-dispatch, line now present
            elif isinstance(message, ReleaseAck):
                mshr = self._mshr_victim(message.address)
                if mshr is not None and mshr.state is _EVICT_WB:
                    del self._victim_by_addr[message.address]
                    mshr.victim_address = None
                    mshr.state = _START
                else:
                    mshr = self._find_mshr(message.address, _ROOT_WB)
                    line = self._line(mshr.address)
                    if line is not None:
                        line.dirty = False
                    mshr.state = _DONE
            self.engine.note_progress()

    def _find_mshr(self, address: int, state: "_MshrState") -> "_L2Mshr":
        mshr = self._mshr_by_addr.get(address)
        if mshr is None or mshr.state is not state:
            raise RuntimeError(f"no MSHR in {state} for {address:#x}")
        return mshr

    def _mshr_victim(self, address: int) -> Optional[_L2Mshr]:
        return self._victim_by_addr.get(address)

    def _admit_ingress(self, cycle: int) -> None:
        deferred: Deque[Tuple[int, str, object]] = deque()
        while self._ingress:
            ready, kind, message = self._ingress.popleft()
            if ready > cycle:
                deferred.append((ready, kind, message))
                continue
            if kind == "release":
                self._voluntary_release(message, cycle)
            else:
                if not self._try_allocate(kind, message, cycle):
                    if len(self.list_buffer) >= self.params.l2_list_buffer_depth:
                        # ListBuffer full: keep the request in ingress (the
                        # channel has already delivered it; this models the
                        # buffered backpressure of the real SinkC).
                        deferred.append((cycle + 1, kind, message))
                    else:
                        self.list_buffer.append((kind, message))
        self._ingress = deferred

    def _drain_list_buffer(self, cycle: int) -> None:
        remaining: Deque[Tuple[str, object]] = deque()
        while self.list_buffer:
            kind, message = self.list_buffer.popleft()
            if not self._try_allocate(kind, message, cycle):
                remaining.append((kind, message))
        self.list_buffer = remaining

    # ------------------------------------------------------- request admit
    def _try_allocate(self, kind: str, message, cycle: int) -> bool:
        if self._mshr_on(message.address) is not None:
            return False
        # lowest free slot: first gap in the sorted active-slot list
        # (identical to scanning self.mshrs for the first None)
        slot = self._n_active
        for i, busy in enumerate(self._active_slots):
            if busy != i:
                slot = i
                break
        if slot >= len(self.mshrs):
            return False
        if kind == "acquire":
            mshr = _L2Mshr(
                kind=_ACQUIRE,
                client=message.source,
                address=message.address,
                grow=message.grow,
            )
            self.stats.inc("acquires")
        else:  # RootRelease
            mshr = _L2Mshr(
                kind=_ROOT_RELEASE,
                client=message.source,
                address=message.address,
                cbo=message.param,
            )
            self._apply_root_release_arrival(message)
            self.stats.inc(f"root_release_{message.param.value.lower()}")
        mshr.slot = slot
        self.mshrs[slot] = mshr
        insort(self._active_slots, slot)
        self._mshr_by_addr[message.address] = mshr
        self._n_active += 1
        self.engine.note_progress()
        return True

    def _sink_root_release_data(self, message: ProbeAck) -> None:
        """BankedStore intake for a RootRelease payload, at arrival time."""
        if message.data is None:
            return
        line = self._line(message.address)
        if line is None:
            # A concurrent RootReleaseFlush from another core can have
            # invalidated the L2 copy while this message (carrying the
            # then-owner's dirty data) was in flight.  The payload is the
            # newest value of the line and must not be lost: reinstall it
            # so the eventual writeback reaches DRAM.
            self._install_line(
                message.address, L2Line(data=message.data, dirty=True)
            )
            self.stats.inc("root_release_reinstalls")
        else:
            line.data = message.data
            line.dirty = True

    def _apply_root_release_arrival(self, message: ProbeAck) -> None:
        """Directory update for a RootRelease at MSHR allocation (§5.5).

        The payload data was already written by ``_sink_root_release_data``
        when the message arrived.
        """
        line = self._line(message.address)
        if line is not None and not is_report(message.shrink):
            line.directory.downgrade(
                message.source, shrink_result(message.shrink)
            )

    def _voluntary_release(self, message: Release, cycle: int) -> None:
        """Handle an L1 eviction Release.

        A Release that crosses our probe of the line does not answer it:
        the L1 still sends the probe's ProbeAck (TileLink).
        """
        line = self._line(message.address)
        if line is None:
            raise RuntimeError("Release for a line absent in inclusive L2")
        if message.data is not None:
            line.data = message.data
            line.dirty = True
        if not is_report(message.shrink):
            line.directory.downgrade(
                message.source, shrink_result(message.shrink)
            )
        self.links[message.source].d.send(
            ReleaseAck(source=self.AGENT_ID, address=message.address), cycle
        )
        self.stats.inc("releases")

    def _probe_ack(self, message: ProbeAck) -> None:
        mshr = self._mshr_on(message.address) or self._mshr_victim(message.address)
        if mshr is None or message.source not in mshr.awaiting_acks:
            raise RuntimeError(
                f"unsolicited ProbeAck from {message.source} for "
                f"{message.address:#x}"
            )
        line = self._line(message.address)
        assert line is not None
        discard = (
            mshr.kind is _ROOT_RELEASE and mshr.inval
        )  # cbo.inval discards dirty data instead of merging it
        if message.data is not None and not discard:
            line.data = message.data
            line.dirty = True
        # The probe's cap, not the answer's shrink, decides the directory
        # update: the client is at most at `cap` now even when it answers
        # with a stale report (e.g. NtoN because a concurrent flush
        # already invalidated its copy).
        assert mshr.probe_cap is not None
        current = line.directory.perm_of(message.source)
        target = min(current, mshr.probe_cap.perm)
        line.directory.downgrade(message.source, target)
        mshr.awaiting_acks.discard(message.source)
        self.stats.inc("probe_acks")

    def _grant_ack(self, message: GrantAck) -> None:
        mshr = self._mshr_on(message.address)
        if mshr is None or mshr.state is not _GRANT_WAIT:
            raise RuntimeError("GrantAck with no granting MSHR")
        self._free(mshr)

    # ------------------------------------------------------------ MSHR FSM
    def _step_mshrs(self, cycle: int) -> None:
        mshrs = self.mshrs
        # Snapshot the active slots: handlers may _free (which edits the
        # list); the copy is tiny — only busy slots appear in it.
        for slot in tuple(self._active_slots):
            mshr = mshrs[slot]
            if mshr is None:  # pragma: no cover - freed earlier this walk
                continue
            state = mshr.state
            if state is _START:
                self._dispatch(mshr, cycle)
            elif state is _EVICT_PROBE or state is _PROBE:
                if not mshr.awaiting_acks:
                    if state is _EVICT_PROBE:
                        self._finish_victim_probe(mshr, cycle)
                    else:
                        self._after_target_probe(mshr, cycle)
            elif state is _DONE:
                self._complete(mshr, cycle)

    def _dispatch(self, mshr: _L2Mshr, cycle: int) -> None:
        line = self._line(mshr.address)
        if mshr.kind is _ACQUIRE:
            if line is None:
                if self._need_eviction(mshr.address):
                    self._start_victim_eviction(mshr, cycle)
                else:
                    self._fetch_from_dram(mshr, cycle)
                return
            self._probe_for_acquire(mshr, line, cycle)
        else:  # ROOT_RELEASE
            self._probe_for_root_release(mshr, line, cycle)

    # -------------------------------------------------- acquire processing
    def _need_eviction(self, address: int) -> bool:
        set_idx = self.geometry.set_index(address)
        resident = self._set_occupancy(address)
        # Concurrent fills into the same set also claim ways: count MSHRs
        # whose fetched line has not landed yet, or this set overflows.
        inflight = sum(
            1
            for s in self._active_slots
            for m in (self.mshrs[s],)
            if m.address != address
            and m.state is _FETCH
            and self.geometry.set_index(m.address) == set_idx
            and m.address not in self.lines
        )
        return len(resident) + inflight >= self.geometry.ways

    def _start_victim_eviction(self, mshr: _L2Mshr, cycle: int) -> None:
        busy = self._busy_lines()
        candidates = [a for a in self._set_occupancy(mshr.address) if a not in busy]
        if not candidates:
            return  # every line in the set is mid-transaction; retry next cycle
        victim = candidates[0]
        mshr.victim_address = victim
        self._victim_by_addr[victim] = mshr
        line = self.lines[victim]
        if line.directory.sharers:
            mshr.awaiting_acks = set(line.directory.sharers)
            mshr.probe_cap = _TO_N
            for client in mshr.awaiting_acks:
                self.links[client].b.send(
                    Probe(source=self.AGENT_ID, address=victim, cap=_TO_N), cycle
                )
            mshr.state = _EVICT_PROBE
            self.stats.inc("inclusive_probes", len(mshr.awaiting_acks))
        else:
            self._writeback_victim(mshr, cycle)

    def _finish_victim_probe(self, mshr: _L2Mshr, cycle: int) -> None:
        self._writeback_victim(mshr, cycle)

    def _writeback_victim(self, mshr: _L2Mshr, cycle: int) -> None:
        victim = mshr.victim_address
        assert victim is not None
        line = self.lines[victim]
        if line.dirty:
            self.dram.chan_c.send(
                Release(source=self.AGENT_ID, address=victim, data=line.data), cycle
            )
            self._remove_line(victim)
            mshr.state = _EVICT_WB
            self.stats.inc("victim_writebacks")
        else:
            self._remove_line(victim)
            del self._victim_by_addr[victim]
            mshr.victim_address = None
            mshr.state = _START
            self.stats.inc("victim_drops")

    def _fetch_from_dram(self, mshr: _L2Mshr, cycle: int) -> None:
        self.dram.chan_a.send(
            Acquire(source=self.AGENT_ID, address=mshr.address, grow=_N_TO_T),
            cycle,
        )
        mshr.state = _FETCH
        self.stats.inc("dram_fetches")

    def _probe_for_acquire(self, mshr: _L2Mshr, line: L2Line, cycle: int) -> None:
        want_trunk = mshr.grow.target is _TRUNK
        directory = line.directory
        if want_trunk:
            targets = directory.sharers - {mshr.client}
            cap = _TO_N
        else:
            targets = (
                {directory.owner}
                if directory.owner is not None and directory.owner != mshr.client
                else set()
            )
            cap = _TO_B
        if targets:
            mshr.awaiting_acks = set(targets)
            mshr.probe_cap = cap
            for client in targets:
                self.links[client].b.send(
                    Probe(source=self.AGENT_ID, address=mshr.address, cap=cap),
                    cycle,
                )
            mshr.state = _PROBE
            self.stats.inc("coherence_probes", len(targets))
        else:
            self._grant(mshr, line, cycle)

    def _after_target_probe(self, mshr: _L2Mshr, cycle: int) -> None:
        line = self._line(mshr.address)
        assert line is not None
        if mshr.kind is _ACQUIRE:
            self._grant(mshr, line, cycle)
        else:
            self._root_release_writeback(mshr, line, cycle)

    def _grant(self, mshr: _L2Mshr, line: L2Line, cycle: int) -> None:
        want_trunk = mshr.grow.target is _TRUNK
        others = line.directory.sharers - {mshr.client}
        # Exclusive-state optimisation: a lone reader gets TRUNK clean.
        if want_trunk or not others:
            granted = _N_TO_T
            perm = _TRUNK
        else:
            granted = _N_TO_B
            perm = _BRANCH
        line.directory.grant(mshr.client, perm)
        self.links[mshr.client].d.send(
            GrantData(
                source=self.AGENT_ID,
                address=mshr.address,
                grow=granted,
                data=line.data,
                # GrantDataDirty (§6): tell the L1 the line is not persisted
                dirty=line.dirty,
            ),
            cycle,
        )
        mshr.state = _GRANT_WAIT
        self.stats.inc("grants")
        if line.dirty:
            self.stats.inc("grants_dirty")

    # --------------------------------------------- RootRelease processing
    def _probe_for_root_release(
        self, mshr: _L2Mshr, line: Optional[L2Line], cycle: int
    ) -> None:
        if line is None:
            # Absent in the inclusive L2: no cache anywhere holds it, and
            # DRAM already has the authoritative copy; just acknowledge.
            mshr.state = _DONE
            self.stats.inc("root_release_absent")
            return
        directory = line.directory
        if mshr.clean:
            targets = (
                {directory.owner}
                if directory.owner is not None and directory.owner != mshr.client
                else set()
            )
            cap = _TO_B
        else:
            targets = directory.sharers - {mshr.client}
            cap = _TO_N
        if targets:
            mshr.awaiting_acks = set(targets)
            mshr.probe_cap = cap
            for client in targets:
                self.links[client].b.send(
                    Probe(source=self.AGENT_ID, address=mshr.address, cap=cap),
                    cycle,
                )
            mshr.state = _PROBE
            self.stats.inc("root_probes", len(targets))
        else:
            self._root_release_writeback(mshr, line, cycle)

    def _root_release_writeback(
        self, mshr: _L2Mshr, line: L2Line, cycle: int
    ) -> None:
        if mshr.inval:
            # discard semantics: no DRAM writeback, ever
            line.dirty = False
            mshr.state = _DONE
            self.stats.inc("root_inval_discards")
            return
        if line.dirty:
            self.dram.chan_c.send(
                Release(source=self.AGENT_ID, address=mshr.address, data=line.data),
                cycle,
            )
            mshr.state = _ROOT_WB
            self.stats.inc("root_writebacks")
        else:
            # The LLC's trivial filter: clean line, skip the DRAM writeback.
            mshr.state = _DONE
            self.stats.inc("root_writebacks_skipped")

    def _complete(self, mshr: _L2Mshr, cycle: int) -> None:
        if mshr.kind is _ROOT_RELEASE:
            line = self._line(mshr.address)
            if not mshr.clean and line is not None and line.directory.idle:
                # CBO.FLUSH/CBO.INVAL invalidate the whole hierarchy (§2.6)
                self._remove_line(mshr.address)
                self.stats.inc("flush_l2_invalidations")
            self.links[mshr.client].d.send(
                root_release_ack(self.AGENT_ID, mshr.address), cycle
            )
            self.stats.inc("root_release_acks")
        self._free(mshr)

    def _free(self, mshr: _L2Mshr) -> None:
        self.mshrs[mshr.slot] = None
        self._active_slots.remove(mshr.slot)
        del self._mshr_by_addr[mshr.address]
        if mshr.victim_address is not None:  # defensive; cleared on WB ack
            self._victim_by_addr.pop(mshr.victim_address, None)
        self._n_active -= 1
        self.engine.note_progress()

    # ------------------------------------------------------------- queries
    @property
    def quiescent(self) -> bool:
        return not (self._n_active or self.list_buffer or self._ingress)

    def line_dirty(self, address: int) -> Optional[bool]:
        line = self._line(address)
        return None if line is None else line.dirty

    def directory_of(self, address: int) -> Optional[DirectoryEntry]:
        line = self._line(address)
        return None if line is None else line.directory
