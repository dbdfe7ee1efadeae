"""The SonicBOOM L1 data cache with the paper's flush unit (Figure 8).

The cache is non-blocking (MSHRs with replay queues, §3.3), writeback
(writeback unit + probe unit) and hosts the flush unit of §5 plus the
Skip It bit of §6.  The LSU fires requests through :meth:`L1DataCache.fire`
and receives an immediate accept/nack; load data for misses is delivered
later through the registered response sink, mirroring the replay mechanism
of the real design.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.flush_unit import FlushUnit
from repro.sim.config import SoCParams
from repro.sim.engine import Engine
from repro.sim.stats import StatCounter, StatKeys, inc_all
from repro.tilelink.channel import BeatChannel
from repro.tilelink.messages import (
    Acquire,
    GrantAck,
    GrantData,
    Probe,
    ReleaseAck,
    ReleaseAckParam,
)
from repro.tilelink.permissions import Grow, Perm, grow_target
from repro.uarch.arrays import DataArray, MetaArray
from repro.uarch.mshr import Mshr, MshrState
from repro.uarch.probe_unit import ProbeUnit
from repro.uarch.requests import MemOp, MemRequest
from repro.uarch.wbu import WritebackUnit


class FireStatus(enum.Enum):
    OK_NOW = "ok_now"  # complete after the L1 hit latency
    OK_LATER = "ok_later"  # load miss buffered; data arrives via the sink
    NACK = "nack"  # LSU must retry later


# enum members bound once at import (see tests/test_hot_paths.py)
_OK_NOW = FireStatus.OK_NOW
_OK_LATER = FireStatus.OK_LATER
_NACK = FireStatus.NACK
_LOAD = MemOp.LOAD
_STORE = MemOp.STORE
_CBO_ZERO = MemOp.CBO_ZERO
_BRANCH = Perm.BRANCH
_TRUNK = Perm.TRUNK
_N_TO_B = Grow.NtoB
_N_TO_T = Grow.NtoT
_B_TO_T = Grow.BtoT
_EVICT_WAIT = MshrState.EVICT_WAIT
_ACQUIRE = MshrState.ACQUIRE
_WAIT_GRANT = MshrState.WAIT_GRANT
_REPLAY = MshrState.REPLAY
_ROOT = ReleaseAckParam.ROOT


@dataclass
class FireOutcome:
    status: FireStatus
    value: Optional[int] = None  # load data for OK_NOW loads
    #: for a nacked STQ request, the stat keys the nack bumped (the
    #: decision of :meth:`L1DataCache.nack_keys`)
    nack: Optional[StatKeys] = None

    @property
    def ok(self) -> bool:
        return self.status is not _NACK


#: the stat keys of the ``_miss`` nack rules, in the order they apply
MISS_NACKS = (
    "mshr_secondary_nack",
    "mshr_full_nack",
    "no_way_nack",
    "evict_nack_flush_rdy",
)


class L1DataCache:
    """One core's L1 data cache, including the flush unit."""

    def __init__(self, engine: Engine, agent_id: int, params: SoCParams) -> None:
        self.engine = engine
        self.agent_id = agent_id
        self.params = params
        self.geometry = params.l1
        self.meta = MetaArray(self.geometry)
        self.data = DataArray(self.geometry)
        self.flush_unit = FlushUnit(self, params)
        self.mshrs: List[Mshr] = [
            Mshr(i, params.rpq_depth) for i in range(params.num_l1_mshrs)
        ]
        self.wbu = WritebackUnit(self)
        self.probe_unit = ProbeUnit(self)
        self.stats = StatCounter()
        # one shared stat-key tuple per nack rule (see nack_keys); a
        # nacked store miss bumps its access kind, then the rule
        stats = self.stats
        self._nack_cbo_mshr: StatKeys = ((stats, "cbo_nack_mshr"),)
        self._nack_store_flush: StatKeys = ((stats, "store_nack_flush"),)
        self._nack_store_miss: Dict[Tuple[str, str], StatKeys] = {
            (access, rule): ((stats, access), (stats, rule))
            for access in ("store_misses", "store_upgrades")
            for rule in MISS_NACKS
        }
        self.resp_sink = None  # set by the owning core
        self.obs = None  # observability bus; attached via repro.obs.attach
        self._obs_mshr_keys: Dict[int, str] = {}  # mshr index -> live span key
        self._obs_seq = 0
        self._reserved_ways: Set[Tuple[int, int]] = set()
        self._mshr_victim_addr = {}
        # line address -> allocated MSHR (at most one MSHR per line);
        # maintained by _miss/_replay_one, replaces O(mshrs) scans
        self._mshr_by_line: Dict[int, Mshr] = {}
        # busy-MSHR count so an idle tick skips the state walk entirely
        self._mshr_active = 0
        # channels, wired by the SoC
        self.chan_a: Optional[BeatChannel] = None
        self.chan_b: Optional[BeatChannel] = None
        self.chan_c: Optional[BeatChannel] = None
        self.chan_d: Optional[BeatChannel] = None
        self.chan_e: Optional[BeatChannel] = None
        engine.register(self)

    def connect(self, a, b, c, d, e) -> None:
        """Attach the five TileLink channels toward the L2 (§2.2)."""
        self.chan_a, self.chan_b, self.chan_c, self.chan_d, self.chan_e = a, b, c, d, e

    # -------------------------------------------------------- channel glue
    def send_channel_c(self, message, cycle: int) -> None:
        self.chan_c.send(message, cycle)

    def pop_channel_b(self, cycle: int) -> Optional[Probe]:
        return self.chan_b.pop_ready(cycle)

    def flush_unit_evicted_line(self, address: int) -> None:
        """Hook invoked when a CBO.FLUSH invalidates a resident line."""
        self.stats.inc("flush_invalidations")

    def mshr_blocks_probe(self, address: int) -> bool:
        """§3.3 ``mshr_rdy``: stall probes while committed stores replay.

        Scans the MSHR list (rather than probing ``_mshr_by_line``) so
        that externally injected MSHR stand-ins are honoured; only called
        while a probe is actually in flight, so it is not hot.
        """
        return any(m.matches(address) and m.replaying for m in self.mshrs)

    # ------------------------------------------------------------ LSU port
    def nack_keys(
        self, op: MemOp, address: int, length: int = 0
    ) -> Optional[StatKeys]:
        """The nack decision for an STQ request: why a fire would nack now.

        Covers stores, cbo.zero, CBO.X and CBO.RANGE (*length* bytes).
        Returns the ``(counter, key)`` pairs one nacked fire bumps — a
        shared tuple per rule — or ``None`` when the cache would take the
        request.  Pure: it reads only this cache's and its flush unit's
        state and changes nothing, so the LSU may ask it every cycle
        while a nacked request waits (:class:`~repro.uarch.cpu.Core`
        parks it).  :meth:`fire` goes through it; the accept paths
        behind it hold no nack rule of their own.
        """
        line = self.geometry.line_address(address)
        if op.is_cbo:
            last_line = (
                self.geometry.line_address(address + length - 1)
                if op.is_cbo_range
                else line
            )
            # A CBO.X racing this core's own in-flight fill of a covered
            # line would sample metadata that the grant is about to
            # change (and could miss stores buffered in the MSHR's RPQ);
            # nack conservatively.  A ranged op applies the rule across
            # the range at fire time; once the sweep runs, new fills on
            # unreached lines stall the cursor instead.
            if self._mshr_by_line:
                line_bytes = self.geometry.line_bytes
                covered = line
                while covered <= last_line:
                    if covered in self._mshr_by_line:
                        return self._nack_cbo_mshr
                    covered += line_bytes
            if op.is_cbo_range:
                return self.flush_unit.range_nack(line, last_line)
            return self.flush_unit.offer_nack(
                line, op.cbo_kind, self.meta.lookup(line)
            )
        flush_unit = self.flush_unit
        if (
            flush_unit.flush_counter
            and flush_unit.pending_for(line)
            and not flush_unit.store_may_proceed(line)
        ):
            return self._nack_store_flush
        meta = self.meta
        way = meta.hit_way(line)
        if way >= 0:
            slot = (line // meta.line_bytes % meta.num_sets) * meta.ways + way
            if meta.perms[slot] == _TRUNK:
                return None
        rule = self._miss_nack(line, op)
        if rule is None:
            return None
        access = "store_upgrades" if way >= 0 else "store_misses"
        return self._nack_store_miss[access, rule]

    def _miss_nack(self, line: int, op: MemOp) -> Optional[str]:
        """The ``_miss`` rule that nacks a miss of *op* on *line* now, if any."""
        mshr = self._mshr_by_line.get(line)
        if mshr is not None:
            if mshr.can_accept_secondary(op):
                return None
            return "mshr_secondary_nack"
        if all(m.busy for m in self.mshrs):
            return "mshr_full_nack"
        if self.meta.hit_way(line) >= 0:
            return None  # a permission upgrade keeps the line's way
        victim_way = self._victim_way(line)
        if victim_way is None:
            return "no_way_nack"
        if (
            self.meta.way_entry(line, victim_way).valid
            and not self.flush_unit.flush_rdy
        ):
            # §5.4.2: flush_rdy blocks the MSHRs from picking a victim
            return "evict_nack_flush_rdy"
        return None

    def _victim_way(self, line: int) -> Optional[int]:
        """Victim way for a fill of *line*, skipping ways MSHRs reserved."""
        set_idx = self.geometry.set_index(line)
        reserved = {w for (s, w) in self._reserved_ways if s == set_idx}
        return self.meta.victim_way(line, exclude=reserved)

    def fire(self, request: MemRequest, cycle: int) -> FireOutcome:
        """Fire one request from the LSU into the cache.

        A load goes to :meth:`_fire_load`; any other request passes the
        nack decision (:meth:`nack_keys`) first and is then taken.
        """
        op = request.op
        address = request.address
        line = self.geometry.line_address(address)
        if op is _LOAD:
            return self._fire_load(request, line)
        if not (op.is_cbo or op is _STORE or op is _CBO_ZERO):
            raise ValueError(f"L1 cannot serve {op}")
        nack = self.nack_keys(op, address, request.length)
        if not op.is_cbo:
            if nack is not None:
                inc_all(nack)
                return FireOutcome(_NACK, nack=nack)
            return self._fire_store(request, line)
        kind = op.cbo_kind
        last_line = (
            self.geometry.line_address(address + request.length - 1)
            if op.is_cbo_range
            else line
        )
        if nack is not None:
            self.flush_unit.note_nack(nack, line, last_line, kind)
            return FireOutcome(_NACK, nack=nack)
        if op.is_cbo_range:
            result = self.flush_unit.offer_range(line, last_line, kind)
            self.stats.inc(result.range_stat_key)
        else:
            result = self.flush_unit.offer(line, kind, self.meta.lookup(line))
            self.stats.inc(result.stat_key)
        return FireOutcome(_OK_NOW)

    def _fire_load(self, request: MemRequest, line: int) -> FireOutcome:
        meta = self.meta
        way = meta.hit_way(line)
        if way >= 0:
            set_idx = line // meta.line_bytes % meta.num_sets
            value = self.data.read_word(set_idx, way, request.address - line)
            meta.touch_slot(set_idx * meta.ways + way)
            self.stats.inc("load_hits")
            return FireOutcome(_OK_NOW, value=value)
        forwarded = self.flush_unit.load_forward(line)
        if forwarded is not None:
            offset = request.address - line
            value = int.from_bytes(forwarded[offset : offset + 8], "little")
            self.stats.inc("load_fshr_forwards")
            return FireOutcome(_OK_NOW, value=value)
        if self.flush_unit.load_must_wait(line):
            self.stats.inc("load_nack_flush")
            return FireOutcome(_NACK)
        self.stats.inc("load_misses")
        rule = self._miss_nack(line, _LOAD)
        if rule is not None:
            self.stats.inc(rule)
            return FireOutcome(_NACK)
        return self._miss(request, line, want=_BRANCH)

    def _fire_store(self, request: MemRequest, line: int) -> FireOutcome:
        """Accept a store or cbo.zero (:meth:`nack_keys` has passed it)."""
        meta = self.meta
        way = meta.hit_way(line)
        if way >= 0:
            set_idx = line // meta.line_bytes % meta.num_sets
            slot = set_idx * meta.ways + way
            if meta.perms[slot] == _TRUNK:
                if request.op is _CBO_ZERO:
                    # cbo.zero: write a whole line of zeros (CMO extension)
                    self.data.write_line(
                        set_idx, way, bytes(self.geometry.line_bytes)
                    )
                else:
                    self.data.write_word(
                        set_idx, way, request.address - line, request.data
                    )
                meta.dirtys[slot] = 1
                meta.skips[slot] = 0  # a dirty line is never persisted (§6.2)
                meta.touch_slot(slot)
                self.stats.inc("store_hits")
                return FireOutcome(_OK_NOW)
        self.stats.inc("store_upgrades" if way >= 0 else "store_misses")
        return self._miss(request, line, want=_TRUNK)

    def _miss(self, request: MemRequest, line: int, want: Perm) -> FireOutcome:
        """Take a miss that :meth:`_miss_nack` has passed."""
        later = _OK_LATER if request.op is _LOAD else _OK_NOW
        mshr = self._mshr_by_line.get(line)
        if mshr is not None:
            mshr.push_secondary(request)
            self.stats.inc("mshr_secondary")
            return FireOutcome(later)
        mshr = next(m for m in self.mshrs if not m.busy)
        hit = self.meta.lookup(line)
        if hit is not None:
            # permission upgrade (BRANCH -> TRUNK); the line keeps its way
            victim_way = hit[0]
            needs_evict = False
            grow = _B_TO_T
        else:
            victim_way = self._victim_way(line)
            needs_evict = self.meta.way_entry(line, victim_way).valid
            grow = _N_TO_T if want is _TRUNK else _N_TO_B
        set_idx = self.geometry.set_index(line)
        self._reserved_ways.add((set_idx, victim_way))
        if needs_evict:
            victim_entry = self.meta.way_entry(line, victim_way)
            self._mshr_victim_addr[mshr.index] = self.meta.address_of(
                set_idx, victim_entry
            )
        mshr.allocate(request, line, want, victim_way, needs_evict, grow)
        self._mshr_by_line[line] = mshr
        self._mshr_active += 1
        self.stats.inc("mshr_allocated")
        if self.obs is not None:
            key = f"mshr:l1{self.agent_id}:{self._obs_seq}"
            self._obs_seq += 1
            self._obs_mshr_keys[mshr.index] = key
            self.obs.open_span(
                self.engine.cycle,
                key,
                "l1_mshr",
                name=f"mshr{mshr.index}",
                track=f"core{self.agent_id}.mshrs",
                state=mshr.state.value,
                address=line,
                grow=grow.name,
            )
        return FireOutcome(later)

    # ---------------------------------------------------------------- tick
    def tick(self, cycle: int) -> None:
        # Each sub-unit is guarded so a fully idle cache costs four
        # attribute checks per cycle rather than four no-op walks.
        if self.chan_d.pending:
            self._drain_channel_d(cycle)
        probe_unit = self.probe_unit
        if probe_unit.current is not None or self.chan_b.pending:
            probe_unit.tick(cycle)
        flush_unit = self.flush_unit
        if flush_unit.flush_counter:
            flush_unit.tick(cycle)
        if self._mshr_active:
            self._step_mshrs(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle this cache could act (fast-forward hook)."""
        # An in-flight probe acts (or counts a stalled cycle) every tick.
        if self.probe_unit.current is not None:
            return cycle + 1
        if self._mshr_active:
            for mshr in self.mshrs:
                state = mshr.state
                if state is _ACQUIRE or state is _REPLAY:
                    return cycle + 1
                if (
                    state is _EVICT_WAIT
                    and self.wbu.wb_rdy
                    and self.flush_unit.flush_rdy
                ):
                    return cycle + 1
        best = (
            self.flush_unit.next_event_cycle(cycle)
            if self.flush_unit.flush_counter
            else None
        )
        if best == cycle + 1:
            return best
        for channel in (self.chan_d, self.chan_b):
            if channel is not None and channel.pending:
                nxt = channel.pending[0][0]
                if best is None or nxt < best:
                    best = nxt
        return best

    def _drain_channel_d(self, cycle: int) -> None:
        for message in self.chan_d.drain_ready(cycle):
            if isinstance(message, GrantData):
                self._handle_grant(message, cycle)
            elif isinstance(message, ReleaseAck):
                if message.param is _ROOT:
                    self.flush_unit.deliver_ack(message.address)
                else:
                    self.wbu.complete(message.address)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected channel D message {message}")
            self.engine.note_progress()

    def _handle_grant(self, grant: GrantData, cycle: int) -> None:
        mshr = self._mshr_by_line.get(grant.address)
        if mshr is not None and mshr.state is not _WAIT_GRANT:
            mshr = None
        if mshr is None:
            raise RuntimeError(f"GrantData for {grant.address:#x} with no MSHR")
        set_idx = self.geometry.set_index(grant.address)
        skip = self.params.skip_it and not grant.dirty
        self.meta.install(
            grant.address,
            mshr.victim_way,
            perm=grow_target(grant.grow),
            dirty=False,
            skip=skip,
        )
        self.data.write_line(set_idx, mshr.victim_way, grant.data)
        self.chan_e.send(
            GrantAck(source=self.agent_id, address=grant.address), cycle
        )
        mshr.granted()
        self.stats.inc("grants")
        if grant.dirty:
            self.stats.inc("grants_dirty")
        if self.obs is not None and mshr.index in self._obs_mshr_keys:
            self.obs.transition(
                cycle, self._obs_mshr_keys[mshr.index], mshr.state.value
            )

    def _step_mshrs(self, cycle: int) -> None:
        for mshr in self.mshrs:
            if mshr.state is _EVICT_WAIT:
                if self.wbu.wb_rdy and self.flush_unit.flush_rdy:
                    victim_addr = self._mshr_victim_addr.pop(mshr.index)
                    self.wbu.start_eviction(victim_addr, mshr.victim_way, cycle)
                    mshr.eviction_done()
                    if self.obs is not None and mshr.index in self._obs_mshr_keys:
                        self.obs.transition(
                            cycle, self._obs_mshr_keys[mshr.index], mshr.state.value
                        )
                    self.engine.note_progress()
            elif mshr.state is _ACQUIRE:
                self.chan_a.send(
                    Acquire(
                        source=self.agent_id, address=mshr.address, grow=mshr.grow
                    ),
                    cycle,
                )
                mshr.acquire_sent()
                if self.obs is not None and mshr.index in self._obs_mshr_keys:
                    self.obs.transition(
                        cycle, self._obs_mshr_keys[mshr.index], mshr.state.value
                    )
                self.engine.note_progress()
            elif mshr.state is _REPLAY:
                self._replay_one(mshr)

    def _replay_one(self, mshr: Mshr) -> None:
        request = mshr.pop_replay()
        if request is None:
            set_idx = self.geometry.set_index(mshr.address)
            self._reserved_ways.discard((set_idx, mshr.victim_way))
            del self._mshr_by_line[mshr.address]
            self._mshr_active -= 1
            mshr.free()
            if self.obs is not None and mshr.index in self._obs_mshr_keys:
                self.obs.close_span(
                    self.engine.cycle, self._obs_mshr_keys.pop(mshr.index)
                )
            return
        line = mshr.address
        set_idx = self.geometry.set_index(line)
        offset = request.address - line
        if request.op is _LOAD:
            value = self.data.read_word(set_idx, mshr.victim_way, offset)
            if self.resp_sink is not None:
                self.resp_sink.mem_response(request.req_id, value)
        else:  # STORE / CBO_ZERO
            if request.op is _CBO_ZERO:
                self.data.write_line(
                    set_idx, mshr.victim_way, bytes(self.geometry.line_bytes)
                )
            else:
                self.data.write_word(set_idx, mshr.victim_way, offset, request.data)
            replay_entry = self.meta.way_entry(line, mshr.victim_way)
            replay_entry.dirty = True
            replay_entry.skip = False
        self.stats.inc("replays")
        self.engine.note_progress()

    # ------------------------------------------------------------- queries
    @property
    def quiescent(self) -> bool:
        """True when nothing is in flight (tests/invariants use this)."""
        return (
            not self._mshr_active
            and not self.flush_unit.flushing
            and self.wbu.wb_rdy
            and self.probe_unit.probe_rdy
        )

    def line_state(self, address: int):
        """(perm, dirty, skip) of a line, or None when absent (test helper)."""
        hit = self.meta.lookup(self.geometry.line_address(address))
        if hit is None:
            return None
        entry = hit[1]
        return entry.perm, entry.dirty, entry.skip
