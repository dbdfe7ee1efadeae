"""The L1 probe unit (§3.3) with the paper's handshake extensions (§5.4.1).

On probe arrival the unit immediately lowers ``probe_rdy`` and downgrades
matching flush-queue entries (``probe_invalidate``).  One cycle later it
checks ``flush_rdy`` (no FSHR mutating line state) and ``wb_rdy`` (no
eviction in flight) and only then performs the downgrade and answers with
a ProbeAck.  This one-cycle stagger is exactly the deadlock-freedom
argument of §5.4.1: a flush request dequeued in the same cycle the probe
arrived wins the race, completes its metadata work, and re-raises
``flush_rdy``; no further dequeue can start because ``probe_rdy`` is low.

Probes to a line whose MSHR is replaying buffered stores stall on
``mshr_rdy`` (§3.3): those stores are already architecturally committed
and must land before the line can be surrendered.
"""

from __future__ import annotations

from typing import Optional

from repro.tilelink.messages import Probe, ProbeAck
from repro.tilelink.permissions import Cap, Perm, probe_shrink

# enum members bound once at import (see tests/test_hot_paths.py)
_NONE = Perm.NONE


class ProbeUnit:
    """Handles one coherence probe at a time."""

    def __init__(self, l1) -> None:
        self.l1 = l1
        #: the in-flight probe, public so the L1 tick can gate on it
        self.current: Optional[Probe] = None
        self._arrival_cycle = -1
        self.probes_handled = 0
        self.probes_stalled_cycles = 0
        self.obs = None  # observability bus; attached via repro.obs.attach
        self._obs_seq = 0
        self._obs_key: Optional[str] = None

    @property
    def probe_rdy(self) -> bool:
        """High when no probe is in flight; gates flush-queue dequeue."""
        return self.current is None

    def tick(self, cycle: int) -> None:
        if self.current is None:
            probe = self.l1.pop_channel_b(cycle)
            if probe is None:
                return
            self.current = probe
            self._arrival_cycle = cycle
            if self.obs is not None:
                self._obs_key = f"probe:l1{self.l1.agent_id}:{self._obs_seq}"
                self._obs_seq += 1
                self.obs.open_span(
                    cycle,
                    self._obs_key,
                    "probe",
                    name=f"probe.{probe.cap.name}",
                    track=f"core{self.l1.agent_id}.probe_unit",
                    state="pending",
                    address=probe.address,
                    cap=probe.cap.name,
                )
            # §5.4.1: invalidate conflicting flush-queue entries before
            # anything else can dequeue them.
            self.l1.flush_unit.probe_invalidate(probe.address, probe.cap)
            self.l1.engine.note_progress()
            return
        # The paper's probe unit checks flush_rdy one cycle after lowering
        # probe_rdy, so a same-cycle dequeue completes first.
        if cycle <= self._arrival_cycle:
            return
        if not self.l1.flush_unit.flush_rdy or not self.l1.wbu.wb_rdy:
            self.probes_stalled_cycles += 1
            return
        if self.l1.mshr_blocks_probe(self.current.address):
            self.probes_stalled_cycles += 1
            return
        self._handle(self.current, cycle)
        if self.obs is not None and self._obs_key is not None:
            self.obs.close_span(cycle, self._obs_key)
            self._obs_key = None
        self.current = None

    def _handle(self, probe: Probe, cycle: int) -> None:
        address, cap = probe.address, probe.cap
        hit = self.l1.meta.lookup(address)
        if hit is None:
            current = _NONE
            data = None
        else:
            way, entry = hit
            current = entry.perm
            set_idx = self.l1.geometry.set_index(address)
            data = self.l1.data.read_line(set_idx, way) if entry.dirty else None
            target = min(current, cap.perm)
            if target == _NONE:
                entry.invalidate()
            else:
                entry.perm = target
                if entry.dirty:
                    # Dirty data leaves for L2: the line is clean here but
                    # dirty above us, hence not persisted (§6.2) — the skip
                    # bit must drop with the dirty bit.
                    entry.dirty = False
                    entry.skip = False
        self.l1.send_channel_c(
            ProbeAck(
                source=self.l1.agent_id,
                address=address,
                shrink=probe_shrink(current, cap),
                data=data,
            ),
            cycle,
        )
        self.probes_handled += 1
        self.l1.engine.note_progress()
