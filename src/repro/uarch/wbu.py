"""The L1 writeback unit (§3.3, §5.4.2).

Releases victim lines to the L2 on eviction.  While an eviction is in
flight, ``wb_rdy`` is low, which blocks both incoming probes and flush-
queue dequeues (the paper reuses the existing ``wb_rdy`` for the latter).
When a line is evicted, pending flush-queue entries for it are downgraded
to miss entries via ``FlushUnit.evict_invalidate``.
"""

from __future__ import annotations

from typing import Optional

from repro.tilelink.messages import Release
from repro.tilelink.permissions import Perm, Shrink

# enum members bound once at import (see tests/test_hot_paths.py)
_TRUNK = Perm.TRUNK
_T_TO_N = Shrink.TtoN
_B_TO_N = Shrink.BtoN


class WritebackUnit:
    """Evicts one line at a time over channel C."""

    def __init__(self, l1) -> None:
        self.l1 = l1
        self._pending_address: Optional[int] = None
        self.evictions = 0
        self.obs = None  # observability bus; attached via repro.obs.attach
        self._obs_seq = 0

    @property
    def wb_rdy(self) -> bool:
        return self._pending_address is None

    @property
    def busy_address(self) -> Optional[int]:
        return self._pending_address

    def start_eviction(self, address: int, way: int, cycle: int) -> None:
        """Release the line at (*address*, *way*) and invalidate it.

        The flush queue is informed first (§5.4.2) so stale hit/dirty bits
        on pending entries are cleared before the line disappears.
        """
        if not self.wb_rdy:
            raise RuntimeError("eviction started while WBU busy")
        set_idx = self.l1.geometry.set_index(address)
        entry = self.l1.meta.way_entry(address, way)
        if not entry.valid or self.l1.meta.address_of(set_idx, entry) != address:
            raise RuntimeError("eviction of a non-resident line")
        shrink = _T_TO_N if entry.perm is _TRUNK else _B_TO_N
        data = (
            self.l1.data.read_line(set_idx, way) if entry.dirty else None
        )
        self.l1.flush_unit.evict_invalidate(address)
        entry.invalidate()
        self._pending_address = address
        self.evictions += 1
        if self.obs is not None:
            self.obs.open_span(
                cycle,
                f"wbu:l1{self.l1.agent_id}:{address:#x}",
                "eviction",
                name="eviction",
                track=f"core{self.l1.agent_id}.wbu",
                state="release",
                address=address,
                shrink=shrink.name,
                dirty=data is not None,
            )
        self.l1.send_channel_c(
            Release(
                source=self.l1.agent_id, address=address, shrink=shrink, data=data
            ),
            cycle,
        )

    def complete(self, address: int) -> None:
        """Consume the ReleaseAck for the in-flight eviction."""
        if self._pending_address != address:
            raise RuntimeError(
                f"ReleaseAck for {address:#x}, expected "
                f"{self._pending_address!r}"
            )
        self._pending_address = None
        if self.obs is not None:
            self.obs.close_span(
                self.l1.engine.cycle, f"wbu:l1{self.l1.agent_id}:{address:#x}"
            )
        self.l1.engine.note_progress()
