"""L1 miss status holding registers with replay queues (§3.3).

An MSHR owns one outstanding line fill: it reserves a victim way, asks the
writeback unit to evict the victim if needed, sends the Acquire, installs
the granted line (including the Skip It bit derived from
GrantData/GrantDataDirty, §6.1) and replays its RPQ in arrival order, one
request per cycle.

Secondary requests may piggy-back only if they need no more permission
than the primary (the BOOM data cache lacks AcquirePerm, §3.3): a store
cannot ride a load's MSHR.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional

from repro.tilelink.permissions import Grow, Perm
from repro.uarch.requests import MemOp, MemRequest


class MshrState(enum.Enum):
    IDLE = "idle"
    EVICT_WAIT = "evict_wait"  # waiting for the WBU to free the victim way
    ACQUIRE = "acquire"  # Acquire not yet sent (channel backpressure)
    WAIT_GRANT = "wait_grant"
    REPLAY = "replay"


class Mshr:
    """One miss status holding register."""

    def __init__(self, index: int, rpq_depth: int) -> None:
        self.index = index
        self.rpq_depth = rpq_depth
        self.state = MshrState.IDLE
        self.address: Optional[int] = None  # line address
        self.want_perm = Perm.NONE
        self.victim_way = -1
        self.needs_evict = False
        self.grow: Optional[Grow] = None
        self.rpq: Deque[MemRequest] = deque()

    @property
    def busy(self) -> bool:
        return self.state is not MshrState.IDLE

    @property
    def replaying(self) -> bool:
        return self.state is MshrState.REPLAY

    def matches(self, address: int) -> bool:
        return self.busy and self.address == address

    def can_accept_secondary(self, op: MemOp) -> bool:
        """RPQ rule of §3.3: secondary permission <= primary permission."""
        if not self.busy or self.state is MshrState.REPLAY:
            return False
        if len(self.rpq) >= self.rpq_depth:
            return False
        needed = (
            Perm.TRUNK if op is MemOp.STORE or op is MemOp.CBO_ZERO else Perm.BRANCH
        )
        return needed <= self.want_perm

    def allocate(
        self,
        request: MemRequest,
        line_address: int,
        want_perm: Perm,
        victim_way: int,
        needs_evict: bool,
        grow: Grow,
    ) -> None:
        if self.busy:
            raise RuntimeError("allocate into busy MSHR")
        self.address = line_address
        self.want_perm = want_perm
        self.victim_way = victim_way
        self.needs_evict = needs_evict
        self.grow = grow
        self.rpq = deque((request,))
        self.state = MshrState.EVICT_WAIT if needs_evict else MshrState.ACQUIRE

    def push_secondary(self, request: MemRequest) -> None:
        if not self.can_accept_secondary(request.op):
            raise RuntimeError("secondary request rejected")
        self.rpq.append(request)

    def eviction_done(self) -> None:
        if self.state is not MshrState.EVICT_WAIT:
            raise RuntimeError("eviction_done in wrong state")
        self.state = MshrState.ACQUIRE

    def acquire_sent(self) -> None:
        self.state = MshrState.WAIT_GRANT

    def granted(self) -> None:
        self.state = MshrState.REPLAY

    def pop_replay(self) -> Optional[MemRequest]:
        if self.rpq:
            return self.rpq.popleft()
        return None

    def free(self) -> None:
        self.state = MshrState.IDLE
        self.address = None
        self.want_perm = Perm.NONE
        self.victim_way = -1
        self.needs_evict = False
        self.grow = None
        self.rpq = deque()
