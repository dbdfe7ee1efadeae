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


# enum members bound once at import (see tests/test_hot_paths.py)
_IDLE = MshrState.IDLE
_EVICT_WAIT = MshrState.EVICT_WAIT
_ACQUIRE = MshrState.ACQUIRE
_WAIT_GRANT = MshrState.WAIT_GRANT
_REPLAY = MshrState.REPLAY
_NONE = Perm.NONE
_BRANCH = Perm.BRANCH
_TRUNK = Perm.TRUNK
_STORE = MemOp.STORE
_CBO_ZERO = MemOp.CBO_ZERO


class Mshr:
    """One miss status holding register."""

    def __init__(self, index: int, rpq_depth: int) -> None:
        self.index = index
        self.rpq_depth = rpq_depth
        self.state = _IDLE
        self.address: Optional[int] = None  # line address
        self.want_perm = _NONE
        self.victim_way = -1
        self.needs_evict = False
        self.grow: Optional[Grow] = None
        self.rpq: Deque[MemRequest] = deque()

    @property
    def busy(self) -> bool:
        return self.state is not _IDLE

    @property
    def replaying(self) -> bool:
        return self.state is _REPLAY

    def matches(self, address: int) -> bool:
        return self.busy and self.address == address

    def can_accept_secondary(self, op: MemOp) -> bool:
        """RPQ rule of §3.3: secondary permission <= primary permission."""
        if not self.busy or self.state is _REPLAY:
            return False
        if len(self.rpq) >= self.rpq_depth:
            return False
        needed = (
            _TRUNK if op is _STORE or op is _CBO_ZERO else _BRANCH
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
        self.state = _EVICT_WAIT if needs_evict else _ACQUIRE

    def push_secondary(self, request: MemRequest) -> None:
        if not self.can_accept_secondary(request.op):
            raise RuntimeError("secondary request rejected")
        self.rpq.append(request)

    def eviction_done(self) -> None:
        if self.state is not _EVICT_WAIT:
            raise RuntimeError("eviction_done in wrong state")
        self.state = _ACQUIRE

    def acquire_sent(self) -> None:
        self.state = _WAIT_GRANT

    def granted(self) -> None:
        self.state = _REPLAY

    def pop_replay(self) -> Optional[MemRequest]:
        if self.rpq:
            return self.rpq.popleft()
        return None

    def free(self) -> None:
        self.state = _IDLE
        self.address = None
        self.want_perm = _NONE
        self.victim_way = -1
        self.needs_evict = False
        self.grow = None
        self.rpq = deque()
