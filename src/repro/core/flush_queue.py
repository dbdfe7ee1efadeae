"""The flush queue (§5.2).

Incoming ``CBO.X`` requests are buffered here together with the metadata
sampled at enqueue time (hit/dirty/way/permission).  Because an arbitrary
number of cycles may pass before an FSHR dequeues the entry, the sampled
metadata can be invalidated by coherence probes (§5.4.1) or evictions
(§5.4.2); the queue therefore supports targeted downgrades of pending
entries (``probe_invalidate`` / ``evict_invalidate``).
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.tilelink.messages import ProbeAckParam
from repro.tilelink.permissions import Cap, Perm

_flush_ids = itertools.count()


class CboKind(enum.Enum):
    """Which CBO.X a flush request executes.

    CLEAN and FLUSH are the paper's instructions (§2.6); INVAL is the
    CMO extension's cbo.inval [60], implemented here as an extension:
    it invalidates without writing back (dirty data is *discarded*).
    """

    CLEAN = "clean"
    FLUSH = "flush"
    INVAL = "inval"


# the RootRelease param each kind sends (§5.1), a member attribute (see
# ``MemOp.is_cbo``): the flush unit reads it on every release
CboKind.CLEAN.release_param = ProbeAckParam.CLEAN
CboKind.FLUSH.release_param = ProbeAckParam.FLUSH
CboKind.INVAL.release_param = ProbeAckParam.INVAL

# enum members bound once at import (see tests/test_hot_paths.py)
_CLEAN = CboKind.CLEAN
_NONE = Perm.NONE
_BRANCH = Perm.BRANCH
_TRUNK = Perm.TRUNK
_TO_N = Cap.toN
_TO_B = Cap.toB


@dataclass
class FlushRequest:
    """One buffered CBO.X with the cache-line bookkeeping of §5.2."""

    address: int  # line address
    kind: CboKind
    is_hit: bool
    is_dirty: bool
    way: int = -1  # L1 way at enqueue time, valid only while is_hit
    perm: Perm = Perm.NONE  # permission at enqueue, kept current by probes
    flush_id: int = field(default_factory=lambda: next(_flush_ids), compare=False)

    #: every line the entry owns in the queue's ``_line_count``; empty
    #: means "just ``address``" (per-line entries pay no tuple)
    covered: Tuple[int, ...] = ()

    # class attribute, not a field: ranged subclass flips it so the
    # queue and FSHRs can branch without isinstance checks
    is_range = False

    @property
    def is_clean(self) -> bool:
        return self.kind is _CLEAN

    def apply_downgrade(self, cap: Cap) -> None:
        """Reflect a permission downgrade (probe) on the sampled metadata.

        A probe that revokes the line (toN) turns the entry into a miss
        entry; one that downgrades to BRANCH clears the dirty bit (the
        probe response carried the dirty data to L2).
        """
        if cap is _TO_N:
            self.is_hit = False
            self.is_dirty = False
            self.perm = _NONE
            self.way = -1
        elif cap is _TO_B:
            self.is_dirty = False
            if self.perm is _TRUNK:
                self.perm = _BRANCH

    def apply_eviction(self) -> None:
        """Reflect the line's eviction from L1 (writeback unit, §5.4.2)."""
        self.apply_downgrade(_TO_N)


@dataclass
class RangedFlushRequest(FlushRequest):
    """One buffered CBO.RANGE.* sweeping ``lines`` lines from ``base``.

    Unlike per-line entries, a ranged entry samples *no* metadata at
    enqueue time: the sweeping FSHR looks each line up when the cursor
    reaches it, so probes and evictions landing on unreached lines need
    no queue downgrade — the sweep always sees fresh state ("the range
    yields to probes on lines it hasn't reached").  While the entry
    executes, ``address`` and the hit/dirty/way/perm fields track the
    line currently under the cursor; lines behind the cursor are done.
    """

    base: int = 0  # first covered line address
    lines: int = 1  # number of covered lines
    cursor: int = 0  # covered lines fully processed so far

    is_range = True

    def apply_downgrade(self, cap: Cap) -> None:
        """No-op: metadata is sampled at the cursor, never at enqueue."""

    def apply_eviction(self) -> None:
        """No-op: metadata is sampled at the cursor, never at enqueue."""


class FlushQueue:
    """Bounded FIFO of :class:`FlushRequest` with in-place invalidation."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("flush queue depth must be >= 1")
        self.depth = depth
        self._entries: Deque[FlushRequest] = deque()
        # pending entries per line, so has_line is an O(1) dict probe and
        # the targeted-downgrade scans can bail out without walking the
        # queue (downgrades never change an entry's address)
        self._line_count: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, request: FlushRequest) -> None:
        if self.full:
            raise RuntimeError("push into full flush queue")
        self._entries.append(request)
        counts = self._line_count
        for line in request.covered or (request.address,):
            counts[line] = counts.get(line, 0) + 1

    def pop(self) -> FlushRequest:
        request = self._entries.popleft()
        counts = self._line_count
        for line in request.covered or (request.address,):
            remaining = counts[line] - 1
            if remaining:
                counts[line] = remaining
            else:
                del counts[line]
        return request

    def peek(self) -> FlushRequest:
        return self._entries[0]

    @property
    def entries(self) -> List[FlushRequest]:
        """Snapshot of the queue contents (diagnostics/observability)."""
        return list(self._entries)

    def entries_for(self, address: int) -> List[FlushRequest]:
        if address not in self._line_count:
            return []
        return [
            e
            for e in self._entries
            if e.address == address or address in e.covered
        ]

    def has_line(self, address: int) -> bool:
        return address in self._line_count

    def probe_invalidate(self, address: int, cap: Cap) -> int:
        """Downgrade all pending entries for *address*; return count touched."""
        if address not in self._line_count:
            return 0
        touched = 0
        for entry in self._entries:
            if entry.address == address or address in entry.covered:
                entry.apply_downgrade(cap)
                touched += 1
        return touched

    def evict_invalidate(self, address: int) -> int:
        """Mark pending entries for *address* as misses after eviction."""
        if address not in self._line_count:
            return 0
        touched = 0
        for entry in self._entries:
            if entry.address == address or address in entry.covered:
                entry.apply_eviction()
                touched += 1
        return touched
