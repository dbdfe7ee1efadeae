"""Flush Status Holding Registers (§5.2, Figure 7).

Each FSHR executes one dequeued :class:`~repro.core.flush_queue.FlushRequest`
through the state machine::

    invalid -> meta_write -> fill_buffer -> root_release_data -> root_release_ack
            \\-> meta_write ------------------> root_release --/
            \\-> root_release ----------------------------------/

* ``meta_write`` — invalidate the line (flush) or clear its dirty bit
  (clean); one cycle.
* ``fill_buffer`` — read the whole line from the (widened) data array into
  the FSHR's data buffer; one cycle with the paper's widened array, or
  ``line_bytes / 8`` cycles without it (an ablation knob).
* ``root_release_data`` / ``root_release`` — emit the RootRelease on TL-C;
  the channel model charges four beats for the 64 B payload (16 B bus).
* ``root_release_ack`` — wait for the RootReleaseAck on TL-D.

While an FSHR is anywhere between allocation and ``root_release_ack``,
``flush_rdy`` is held low so probes and evictions cannot preempt it
(§5.4.1-§5.4.2).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.flush_queue import CboKind, FlushRequest
from repro.tilelink.permissions import Perm, Shrink


class FshrState(enum.Enum):
    INVALID = "invalid"
    META_WRITE = "meta_write"
    FILL_BUFFER = "fill_buffer"
    ROOT_RELEASE_DATA = "root_release_data"
    ROOT_RELEASE = "root_release"
    ROOT_RELEASE_ACK = "root_release_ack"
    # CBO.RANGE sweep: a range-capable FSHR iterates the covered lines
    # with a cursor, re-planning the per-line pipeline at every line.
    # ``range_scan`` looks the cursor line up (Skip It filters here: a
    # persisted line costs the lookup and nothing else); the remaining
    # states mirror the per-line pipeline for the line under the cursor.
    RANGE_SCAN = "range_scan"
    RANGE_META_WRITE = "range_meta_write"
    RANGE_FILL_BUFFER = "range_fill_buffer"
    RANGE_RELEASE_DATA = "range_release_data"
    RANGE_RELEASE = "range_release"
    RANGE_RELEASE_ACK = "range_release_ack"


# enum members bound once at import (see tests/test_hot_paths.py)
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
_TRUNK = Perm.TRUNK
_T_TO_T = Shrink.TtoT
_T_TO_N = Shrink.TtoN
_B_TO_B = Shrink.BtoB
_B_TO_N = Shrink.BtoN
_N_TO_N = Shrink.NtoN


def release_shrink(request: FlushRequest) -> Shrink:
    """Shrink/report param the RootRelease carries, from the sampled state.

    A flush/inval relinquishes the line (TtoN/BtoN); a clean reports its
    retained permission (TtoT/BtoB); a miss reports NtoN.
    """
    if not request.is_hit or request.perm is _NONE:
        return _N_TO_N
    if request.kind is _CLEAN:
        return _T_TO_T if request.perm is _TRUNK else _B_TO_B
    return _T_TO_N if request.perm is _TRUNK else _B_TO_N


class Fshr:
    """One flush status holding register."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = _INVALID
        self.request: Optional[FlushRequest] = None
        self.buffer: Optional[bytes] = None
        self._fill_cycles_left = 0
        self._fill_cycles = 0  # per-line fill cost, reset at every cursor step

    # ------------------------------------------------------------- queries
    @property
    def busy(self) -> bool:
        return self.state is not _INVALID

    @property
    def address(self) -> Optional[int]:
        return self.request.address if self.request else None

    @property
    def is_clean(self) -> bool:
        return bool(self.request and self.request.is_clean)

    @property
    def buffer_filled(self) -> bool:
        return self.buffer is not None

    @property
    def awaiting_ack(self) -> bool:
        return self.state is _ROOT_RELEASE_ACK or self.state is _RANGE_RELEASE_ACK

    @property
    def holds_line_exclusive(self) -> bool:
        """True while the FSHR may still touch the line's metadata/data."""
        return self.busy and not self.awaiting_ack

    # ------------------------------------------------------------- control
    def accept(self, request: FlushRequest, fill_cycles: int) -> None:
        """Set up the execution plan for a dequeued request (Figure 7)."""
        if self.busy:
            raise RuntimeError("accept into busy FSHR")
        self.request = request
        self.buffer = None
        self._fill_cycles_left = fill_cycles
        if request.kind is _INVAL:
            # cbo.inval discards data: invalidate metadata on a hit, never
            # fill a buffer, always a dataless release
            self.state = _META_WRITE if request.is_hit else _ROOT_RELEASE
        elif request.is_hit and request.is_dirty:
            self.state = _META_WRITE
        elif request.is_hit and request.kind is _FLUSH:
            # clean line, CBO.FLUSH: still must invalidate metadata
            self.state = _META_WRITE
        else:
            # clean line with CBO.CLEAN, or miss: no metadata change
            self.state = _ROOT_RELEASE

    def after_meta_write(self) -> None:
        if self.request is None:  # pragma: no cover - defensive
            raise RuntimeError("FSHR has no request")
        ranged = self.state is _RANGE_META_WRITE
        if self.request.kind is _INVAL:
            # dirty data is discarded
            self.state = _RANGE_RELEASE if ranged else _ROOT_RELEASE
        elif self.request.is_dirty:
            self.state = _RANGE_FILL_BUFFER if ranged else _FILL_BUFFER
        else:
            self.state = _RANGE_RELEASE if ranged else _ROOT_RELEASE

    def fill_step(self, line_data: bytes) -> bool:
        """Advance the buffer fill by one cycle; True when complete."""
        ranged = self.state is _RANGE_FILL_BUFFER
        self._fill_cycles_left -= 1
        if self._fill_cycles_left <= 0:
            self.buffer = bytes(line_data)
            self.state = _RANGE_RELEASE_DATA if ranged else _ROOT_RELEASE_DATA
            return True
        return False

    def sent_release(self) -> None:
        self.state = (
            _RANGE_RELEASE_ACK
            if self.state in (_RANGE_RELEASE, _RANGE_RELEASE_DATA)
            else _ROOT_RELEASE_ACK
        )

    def complete(self) -> FlushRequest:
        """Consume the RootReleaseAck; free the FSHR and return its request."""
        if self.state is not _ROOT_RELEASE_ACK:
            raise RuntimeError(f"ack in state {self.state}")
        request = self.request
        assert request is not None
        self.state = _INVALID
        self.request = None
        self.buffer = None
        return request

    # ---------------------------------------------------- CBO.RANGE sweeps
    def accept_range(self, request: FlushRequest, fill_cycles: int) -> None:
        """Begin a ranged sweep; the cursor starts at the first line."""
        if self.busy:
            raise RuntimeError("accept into busy FSHR")
        if not request.is_range:  # pragma: no cover - defensive
            raise ValueError("accept_range needs a RangedFlushRequest")
        self.request = request
        self.buffer = None
        self._fill_cycles = fill_cycles
        self.state = _RANGE_SCAN

    def plan_range_line(self) -> None:
        """Choose the per-line plan for the line under the cursor.

        Mirrors :meth:`accept` with the metadata the scan just sampled,
        landing in the ``range_*`` twin states so observability and FSM
        coverage can tell sweep work from per-line work.
        """
        request = self.request
        assert request is not None
        self.buffer = None
        self._fill_cycles_left = self._fill_cycles
        if request.kind is _INVAL:
            self.state = _RANGE_META_WRITE if request.is_hit else _RANGE_RELEASE
        elif request.is_hit and request.is_dirty:
            self.state = _RANGE_META_WRITE
        elif request.is_hit and request.kind is _FLUSH:
            self.state = _RANGE_META_WRITE
        else:
            self.state = _RANGE_RELEASE

    def advance_cursor(self) -> bool:
        """One covered line is done; True when the whole range is swept."""
        request = self.request
        assert request is not None and request.is_range
        request.cursor += 1
        if request.cursor >= request.lines:
            return True
        self.state = _RANGE_SCAN
        return False

    def complete_range(self) -> FlushRequest:
        """Free the FSHR after the final covered line; return its request."""
        request = self.request
        assert request is not None
        self.state = _INVALID
        self.request = None
        self.buffer = None
        return request
