"""Requests exchanged between the LSU and the L1 data cache."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

_req_ids = itertools.count()

WORD_BYTES = 8


class MemOp(enum.Enum):
    """Operations the LSU can fire into the data cache.

    ``CBO_CLEAN``/``CBO_FLUSH`` are the paper's writeback instructions
    (§2.6); they are encoded as STQ requests so they fire in program order
    at the ROB head (§5.1).  ``FENCE`` never reaches the cache — the LSU
    retires it locally once the flush counter drains (§5.3).
    """

    LOAD = "load"
    STORE = "store"
    CBO_CLEAN = "cbo.clean"
    CBO_FLUSH = "cbo.flush"
    CBO_INVAL = "cbo.inval"  # CMO extension: invalidate, discard dirty data
    CBO_ZERO = "cbo.zero"  # CMO extension: zero a whole line
    # SIMF-style ranged CBOs: one flush-queue entry sweeping
    # [base, base + length) line by line, Skip It consulted per line
    CBO_RANGE_CLEAN = "cbo.range.clean"
    CBO_RANGE_FLUSH = "cbo.range.flush"
    CBO_RANGE_INVAL = "cbo.range.inval"
    FENCE = "fence"


# Precomputed member attributes instead of properties: these predicates
# run hundreds of thousands of times per bench point in the LSU hot loops,
# and a plain attribute load is several times cheaper than a descriptor
# call.
for _op in MemOp:
    #: ranged CBOs: one queue entry, many lines (routed like CBOs)
    _op.is_cbo_range = _op in (
        MemOp.CBO_RANGE_CLEAN,
        MemOp.CBO_RANGE_FLUSH,
        MemOp.CBO_RANGE_INVAL,
    )
    #: ops routed to the flush unit (cbo.zero is a store-like op)
    _op.is_cbo = (
        _op in (MemOp.CBO_CLEAN, MemOp.CBO_FLUSH, MemOp.CBO_INVAL)
        or _op.is_cbo_range
    )
    #: STQ-resident ops: stores, CBO.X and fences (§3.2, §5.1)
    _op.is_stq = _op is not MemOp.LOAD
del _op


@dataclass
class MemRequest:
    """One word-granular request fired from the LSU."""

    op: MemOp
    address: int  # byte address, word-aligned for LOAD/STORE
    data: Optional[int] = None  # 64-bit store payload
    length: int = 0  # byte length of a CBO.RANGE sweep ([address, address+length))
    req_id: int = field(default_factory=lambda: next(_req_ids), compare=False)

    def __post_init__(self) -> None:
        if self.op in (MemOp.LOAD, MemOp.STORE) and self.address % WORD_BYTES:
            raise ValueError(f"unaligned word access at {self.address:#x}")
        if self.op is MemOp.STORE and self.data is None:
            raise ValueError("store requires data")
        if self.op.is_cbo_range and self.length <= 0:
            raise ValueError("ranged CBO requires a positive byte length")
