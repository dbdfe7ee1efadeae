"""Cycle-level microarchitecture models.

This package models the hardware the paper modifies: a simplified BOOM
core front-end (ROB + LSU with LDQ/STQ, §3.1-§3.2), the non-blocking L1
data cache with MSHRs, writeback unit and probe unit (§3.3), the SiFive
inclusive L2 (§3.4), and the SoC wiring.  The paper's own contribution —
the flush unit and Skip It — lives in :mod:`repro.core` and is integrated
into the L1 here.
"""

from repro.uarch.requests import MemOp, MemRequest
from repro.uarch.soc import Soc

__all__ = ["MemOp", "MemRequest", "Soc"]
