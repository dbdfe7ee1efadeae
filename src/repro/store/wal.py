"""Write-ahead log: append records through a PMemView, seal with CBO.

The WAL only *writes*; making records durable is the epoch sealer's
job (:class:`repro.store.commit.EpochSealer`), which cleans whole
epochs at once.
Separating append from seal is the point of the exercise: per-record
flushes are what the paper's fence costs punish.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.persist.api import PMemView
from repro.store.layout import (
    F_CRC,
    F_KEY,
    F_LSN,
    F_OP,
    F_VALUE,
    RECORD_FIELDS,
    StoreLayout,
    record_crc,
)


class WriteAheadLog:
    """Circular log of fixed-size, CRC-protected records."""

    def __init__(self, layout: StoreLayout) -> None:
        self.layout = layout
        self.next_lsn = 1
        self.records_appended = 0
        self.bytes_appended = 0
        # test/oracle hook: called as (lsn, op, key, value) on every
        # append, before any of the record's words hit the cache
        self.on_append: Optional[Callable[[int, int, int, int], None]] = None

    def reserve(self, view: PMemView) -> int:
        """Claim the next slot; returns its LSN."""
        return self.reserve_run(view, 1)

    def reserve_run(self, view: PMemView, count: int) -> int:
        """Claim *count* contiguous slots; returns the first LSN.

        One reservation covers a whole transaction, so its records can
        never interleave with another thread's — the run plus its
        TXN_COMMIT record is one unbroken LSN range in the log.  The
        private-log base case is plain bookkeeping; the shared log
        (:class:`repro.store.shared.SharedWriteAheadLog`) overrides this
        with a CAS-bumped tail word on the shared cache hierarchy.
        """
        if count < 1:
            raise ValueError("reserve_run needs at least one slot")
        first = self.next_lsn
        self.next_lsn += count
        return first

    def reset_tail(self, view: PMemView, lsn: int) -> None:
        """Resume reservation after *lsn* (recovery adoption)."""
        self.next_lsn = lsn + 1

    def reset_counters(self) -> None:
        """Zero the traffic counters (durable state is untouched)."""
        self.records_appended = 0
        self.bytes_appended = 0

    def append(self, view: PMemView, op: int, key: int, value: int) -> int:
        """Write one record into the next slot; returns its LSN.

        The LSN field is written *last*: a record is self-identifying
        only once all its payload words exist in cache.  (Durability
        still comes only from the CRC — a torn writeback can land the
        LSN word without the rest, which recovery catches.)
        """
        lsn = self.reserve(view)
        self.append_at(view, lsn, op, key, value)
        return lsn

    def append_at(
        self, view: PMemView, lsn: int, op: int, key: int, value: int
    ) -> None:
        """Write one record into an already-reserved slot *lsn*."""
        if self.on_append is not None:
            self.on_append(lsn, op, key, value)
        # the slot geometry of StoreLayout.field_addr, computed once
        layout = self.layout
        stride = layout.field_stride
        base = layout.log_base + ((lsn - 1) % layout.log_capacity) * (
            RECORD_FIELDS * stride
        )
        write = view.write
        write(base + F_OP * stride, op)
        write(base + F_KEY * stride, key)
        write(base + F_VALUE * stride, value)
        write(base + F_CRC * stride, record_crc(lsn, op, key, value))
        write(base + F_LSN * stride, lsn)
        self.records_appended += 1
        self.bytes_appended += RECORD_FIELDS * stride

    def clean_record(self, view: PMemView, lsn: int) -> None:
        """Request a non-invalidating writeback of every record word.

        Packed slots share lines, so most of these cleans target a line
        already cleaned a moment ago — Plain pays for each, Skip It
        drops the redundant ones at the L1.
        """
        layout = self.layout
        stride = layout.field_stride
        base = layout.log_base + ((lsn - 1) % layout.log_capacity) * (
            RECORD_FIELDS * stride
        )
        clean = view.clean
        for field in range(RECORD_FIELDS):
            clean(base + field * stride)

    def clean_span(self, view: PMemView, first_lsn: int, last_lsn: int) -> None:
        """Seal a whole LSN span with ranged cleans (CBO.RANGE.CLEAN).

        The circular log maps a contiguous LSN span to at most two
        contiguous byte ranges (one when it does not cross the region's
        end), so an epoch's entire clean sequence collapses into one or
        two CBO.RANGE instructions instead of ``RECORD_FIELDS`` cleans
        per record.  The sweep visits lines in address order, not the
        payload-first/marker-last order of :meth:`clean_record` — the
        CRC + LSN chain is what recovery actually relies on, so the
        ordering nicety is the price of the single instruction.
        """
        if last_lsn < first_lsn:
            raise ValueError("clean_span needs a non-empty LSN span")
        if last_lsn - first_lsn + 1 > self.layout.log_capacity:
            raise ValueError("clean_span wider than the log")
        first_slot = self.layout.slot_of(first_lsn)
        last_slot = self.layout.slot_of(last_lsn)
        runs = (
            ((first_slot, last_slot),)
            if first_slot <= last_slot
            else ((first_slot, self.layout.log_capacity - 1), (0, last_slot))
        )
        for lo, hi in runs:
            view.clean_range(
                self.layout.slot_addr(lo),
                (hi - lo + 1) * self.layout.slot_bytes,
            )

    def invalidate_slots(self, view: PMemView, first_lsn: int, count: int) -> None:
        """Zero the LSN word of *count* slots starting at *first_lsn*.

        Used by recovery adoption to erase a stale log tail: once the
        store restarts, pre-crash records beyond the replayed prefix
        carry LSNs the new instance will reuse, and a CRC-valid stale
        record in a reused slot must never be replayable.
        """
        for lsn in range(first_lsn, first_lsn + count):
            addr = self.layout.lsn_field_addr(lsn)
            view.write(addr, 0)
            view.clean(addr)
