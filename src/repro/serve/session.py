"""Sessions (read-your-writes, monotonic reads) and checkpoint snapshot reads.

A session's guarantee is a single integer: ``lsn_floor``, the highest
LSN whose effects this session has *observed*.  Three events raise it:

* **own write** — the ticket's LSN (read-your-writes: later reads must
  reflect it);
* **memtable read** — the *read key's* last-write LSN
  (``store.memtable_lsn``): a single-key read observes exactly that
  write, nothing more.  Raising the floor to the global submitted tip
  would also be sound but needlessly strict — one read of a hot key
  would lock the session out of snapshot reads until the next
  checkpoint;
* **snapshot read** — the checkpoint's watermark (the snapshot *is* the
  state as of that LSN).

A snapshot read is legal for a session only while the published
checkpoint's watermark covers the floor; otherwise the read would
travel backwards in the session's own timeline.  The tier enforces that
gate (falling back to the memtable — in virtual time, "blocking until
covered" and "serving from the always-fresh memtable" are the same
guarantee, the latter at a bounded cost); the seeded
``stale_snapshot_read`` mutant disables the gate and the verify serve
session sweep must catch it.

:class:`SnapshotReader` walks superblock → descriptor → bucket chain
through a thread's :class:`~repro.persist.api.PMemView`, so snapshot
reads are *charged* cache traffic like any other access — but they
never touch the log or the memtable, which is the point: a read-mostly
tenant can be served without contending on the write path.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.persist.api import PMemView
from repro.store.checkpoint import bucket_of
from repro.store.layout import (
    D_BUCKETS,
    D_HEADS,
    D_WATERMARK,
    N_KEY,
    N_NEXT,
    N_VALUE,
)


class Session:
    """One client's ordering context over the serving tier.

    Bound to a tenant thread (``tid``) for clock/view purposes; ``sid``
    identifies the session to the oracle and the metrics.  All state is
    the LSN floor plus bookkeeping counters.
    """

    def __init__(self, store, sid: int, tid: int) -> None:
        self.store = store
        self.sid = sid
        self.tid = tid
        #: highest LSN whose effects this session has observed
        self.lsn_floor = 0
        self.writes = 0
        self.reads = 0
        self.snapshot_reads = 0

    def observe_write(self, ticket) -> None:
        """Own write: later reads must reflect at least this LSN."""
        self.writes += 1
        if ticket.lsn > self.lsn_floor:
            self.lsn_floor = ticket.lsn

    def observe_memtable_read(self, key: int) -> None:
        """Memtable read: *key*'s last write was observed."""
        self.reads += 1
        observed = self.store.memtable_lsn.get(key, 0)
        if observed > self.lsn_floor:
            self.lsn_floor = observed

    def observe_snapshot_read(self, watermark: int) -> None:
        """Snapshot read: state as of the checkpoint watermark observed."""
        self.snapshot_reads += 1
        if watermark > self.lsn_floor:
            self.lsn_floor = watermark

    def snapshot_covers(self, watermark: int) -> bool:
        """Would a snapshot at *watermark* respect this session's floor?"""
        return watermark >= self.lsn_floor


class SnapshotReader:
    """Point reads from the last *published* checkpoint, log untouched."""

    def __init__(self, store) -> None:
        self.store = store

    def read(
        self, view: PMemView, key: int
    ) -> Optional[Tuple[bool, Optional[int], int]]:
        """Look *key* up in the published checkpoint through *view*.

        Returns ``(found, value, watermark)``, or ``None`` when no
        checkpoint has been published yet.  Every probe is a simulated
        read, so the walk costs (and caches) like real traffic.
        """
        layout = self.store.layout
        stride = layout.field_stride
        pointer = view.read(layout.superblock)
        if pointer == 0:
            return None
        heads = view.read(pointer + D_HEADS * stride)
        buckets = view.read(pointer + D_BUCKETS * stride)
        watermark = view.read(pointer + D_WATERMARK * stride)
        node = view.read(heads + bucket_of(key, buckets) * layout.line_bytes)
        seen = set()
        while node and node not in seen:
            seen.add(node)
            if view.read(node + N_KEY * stride) == key:
                return True, view.read(node + N_VALUE * stride), watermark
            node = view.read(node + N_NEXT * stride)
        return False, None, watermark
