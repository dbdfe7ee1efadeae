""":mod:`repro.store.shared` — one log, N threads, one fence per epoch.

The sharded baseline (figure 17, :mod:`repro.bench.store`) gives every
thread a private :class:`~repro.store.store.DurableStore`, so every
thread pays its own clean sequence and fence once per batch — N
threads, N fences per group-commit interval.  That is exactly the redundant-persist
traffic the paper exists to eliminate, just moved up a layer.

:class:`SharedLogStore` shares the log instead.  It is the same engine
(:class:`~repro.store.store.LogStore`) on N threads; what this module
adds is the shared tail:

* **Shared WAL** — all threads append CRC+LSN records into one circular
  log.  Slot reservation is a CAS-bumped tail word on the shared cache
  hierarchy (:class:`SharedWriteAheadLog`), so reservation traffic — the
  tail line bouncing between L1s — is simulated and charged, not
  assumed.  Records from different threads interleave in LSN order.
* **Leader-based sealing** — the engine's
  :class:`~repro.store.commit.EpochSealer` accumulates every thread's
  ticket.  When the epoch trigger fires (``batch_size`` ops *per
  thread*, or a cycle budget), the **leader** thread writes one COMMIT
  marker covering all threads' records, issues one clean sequence and
  **one fence**, then acks every ticket — N threads' fences collapse
  into one.  If the leader does not show up (it may be read-only), a
  follower takes leadership over with a CAS on the shared leader word
  allocated here and seals in its place (election/handoff).
* **Ack latency** — the price of helped completion is that a thread's
  op becomes durable on *someone else's* fence.  Every ticket records
  submit→durable cycles; per-thread histograms
  (:attr:`~repro.store.store.LogStore.ack_latency`) are the subsystem's
  headline metric, exported as obs histograms with p50/p99 summaries.

Durability contract, recovery format, checkpointing and the journal
prefix oracle are the engine's: epochs are atomic, recovery replays the
shared log in LSN order (interleaved epochs replay exactly like
single-threaded ones, because the CAS tail makes LSN order the
submission order), and :func:`repro.store.recovery.recover` works on the
shared log unmodified.

Virtual-time note: scheduler steps are atomic, so the tail CAS never
*fails* in the model — it buys the coherence traffic and latency of the
contended line, while atomicity comes from the step granularity.  The
same holds for the leadership CAS.
"""

from __future__ import annotations

from typing import Optional

from repro.persist.api import PMemView
from repro.store.layout import StoreLayout
from repro.store.store import CommitTicket, LogStore
from repro.store.txn import Transaction
from repro.store.wal import WriteAheadLog


class SharedWriteAheadLog(WriteAheadLog):
    """A WAL whose tail is reserved with a CAS on shared memory.

    ``tail_addr`` holds the last reserved LSN; every reservation
    CAS-bumps it through the reserving thread's view, so the tail line
    migrates between L1s and the reservation cost scales with
    contention.  ``next_lsn`` mirrors the word for cheap capacity checks.
    """

    def __init__(self, layout: StoreLayout, tail_addr: int) -> None:
        super().__init__(layout)
        self.tail_addr = tail_addr
        self.tail_cas_failures = 0

    def reserve_run(self, view: PMemView, count: int) -> int:
        """Claim *count* contiguous slots with **one** CAS bump.

        This is what makes a shared-log transaction's records
        contiguous: the whole run (payloads plus the TXN_COMMIT slot)
        is reserved atomically, so no other thread's append can land
        inside it.
        """
        if count < 1:
            raise ValueError("reserve_run needs at least one slot")
        current = view.read(self.tail_addr)
        while not view.cas(self.tail_addr, current, current + count):
            # unreachable under atomic scheduler steps, but the retry
            # loop is the honest shape of the protocol
            self.tail_cas_failures += 1
            current = view.read(self.tail_addr)
        first = current + 1
        self.next_lsn = first + count
        return first

    def reset_tail(self, view: PMemView, lsn: int) -> None:
        """Re-point the tail word after adoption (transient state)."""
        view.write(self.tail_addr, lsn)
        super().reset_tail(view, lsn)

    def reset_counters(self) -> None:
        super().reset_counters()
        self.tail_cas_failures = 0


class StoreHandle:
    """A per-thread facade over the shared store (tid pre-bound)."""

    def __init__(self, store: "SharedLogStore", tid: int) -> None:
        self.store = store
        self.tid = tid

    def put(self, key: int, value: int) -> CommitTicket:
        return self.store.put(self.tid, key, value)

    def delete(self, key: int) -> CommitTicket:
        return self.store.delete(self.tid, key)

    def get(self, key: int) -> Optional[int]:
        return self.store.get(self.tid, key)

    def begin(self) -> Transaction:
        """Open a buffered transaction on this thread's clock."""
        return self.store.begin(self.tid)

    def sync(self) -> None:
        """Seal the pending epoch on this thread's clock."""
        self.store.sync(self.tid)

    def checkpoint(self) -> None:
        """Sync, then compact, charged to this thread's clock."""
        self.store.checkpoint(self.tid)


class SharedLogStore(LogStore):
    """Crash-consistent KV store shared by N virtual-time threads.

    ``views`` binds the store to its threads: ``views[tid]`` is thread
    *tid*'s :class:`~repro.persist.api.PMemView` (all over one heap and
    one optimizer, as the sharded benchmark already does).  Every
    mutating call takes the acting ``tid`` first; :meth:`handle` returns
    a tid-bound facade.  An op is durable once its ticket is acked (its
    epoch's fence retired — on whichever thread sealed it); ``get``
    reads the shared memtable, so reads see every thread's
    submitted-but-unacked writes.
    """

    def _open_wal(self, layout: StoreLayout) -> SharedWriteAheadLog:
        # transient coordination words, one line each: the CAS-bumped
        # tail and the leader claim (recovery never reads either)
        tail_addr = self.heap.alloc_region(self.heap.line_bytes)
        self.leader_addr = self.heap.alloc_region(self.heap.line_bytes)
        self.views[0].write(self.leader_addr, 1)  # leader_tid 0, 1-based
        return SharedWriteAheadLog(layout, tail_addr)

    def handle(self, tid: int) -> StoreHandle:
        return StoreHandle(self, tid)

    @property
    def submitted_lsn(self) -> int:
        """Last reserved LSN — the submitted tip (upper bound on any
        session's floor; per-key observation uses :attr:`memtable_lsn`)."""
        return self.wal.next_lsn - 1

    @property
    def unsealed_backlog(self) -> int:
        """Records accumulated toward the current epoch (WAL tail depth)."""
        return len(self.sealer.pending)

    def flush_backlog(self, tid: int) -> int:
        """Thread *tid*'s in-flight writebacks (its flush-queue depth).

        ``unsealed_backlog + flush_backlog(tid)`` is the write backlog
        the serving tier's admission controller gates on.
        """
        return len(self.views[tid].ctx.outstanding)
