""":mod:`repro.store.txn` — multi-key atomic transactions on the WAL.

A :class:`Transaction` buffers reads and writes client-side; nothing
touches the log until :meth:`Transaction.commit`, which hands the
buffered write set to the owning store's ``_commit_txn``.  The commit
path appends the write set as a contiguous run of ``OP_TXN`` records
followed by one ``OP_TXN_COMMIT`` record (written last, CRC-covered),
so recovery replays the transaction iff its commit record survives —
a torn multi-record tail rolls the whole transaction back, never a
prefix of it.

On the shared log the run is CAS-reserved in one bump
(:meth:`repro.store.shared.SharedWriteAheadLog.reserve_run`), so the
records of a transaction can never interleave with another thread's
appends; one epoch seal + one clean sequence + one fence then makes
the whole transaction durable, exactly like any other batch member —
a transaction is *one ticket* toward the epoch trigger.

Durability contract: the transaction is durable once
``ticket.acked`` is True.  Before that, recovery surfaces either every
write of the transaction or none of them (the txn atomicity sweep's
:class:`repro.verify.txn` oracle enforces exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class TxnTicket:
    """Handle for one committed transaction.

    ``lsn`` is the OP_TXN_COMMIT record's LSN — the single point the
    durability contract keys off (session floors, ack bookkeeping).
    ``first_lsn`` .. ``lsn`` is the contiguous slot run the transaction
    occupies (``records`` payload records plus the commit record).
    """

    lsn: int
    txn_id: int
    first_lsn: int
    records: int
    tid: int = 0
    submit_now: int = 0
    acked: bool = False
    durable_now: Optional[int] = None
    #: causal trace id assigned by an attached StoreTracer (None untraced)
    trace_id: Optional[int] = None


def ticket_lsns(ticket) -> range:
    """Every log slot a ticket covers, in append order.

    A plain :class:`~repro.store.store.CommitTicket` covers one slot; a
    :class:`TxnTicket` covers its whole contiguous run.  The epoch
    sealer cleans through this, so a transaction's payload records are
    cleaned with the rest of the epoch.
    """
    first = ticket.first_lsn if isinstance(ticket, TxnTicket) else ticket.lsn
    return range(first, ticket.lsn + 1)


class TxnAborted(RuntimeError):
    """The transaction was rolled back client-side and cannot commit."""


class Transaction:
    """A buffered multi-key read/write set with all-or-nothing commit.

    Reads see the transaction's own buffered writes first
    (read-your-own-buffered-writes), then fall through to the store.
    ``put``/``delete`` never touch the log or the memtable; only
    :meth:`commit` publishes, atomically.  :meth:`abort` discards the
    buffer — a client-side rollback that costs nothing durable.
    """

    def __init__(self, store, tid: int = 0) -> None:
        self.store = store
        self.tid = tid
        #: key -> value (0 = delete), insertion-ordered = apply order
        self.writes: Dict[int, int] = {}
        self.reads: List[Tuple[int, Optional[int]]] = []
        self.done = False

    # ---------------------------------------------------------- buffering
    def _check_open(self) -> None:
        if self.done:
            raise TxnAborted("transaction already committed or aborted")

    def get(self, key: int) -> Optional[int]:
        """Read through the buffer: own writes first, then the store."""
        self._check_open()
        if key in self.writes:
            value = self.writes[key]
            result = value if value else None
        else:
            result = self.store._txn_read(self.tid, key)
        self.reads.append((key, result))
        return result

    def put(self, key: int, value: int) -> None:
        self._check_open()
        if key <= 0:
            raise ValueError("keys must be positive integers")
        if value <= 0:
            raise ValueError("values must be positive integers")
        self.writes[key] = value

    def delete(self, key: int) -> None:
        self._check_open()
        if key <= 0:
            raise ValueError("keys must be positive integers")
        self.writes[key] = 0

    # ------------------------------------------------------------ outcome
    def commit(self) -> TxnTicket:
        """Publish the write set atomically; returns the txn ticket.

        Durable once ``ticket.acked`` — until then a crash may roll the
        whole transaction back, but never a part of it.  An empty write
        set commits immediately (nothing to log).
        """
        self._check_open()
        self.done = True
        return self.store._commit_txn(self)

    def abort(self) -> None:
        """Discard the buffer; nothing was logged, nothing to undo."""
        self._check_open()
        self.done = True
        self.writes.clear()
        store = self.store
        store.stats.inc("store_txn_aborts")


__all__ = ["Transaction", "TxnAborted", "TxnTicket", "ticket_lsns"]
