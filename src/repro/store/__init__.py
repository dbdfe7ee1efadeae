"""repro.store — a crash-consistent KV store on the CBO/Skip-It stack.

The paper argues that user-controlled writebacks make application-level
persistence cheap; this package is the application.  A durable
key-value store built from the repo's own primitives:

* :mod:`repro.store.layout` — on-media layout: fixed-size log records
  (CRC + monotonic LSN), superblock, checkpoint descriptor.
* :mod:`repro.store.wal` — the write-ahead log, written through a
  :class:`~repro.persist.api.PMemView` and sealed with CBO + fence.
* :mod:`repro.store.commit` — :class:`EpochSealer`, group commit: N
  operations per thread coalesced into one clean+fence epoch sealed by
  a leader thread, amortizing the fence and exposing the Skip-It win on
  log-tail rewrites.
* :mod:`repro.store.checkpoint` — memtable compaction into a persistent
  hash-table snapshot behind an atomically flipped superblock pointer.
* :mod:`repro.store.recovery` — superblock → checkpoint → log replay,
  tolerant of torn / invalid-CRC tail records.
* :mod:`repro.store.store` — :class:`LogStore`, the one store engine
  tying it together over N per-thread views, and :class:`DurableStore`,
  the engine on one thread with a private log.
* :mod:`repro.store.shared` — :class:`SharedLogStore`: the engine on N
  threads over one shared WAL (CAS-reserved slots), epochs sealed by a
  leader with one cross-thread fence, ack latency as the headline metric.
* :mod:`repro.store.txn` — :class:`Transaction`: buffered multi-key
  read/write sets committed as one contiguous OP_TXN run sealed by a
  per-txn OP_TXN_COMMIT record; all-or-nothing across crashes.
"""

from repro.store.commit import EpochSealer
from repro.store.layout import (
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    OP_TXN,
    OP_TXN_COMMIT,
    RECORD_FIELDS,
    StoreLayout,
    record_crc,
)
from repro.store.recovery import RecoveredState, RecoveryError, recover
from repro.store.shared import SharedLogStore, SharedWriteAheadLog, StoreHandle
from repro.store.store import CommitTicket, DurableStore, LogStore
from repro.store.txn import Transaction, TxnAborted, TxnTicket, ticket_lsns

__all__ = [
    "CommitTicket",
    "DurableStore",
    "EpochSealer",
    "LogStore",
    "SharedLogStore",
    "SharedWriteAheadLog",
    "StoreHandle",
    "Transaction",
    "TxnAborted",
    "TxnTicket",
    "OP_COMMIT",
    "OP_DELETE",
    "OP_PUT",
    "OP_TXN",
    "OP_TXN_COMMIT",
    "RECORD_FIELDS",
    "RecoveredState",
    "RecoveryError",
    "StoreLayout",
    "record_crc",
    "recover",
    "ticket_lsns",
]
