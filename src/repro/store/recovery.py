"""Recovery: rebuild store state from a raw crash image.

Pure functions over ``read(address) -> int`` — typically a
:func:`repro.persist.structures.base.persisted_reader` over
``TimingSystem.persisted_image()``, which already strips
link-and-persist mark bits, so recovery sees logical values.

The sequence is superblock → checkpoint → log replay:

1. read the superblock word; 0 means no checkpoint — start empty with
   watermark 0;
2. validate the checkpoint descriptor (magic + CRC; a torn descriptor
   is unrecoverable by construction, because the flip only lands after
   the descriptor's fence — seeing one means the invariant broke) and
   walk the snapshot map;
3. replay log slots from ``watermark + 1``: each slot must carry the
   expected LSN, a valid CRC and a known opcode, else the log ends
   there (torn or stale tail — expected after a crash, not an error);
   payload records buffer, a ``COMMIT`` marker applies the buffer.

Operations whose epoch marker never became durable are discarded —
that is group commit's atomicity: all of a batch or none of it.

Transactions nest one level deeper: ``OP_TXN`` records buffer in their
own transaction buffer, and only the transaction's ``OP_TXN_COMMIT``
record (contiguous, written last) folds them into the epoch buffer —
so a transaction replays iff its commit record survives *and* its
epoch marker replays.  A torn tail that cuts the run before the commit
record rolls the whole transaction back (``rolled_back_txns``), never
a prefix of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.store.checkpoint import read_map
from repro.store.layout import (
    D_BUCKETS,
    D_CRC,
    D_HEADS,
    D_MAGIC,
    D_WATERMARK,
    DESCRIPTOR_MAGIC,
    F_CRC,
    F_KEY,
    F_LSN,
    F_OP,
    F_VALUE,
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    OP_TXN,
    OP_TXN_COMMIT,
    StoreLayout,
    descriptor_crc,
    record_crc,
)

Reader = Callable[[int], int]


class RecoveryError(RuntimeError):
    """The image violates an invariant recovery relies on."""


@dataclass
class RecoveredState:
    """What came back from the image."""

    items: Dict[int, int] = field(default_factory=dict)
    checkpoint_lsn: int = 0  # watermark of the checkpoint used
    applied_lsn: int = 0  # last LSN whose effects are in `items`
    replayed_epochs: int = 0
    replayed_records: int = 0
    replayed_txns: int = 0  # transactions whose commit record replayed
    rolled_back_txns: int = 0  # torn runs discarded whole
    stop_reason: str = "empty"  # why replay ended


def _read_checkpoint(
    read: Reader, layout: StoreLayout
) -> Tuple[Dict[int, int], int]:
    pointer = read(layout.superblock)
    if pointer == 0:
        return {}, 0
    stride = layout.field_stride
    magic = read(pointer + D_MAGIC * stride)
    if magic != DESCRIPTOR_MAGIC:
        raise RecoveryError(
            f"superblock points at 0x{pointer:x} with bad magic 0x{magic:x}"
        )
    heads = read(pointer + D_HEADS * stride)
    buckets = read(pointer + D_BUCKETS * stride)
    watermark = read(pointer + D_WATERMARK * stride)
    crc = read(pointer + D_CRC * stride)
    if crc != descriptor_crc(heads, buckets, watermark):
        raise RecoveryError(f"checkpoint descriptor at 0x{pointer:x}: bad CRC")
    if buckets < 1 or buckets > 1 << 20:
        raise RecoveryError(f"checkpoint descriptor: absurd bucket count {buckets}")
    return read_map(read, heads, buckets, layout), watermark


def recover(
    read: Reader,
    layout: StoreLayout,
    *,
    check_lsn: bool = True,
    txn_partial: bool = False,
) -> RecoveredState:
    """Rebuild KV state from a crash image.

    Pure: the result depends only on what *read* returns, and *read*
    is only ever called, never written through.  The crash sweep relies
    on that to recover each distinct crash image once and judge the
    same :class:`RecoveredState` at every crash point that sees it.

    ``check_lsn=False`` is the seeded ``store_replay_trusts_crc``
    mutant: replay accepts any CRC-valid record in the next slot,
    ignoring the LSN chain — after the log wraps, stale records from an
    earlier lap (self-consistent CRCs and all) resurface.  The crash
    sweep must catch that.

    ``txn_partial=True`` is the seeded ``txn_partial_replay`` mutant:
    instead of rolling a torn transaction run back whole, buggy replay
    applies the surviving prefix of its ``OP_TXN`` records directly —
    exactly the partial-transaction state the txn sweep's oracle exists to
    reject.
    """
    items, watermark = _read_checkpoint(read, layout)
    state = RecoveredState(
        items=items, checkpoint_lsn=watermark, applied_lsn=watermark
    )
    state.stop_reason = "checkpoint_only"

    pending: List[Tuple[int, int, int]] = []  # (op, key, value)
    txn_buffer: List[Tuple[int, int]] = []  # (key, value); 0 = delete

    def discard_txn() -> None:
        """Roll a commit-record-less transaction run back whole."""
        if not txn_buffer:
            return
        if txn_partial:
            # seeded bug: the surviving prefix is applied anyway
            for tkey, tvalue in txn_buffer:
                if tvalue:
                    state.items[tkey] = tvalue
                else:
                    state.items.pop(tkey, None)
        state.rolled_back_txns += 1
        txn_buffer.clear()

    # the slot geometry of StoreLayout.field_addr, hoisted out of the loop
    capacity = layout.log_capacity
    log_base = layout.log_base
    slot_bytes = layout.slot_bytes
    stride = layout.field_stride
    expected = watermark + 1
    for _ in range(capacity):
        slot = log_base + ((expected - 1) % capacity) * slot_bytes
        lsn = read(slot + F_LSN * stride)
        if lsn == 0:
            state.stop_reason = "empty_slot"
            break
        op = read(slot + F_OP * stride)
        key = read(slot + F_KEY * stride)
        value = read(slot + F_VALUE * stride)
        crc = read(slot + F_CRC * stride)
        if check_lsn and lsn != expected:
            state.stop_reason = "lsn_mismatch"
            break
        if crc != record_crc(lsn, op, key, value):
            state.stop_reason = "bad_crc"
            break
        if op == OP_PUT:
            pending.append((op, key, value))
        elif op == OP_DELETE:
            pending.append((op, key, 0))
        elif op == OP_TXN:
            txn_buffer.append((key, value))
        elif op == OP_TXN_COMMIT:
            # KEY is the txn id (not replayed), VALUE the run length;
            # contiguous reservation guarantees the buffer holds exactly
            # this transaction's records — anything else is corruption
            if value != len(txn_buffer):
                state.stop_reason = "txn_mismatch"
                break
            for tkey, tvalue in txn_buffer:
                if tvalue:
                    pending.append((OP_PUT, tkey, tvalue))
                else:
                    pending.append((OP_DELETE, tkey, 0))
            txn_buffer.clear()
            state.replayed_txns += 1
        elif op == OP_COMMIT:
            # an epoch marker can never land inside a transaction run
            # (the run is appended atomically before the sealer sees
            # its ticket); a dangling buffer here means a stale tail
            discard_txn()
            for pop, pkey, pvalue in pending:
                if pop == OP_PUT:
                    state.items[pkey] = pvalue
                else:
                    state.items.pop(pkey, None)
            pending.clear()
            state.applied_lsn = expected
            state.replayed_epochs += 1
        else:
            state.stop_reason = "bad_op"
            break
        state.replayed_records += 1
        expected += 1
    else:
        state.stop_reason = "log_full"
    discard_txn()
    return state
