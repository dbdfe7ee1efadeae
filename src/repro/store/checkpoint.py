"""Checkpointing: compact the memtable into a persistent snapshot.

A checkpoint bounds both recovery time and log growth.  The manager
builds a fresh hash-map snapshot of the committed state in new memory,
makes it durable, then flips the one-word superblock pointer — the
classic shadow-paging move, here done with the repo's own primitives:

1. build a :class:`CheckpointMap` (bucket heads + chained nodes) from
   the memtable, plain writes only;
2. ``CBO.CLEAN`` every written word, then write + clean + **fence** the
   checkpoint descriptor — snapshot and descriptor durable;
3. write the descriptor's base into the superblock word, clean,
   **fence** — the atomic flip;
4. advance the log watermark; slots at or below it become reusable.

A crash before the flip lands recovers from the *old* checkpoint (its
log suffix is still intact: the watermark — and with it slot reuse —
only advances after the flip's fence).  A crash after recovers from the
new one.  There is no in-between: the flip is a single word on one
line, and line writebacks are atomic in the model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.persist.api import PMemView
from repro.persist.heap import SimHeap
from repro.store.layout import (
    D_BUCKETS,
    D_CRC,
    D_HEADS,
    D_MAGIC,
    D_WATERMARK,
    DESCRIPTOR_FIELDS,
    DESCRIPTOR_MAGIC,
    N_KEY,
    N_NEXT,
    N_VALUE,
    NODE_FIELDS,
    StoreLayout,
    descriptor_crc,
)

_HASH_MULT = 0x9E3779B97F4A7C15


def bucket_of(key: int, num_buckets: int) -> int:
    return ((key * _HASH_MULT) >> 33) % num_buckets


class CheckpointMap:
    """An insert-only KV hash map snapshot, built once per checkpoint.

    Mirrors the repo's ``PersistentHashTable`` layout idiom (line-spaced
    bucket heads, chained line-sized nodes) but stores values alongside
    keys — the persistent structures in :mod:`repro.persist.structures`
    are key-set shaped, and a checkpoint needs the values back.
    """

    def __init__(self, heap: SimHeap, layout: StoreLayout) -> None:
        self.layout = layout
        self.heap = heap
        self.heads_base = heap.alloc_region(
            layout.num_buckets * layout.line_bytes
        )

    def write_items(
        self, view: PMemView, items: Dict[int, int]
    ) -> List[int]:
        """Write the snapshot (no flushes); returns every touched address."""
        written: List[int] = []
        layout = self.layout
        stride = layout.field_stride
        line_bytes = layout.line_bytes
        num_buckets = layout.num_buckets
        heads = self.heads_base
        write, read = view.write, view.read
        for bucket in range(num_buckets):
            head = heads + bucket * line_bytes
            write(head, 0)
            written.append(head)
        # each node's field addresses from its base (no NodeRef.field calls)
        key_at = N_KEY * stride
        value_at = N_VALUE * stride
        next_at = N_NEXT * stride
        alloc = self.heap.alloc
        for key, value in sorted(items.items()):
            base = alloc(NODE_FIELDS, stride).base
            head = heads + bucket_of(key, num_buckets) * line_bytes
            write(base + key_at, key)
            write(base + value_at, value)
            write(base + next_at, read(head))
            write(head, base)
            written.extend((base + key_at, base + value_at, base + next_at))
        return written


def read_map(
    read, heads_base: int, num_buckets: int, layout: StoreLayout
) -> Dict[int, int]:
    """Walk a checkpoint map out of a crash image."""
    items: Dict[int, int] = {}
    stride = layout.field_stride
    for bucket in range(num_buckets):
        node = read(heads_base + bucket * layout.line_bytes)
        seen = set()
        while node and node not in seen:
            seen.add(node)
            key = read(node + N_KEY * stride)
            items[key] = read(node + N_VALUE * stride)
            node = read(node + N_NEXT * stride)
    return items


def clean_address_runs(view: PMemView, addresses, line_bytes: int) -> None:
    """Ranged-clean the lines covering *addresses*, one CBO.RANGE per
    contiguous line run (the snapshot allocator hands out mostly
    adjacent nodes, so a whole checkpoint map collapses into a few
    sweeps)."""
    lines = sorted({a - a % line_bytes for a in addresses})
    run_start = run_end = None
    for line in lines:
        if run_start is None:
            run_start = run_end = line
        elif line == run_end + line_bytes:
            run_end = line
        else:
            view.clean_range(run_start, run_end - run_start + line_bytes)
            run_start = run_end = line
    if run_start is not None:
        view.clean_range(run_start, run_end - run_start + line_bytes)


class CheckpointManager:
    """Drives snapshot + flip; owns the descriptor allocation."""

    def __init__(self, store) -> None:
        self.store = store

    def checkpoint(self, view: PMemView) -> None:
        """Snapshot the *committed* state on *view*'s clock; caller must
        sync() first."""
        store = self.store
        started = view.ctx.now
        ranged = store.ranged_seal

        snapshot = CheckpointMap(store.heap, store.layout)
        written = snapshot.write_items(view, store.memtable)
        if ranged:
            clean_address_runs(view, written, store.layout.line_bytes)
        else:
            clean = view.clean
            for address in written:
                clean(address)
        store.probe_point("checkpoint_map_flushed")

        watermark = store.acked_lsn
        descriptor = store.heap.alloc(
            DESCRIPTOR_FIELDS, store.layout.field_stride
        )
        fields: Tuple[Tuple[int, int], ...] = (
            (D_MAGIC, DESCRIPTOR_MAGIC),
            (D_HEADS, snapshot.heads_base),
            (D_BUCKETS, store.layout.num_buckets),
            (D_WATERMARK, watermark),
            (
                D_CRC,
                descriptor_crc(
                    snapshot.heads_base, store.layout.num_buckets, watermark
                ),
            ),
        )
        for field, value in fields:
            view.write(descriptor.field(field), value)
        if ranged:
            # one sweep over the descriptor's contiguous fields, then a
            # completion wait in place of the fence: snapshot and
            # descriptor writebacks must land before the flip is written
            view.clean_range(
                descriptor.field(0),
                DESCRIPTOR_FIELDS * store.layout.field_stride,
            )
            view.ctx.await_writebacks()
            store.stats.inc("store_ranged_publishes")
        else:
            for field, _ in fields:
                view.clean(descriptor.field(field))
            view.ctx.fence()
            store.stats.inc("store_fences")
        store.probe_point("checkpoint_descriptor_durable")

        view.write(store.layout.superblock, descriptor.base)
        view.clean(store.layout.superblock)
        store.probe_point("checkpoint_flipped")
        if ranged:
            view.ctx.await_writebacks()
        else:
            view.ctx.fence()
            store.stats.inc("store_fences")

        store.watermark = watermark
        store.stats.inc("store_checkpoints")
        store.stats.inc("store_checkpoint_cycles", view.ctx.now - started)
        store.probe_point("checkpoint_done")
