"""Persistent chained hash table [23].

A fixed array of bucket heads (one cache line apart, avoiding false
sharing between buckets) with a sorted persistent list per bucket.  Node
layout matches the linked list: ``[key, next]``.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.persist.api import PMemView
from repro.persist.structures.base import PersistedReader, PersistentSet

KEY = 0
NEXT = 1

_HASH_MULT = 0x9E3779B97F4A7C15


class PersistentHashTable(PersistentSet):
    name = "hashtable"

    def __init__(self, heap, field_stride: int = 8, num_buckets: int = 1024) -> None:
        super().__init__(heap, field_stride)
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_buckets = num_buckets
        self.line_bytes = heap.line_bytes
        self._heads_base = heap.alloc_region(num_buckets * heap.line_bytes)
        self._initialized = False

    def initialize(self, view: PMemView) -> None:
        """Zero and persist every bucket head."""
        view.op_begin()
        for bucket in range(self.num_buckets):
            head = self._head_of_bucket(bucket)
            view.write(head, 0, critical=True)
        view.op_end()
        self._initialized = True

    # ------------------------------------------------------------- helpers
    def _head_of_bucket(self, bucket: int) -> int:
        return self._heads_base + bucket * self.line_bytes

    def _head_of(self, key: int) -> int:
        return self._head_of_bucket((key * _HASH_MULT >> 13) % self.num_buckets)

    def _field(self, base: int, index: int) -> int:
        return base + index * self.field_stride

    def _search(self, view: PMemView, key: int) -> Tuple[int, int, int]:
        """(prev_slot_address, curr_base, curr_key); prev is a pointer slot."""
        # bound per call, not per structure: tracers replace view.read
        read = view.read
        key_at = KEY * self.field_stride
        next_at = NEXT * self.field_stride
        slot = self._head_of(key)
        curr = read(slot)
        curr_key = -1
        while curr:
            curr_key = read(curr + key_at)
            if curr_key >= key:
                break
            slot = curr + next_at
            curr = read(slot)
        read(slot, critical=True)
        if curr:
            read(curr + key_at, critical=True)
        return slot, curr, curr_key

    # ------------------------------------------------------------- set API
    def insert(self, view: PMemView, key: int) -> bool:
        if key <= 0:
            raise ValueError("keys must be positive")
        view.op_begin()
        try:
            while True:
                slot, curr, curr_key = self._search(view, key)
                if curr and curr_key == key:
                    return False
                node = self._alloc(2)
                view.write(node.field(KEY), key, critical=True)
                view.write(node.field(NEXT), curr, critical=True)
                if view.cas(slot, curr, node.base):
                    return True
        finally:
            view.op_end()

    def delete(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            while True:
                slot, curr, curr_key = self._search(view, key)
                if not curr or curr_key != key:
                    return False
                nxt = view.read(self._field(curr, NEXT), critical=True)
                if view.cas(slot, curr, nxt):
                    return True
        finally:
            view.op_end()

    def contains(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            _, curr, curr_key = self._search(view, key)
            return bool(curr) and curr_key == key
        finally:
            view.op_end()

    # ------------------------------------------------------------ recovery
    def recover_keys(self, read: PersistedReader) -> Set[int]:
        keys: Set[int] = set()
        for bucket in range(self.num_buckets):
            curr = read(self._head_of_bucket(bucket))
            seen = set()
            while curr and curr not in seen:
                seen.add(curr)
                key = read(self._field(curr, KEY))
                if key:
                    keys.add(key)
                curr = read(self._field(curr, NEXT))
        return keys
