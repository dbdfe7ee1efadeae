"""Persistent sorted linked list (Harris-style [31], operation-atomic).

Node layout: ``[key, next]``.  A sentinel head with key 0 anchors the
list; keys are strictly positive and strictly increasing along ``next``.

Traversal reads are tagged non-critical; the final decision nodes are
re-read critically (this is what NVTraverse persists), and all pointer
updates are critical writes.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.persist.api import PMemView
from repro.persist.structures.base import PersistedReader, PersistentSet

KEY = 0
NEXT = 1


class PersistentLinkedList(PersistentSet):
    name = "list"

    def __init__(self, heap, field_stride: int = 8) -> None:
        super().__init__(heap, field_stride)
        self._head = self._alloc(2)
        self._initialized = False

    def initialize(self, view: PMemView) -> None:
        """Write and persist the sentinel before first use."""
        view.op_begin()
        view.write(self._head.field(KEY), 0, critical=True)
        view.write(self._head.field(NEXT), 0, critical=True)
        view.flush(self._head.field(KEY))
        view.op_end()
        self._initialized = True

    # ------------------------------------------------------------- helpers
    def _field(self, base: int, index: int) -> int:
        return base + index * self.field_stride

    def _search(self, view: PMemView, key: int) -> Tuple[int, int, int]:
        """Return (prev_base, curr_base, curr_key); curr may be 0 (tail)."""
        # bound per call, not per structure: tracers replace view.read
        read = view.read
        key_at = KEY * self.field_stride
        next_at = NEXT * self.field_stride
        prev = self._head.base
        curr = read(prev + next_at)
        curr_key = -1
        while curr:
            curr_key = read(curr + key_at)
            if curr_key >= key:
                break
            prev = curr
            curr = read(curr + next_at)
        # NVTraverse-style: persist the decision window
        read(prev + next_at, critical=True)
        if curr:
            read(curr + key_at, critical=True)
        return prev, curr, curr_key

    # ------------------------------------------------------------- set API
    def insert(self, view: PMemView, key: int) -> bool:
        if key <= 0:
            raise ValueError("keys must be positive")
        view.op_begin()
        try:
            while True:
                prev, curr, curr_key = self._search(view, key)
                if curr and curr_key == key:
                    return False
                node = self._alloc(2)
                view.write(node.field(KEY), key, critical=True)
                view.write(node.field(NEXT), curr, critical=True)
                if view.cas(self._field(prev, NEXT), curr, node.base):
                    return True
        finally:
            view.op_end()

    def delete(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            while True:
                prev, curr, curr_key = self._search(view, key)
                if not curr or curr_key != key:
                    return False
                nxt = view.read(self._field(curr, NEXT), critical=True)
                if view.cas(self._field(prev, NEXT), curr, nxt):
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
        curr = read(self._field(self._head.base, NEXT))
        seen = set()
        while curr and curr not in seen:
            seen.add(curr)
            key = read(self._field(curr, KEY))
            if key:
                keys.add(key)
            curr = read(self._field(curr, NEXT))
        return keys
