"""Persistent skiplist [23], operation-atomic.

Node layout: ``[key, height, next_0, ..., next_{H-1}]`` with a maximum
height of :data:`MAX_LEVEL`.  Heights are a deterministic pseudo-random
function of the key so runs are reproducible.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.persist.api import PMemView
from repro.persist.structures.base import PersistedReader, PersistentSet

KEY = 0
HEIGHT = 1
NEXT0 = 2

MAX_LEVEL = 4
_HASH_MULT = 0x9E3779B97F4A7C15


def deterministic_height(key: int) -> int:
    """Geometric(1/2)-like height derived from the key (1..MAX_LEVEL)."""
    h = (key * _HASH_MULT) & 0xFFFFFFFFFFFFFFFF
    height = 1
    while height < MAX_LEVEL and (h >> height) & 1:
        height += 1
    return height


class PersistentSkipList(PersistentSet):
    name = "skiplist"

    def __init__(self, heap, field_stride: int = 8) -> None:
        super().__init__(heap, field_stride)
        self._head = self._alloc(NEXT0 + MAX_LEVEL)
        self._initialized = False

    def initialize(self, view: PMemView) -> None:
        view.op_begin()
        view.write(self._head.field(KEY), 0, critical=True)
        view.write(self._head.field(HEIGHT), MAX_LEVEL, critical=True)
        for level in range(MAX_LEVEL):
            view.write(self._head.field(NEXT0 + level), 0, critical=True)
        view.op_end()
        self._initialized = True

    # ------------------------------------------------------------- helpers
    def _field(self, base: int, index: int) -> int:
        return base + index * self.field_stride

    def _find(
        self, view: PMemView, key: int
    ) -> Tuple[List[int], List[int], int, int]:
        """Per-level predecessors/successors plus the bottom-level match."""
        # bound per call, not per structure: tracers replace view.read
        read = view.read
        stride = self.field_stride
        key_at = KEY * stride
        preds: List[int] = [0] * MAX_LEVEL
        succs: List[int] = [0] * MAX_LEVEL
        pred = self._head.base
        for level in range(MAX_LEVEL - 1, -1, -1):
            next_at = (NEXT0 + level) * stride
            curr = read(pred + next_at)
            while curr:
                curr_key = read(curr + key_at)
                if curr_key >= key:
                    break
                pred = curr
                curr = read(curr + next_at)
            preds[level] = pred
            succs[level] = curr
        curr = succs[0]
        curr_key = read(curr + key_at, critical=True) if curr else -1
        read(preds[0] + NEXT0 * stride, critical=True)
        return preds, succs, curr, curr_key

    # ------------------------------------------------------------- set API
    def insert(self, view: PMemView, key: int) -> bool:
        if key <= 0:
            raise ValueError("keys must be positive")
        view.op_begin()
        try:
            while True:
                preds, succs, curr, curr_key = self._find(view, key)
                if curr and curr_key == key:
                    return False
                height = deterministic_height(key)
                node = self._alloc(NEXT0 + height)
                view.write(node.field(KEY), key, critical=True)
                view.write(node.field(HEIGHT), height, critical=True)
                for level in range(height):
                    view.write(
                        node.field(NEXT0 + level), succs[level], critical=True
                    )
                if not view.cas(
                    self._field(preds[0], NEXT0), succs[0], node.base
                ):
                    continue
                for level in range(1, height):
                    view.cas(
                        self._field(preds[level], NEXT0 + level),
                        succs[level],
                        node.base,
                    )
                return True
        finally:
            view.op_end()

    def delete(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            while True:
                preds, succs, curr, curr_key = self._find(view, key)
                if not curr or curr_key != key:
                    return False
                height = view.read(self._field(curr, HEIGHT))
                # unlink top-down; the bottom level is the linearization
                for level in range(height - 1, 0, -1):
                    if succs[level] == curr:
                        nxt = view.read(self._field(curr, NEXT0 + level))
                        view.cas(
                            self._field(preds[level], NEXT0 + level), curr, nxt
                        )
                nxt = view.read(self._field(curr, NEXT0), critical=True)
                if view.cas(self._field(preds[0], NEXT0), curr, nxt):
                    return True
        finally:
            view.op_end()

    def contains(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            _, _, curr, curr_key = self._find(view, key)
            return bool(curr) and curr_key == key
        finally:
            view.op_end()

    # ------------------------------------------------------------ recovery
    def recover_keys(self, read: PersistedReader) -> Set[int]:
        """Walk the bottom level of the persisted image."""
        keys: Set[int] = set()
        curr = read(self._field(self._head.base, NEXT0))
        seen = set()
        while curr and curr not in seen:
            seen.add(curr)
            key = read(self._field(curr, KEY))
            if key:
                keys.add(key)
            curr = read(self._field(curr, NEXT0))
        return keys
