"""Persistent external binary search tree (Natarajan-Mittal-style [53]).

An *external* BST: all keys live in leaves, internal nodes only route.
Node layout: ``[key, left, right]``; a node with ``left == right == 0``
is a leaf.  Deletion splices the leaf's sibling into the grandparent.

The original algorithm tags child pointers with flag/mark bits for its
lock-free protocol.  This reproduction declares
``uses_pointer_tagging = True`` so the harness excludes the
link-and-persist filter for the BST, exactly as the paper does (§7.4:
"Link-and-Persist ... is not applicable for algorithms that make use of
unused bits for their logic (such as the BST)").
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.persist.api import PMemView
from repro.persist.structures.base import PersistedReader, PersistentSet

KEY = 0
LEFT = 1
RIGHT = 2

_INFINITE_KEY = 1 << 50  # sentinel larger than any workload key


class PersistentBst(PersistentSet):
    name = "bst"
    uses_pointer_tagging = True

    def __init__(self, heap, field_stride: int = 8) -> None:
        super().__init__(heap, field_stride)
        # root anchor: an internal node with two infinite-key leaves
        self._root = self._alloc(3)
        self._leaf_l = self._alloc(3)
        self._leaf_r = self._alloc(3)
        self._initialized = False

    def initialize(self, view: PMemView) -> None:
        view.op_begin()
        for leaf, key in ((self._leaf_l, _INFINITE_KEY - 1), (self._leaf_r, _INFINITE_KEY)):
            view.write(leaf.field(KEY), key, critical=True)
            view.write(leaf.field(LEFT), 0, critical=True)
            view.write(leaf.field(RIGHT), 0, critical=True)
        view.write(self._root.field(KEY), _INFINITE_KEY - 1, critical=True)
        view.write(self._root.field(LEFT), self._leaf_l.base, critical=True)
        view.write(self._root.field(RIGHT), self._leaf_r.base, critical=True)
        view.op_end()
        self._initialized = True

    # ------------------------------------------------------------- helpers
    def _field(self, base: int, index: int) -> int:
        return base + index * self.field_stride

    def _is_leaf(self, view: PMemView, node: int) -> bool:
        return view.read(self._field(node, LEFT)) == 0

    def _seek(self, view: PMemView, key: int) -> Tuple[int, int, int, int]:
        """(grandparent, parent, leaf, leaf_key) for *key*."""
        # bound per call, not per structure: tracers replace view.read
        read = view.read
        key_at = KEY * self.field_stride
        left_at = LEFT * self.field_stride
        right_at = RIGHT * self.field_stride
        gparent = 0
        parent = self._root.base
        node = read(parent + left_at)
        while read(node + left_at):
            gparent = parent
            parent = node
            node_key = read(node + key_at)
            node = read(node + (left_at if key <= node_key else right_at))
        leaf_key = read(node + key_at, critical=True)
        read(parent + key_at, critical=True)
        return gparent, parent, node, leaf_key

    def _child_slot(self, view: PMemView, parent: int, key: int) -> int:
        parent_key = view.read(self._field(parent, KEY))
        return self._field(parent, LEFT if key <= parent_key else RIGHT)

    # ------------------------------------------------------------- set API
    def insert(self, view: PMemView, key: int) -> bool:
        if key <= 0:
            raise ValueError("keys must be positive")
        view.op_begin()
        try:
            while True:
                _, parent, leaf, leaf_key = self._seek(view, key)
                if leaf_key == key:
                    return False
                new_leaf = self._alloc(3)
                view.write(new_leaf.field(KEY), key, critical=True)
                view.write(new_leaf.field(LEFT), 0, critical=True)
                view.write(new_leaf.field(RIGHT), 0, critical=True)
                internal = self._alloc(3)
                small, big = (
                    (new_leaf.base, leaf) if key <= leaf_key else (leaf, new_leaf.base)
                )
                view.write(
                    internal.field(KEY), min(key, leaf_key), critical=True
                )
                view.write(internal.field(LEFT), small, critical=True)
                view.write(internal.field(RIGHT), big, critical=True)
                slot = self._child_slot(view, parent, key)
                if view.cas(slot, leaf, internal.base):
                    return True
        finally:
            view.op_end()

    def delete(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            while True:
                gparent, parent, leaf, leaf_key = self._seek(view, key)
                if leaf_key != key:
                    return False
                if not gparent:
                    return False  # sentinel leaves are never deleted
                # splice: grandparent adopts the leaf's sibling
                parent_key = view.read(self._field(parent, KEY))
                sibling_slot = self._field(
                    parent, RIGHT if key <= parent_key else LEFT
                )
                sibling = view.read(sibling_slot, critical=True)
                gslot = self._child_slot(view, gparent, key)
                if view.cas(gslot, parent, sibling):
                    return True
        finally:
            view.op_end()

    def contains(self, view: PMemView, key: int) -> bool:
        view.op_begin()
        try:
            _, _, _, leaf_key = self._seek(view, key)
            return leaf_key == key
        finally:
            view.op_end()

    # ------------------------------------------------------------ recovery
    def recover_keys(self, read: PersistedReader) -> Set[int]:
        keys: Set[int] = set()
        stack = [self._root.base]
        seen = set()
        while stack:
            node = stack.pop()
            if not node or node in seen:
                continue
            seen.add(node)
            left = read(self._field(node, LEFT))
            right = read(self._field(node, RIGHT))
            if not left and not right:
                key = read(self._field(node, KEY))
                if 0 < key < _INFINITE_KEY - 1:
                    keys.add(key)
            else:
                stack.append(left)
                stack.append(right)
        return keys
