"""Full-map directory entry for the inclusive L2 (§3.4).

The SiFive inclusive cache stores, with each line's metadata, a full map of
directory bits naming the L1 agents that hold a copy, plus whether one of
them may hold it writable (TRUNK).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.tilelink.permissions import Perm

# enum members bound once at import (see tests/test_hot_paths.py)
_NONE = Perm.NONE
_BRANCH = Perm.BRANCH
_TRUNK = Perm.TRUNK


@dataclass
class DirectoryEntry:
    """Tracks which clients hold a line and at what maximum permission."""

    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None  # client holding TRUNK, if any

    def grant(self, client: int, perm: Perm) -> None:
        """Record a Grant of *perm* to *client*."""
        if perm is _NONE:
            raise ValueError("cannot grant NONE")
        if perm is _TRUNK:
            # a sharer other than *client*, counted without a set difference
            if len(self.sharers) > (client in self.sharers):
                raise ValueError(
                    "granting TRUNK while other sharers exist violates "
                    "single-writer"
                )
            self.owner = client
        self.sharers.add(client)

    def downgrade(self, client: int, to: Perm) -> None:
        """Record that *client* now holds at most *to*."""
        if to is _NONE:
            self.sharers.discard(client)
            if self.owner == client:
                self.owner = None
        elif to is _BRANCH:
            if self.owner == client:
                self.owner = None
        else:  # TRUNK: no-op report
            pass

    def holds(self, client: int) -> bool:
        return client in self.sharers

    def perm_of(self, client: int) -> Perm:
        if client == self.owner:
            return _TRUNK
        if client in self.sharers:
            return _BRANCH
        return _NONE

    @property
    def idle(self) -> bool:
        """No client holds the line."""
        return not self.sharers

    def copy(self) -> "DirectoryEntry":
        return DirectoryEntry(sharers=set(self.sharers), owner=self.owner)
