"""Persistence algorithms of §7.4.

The three algorithms decide *which* accesses must be followed by a
writeback so that completed operations are durable (durable
linearizability [36]):

* **Automatic** [36, 73] — every shared-memory access is persisted:
  loads flush the line they read (a read of unpersisted data must persist
  it before the operation depends on it) and stores flush what they
  wrote; a fence seals every operation.  Correct for any linearizable
  structure, maximally redundant — the case writeback filters exist for.
* **NVTraverse** [27] — traversal reads need no flushes; only the
  *critical* accesses (reads of the final nodes the operation decides on,
  and all writes) are persisted, with a fence per operation.
* **Manual** [23] — algorithm-specific minimal persistence: only writes
  that change the durable structure are flushed, and only update
  operations fence.

Policies see the structure's accesses through :class:`repro.persist.api.
PMemView`, which tags each access as traversal or critical.
"""

from __future__ import annotations


class PersistencePolicy:
    """Decides which accesses are followed by writebacks.

    A policy is a pure decision table: each answer depends only on its
    argument, never on state or history.  :class:`~repro.persist.api.
    PMemView` relies on that and asks for the two read answers once.
    """

    name = "base"

    def flush_on_read(self, critical: bool) -> bool:
        raise NotImplementedError

    def flush_on_write(self, critical: bool) -> bool:
        raise NotImplementedError

    def fence_on_op_end(self, did_update: bool) -> bool:
        raise NotImplementedError


class Automatic(PersistencePolicy):
    """Flush every load and store; fence every operation."""

    name = "automatic"

    def flush_on_read(self, critical: bool) -> bool:
        return True

    def flush_on_write(self, critical: bool) -> bool:
        return True

    def fence_on_op_end(self, did_update: bool) -> bool:
        return True


class NVTraverse(PersistencePolicy):
    """Flush critical reads and all writes; fence every operation."""

    name = "nvtraverse"

    def flush_on_read(self, critical: bool) -> bool:
        return critical

    def flush_on_write(self, critical: bool) -> bool:
        return True

    def fence_on_op_end(self, did_update: bool) -> bool:
        return True


class Manual(PersistencePolicy):
    """Flush only critical writes; fence only updates."""

    name = "manual"

    def flush_on_read(self, critical: bool) -> bool:
        return False

    def flush_on_write(self, critical: bool) -> bool:
        return critical

    def fence_on_op_end(self, did_update: bool) -> bool:
        return did_update


class NonPersistent(PersistencePolicy):
    """No flushes, no fences: the non-persistent baseline of Figure 14."""

    name = "none"

    def flush_on_read(self, critical: bool) -> bool:
        return False

    def flush_on_write(self, critical: bool) -> bool:
        return False

    def fence_on_op_end(self, did_update: bool) -> bool:
        return False


POLICY_NAMES = ("automatic", "nvtraverse", "manual", "none")


def make_policy(name: str) -> PersistencePolicy:
    if name == "automatic":
        return Automatic()
    if name == "nvtraverse":
        return NVTraverse()
    if name == "manual":
        return Manual()
    if name == "none":
        return NonPersistent()
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
