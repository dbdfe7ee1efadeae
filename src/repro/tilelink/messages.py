"""TileLink message types, including the paper's encodings.

Per §5.1, the new messages reuse existing op-codes:

* ``RootReleaseFlush``/``RootReleaseClean`` are ``ProbeAck`` messages with
  params :attr:`ProbeAckParam.FLUSH` / :attr:`ProbeAckParam.CLEAN`;
* ``RootReleaseAck`` is a ``ReleaseAck`` with param
  :attr:`ReleaseAckParam.ROOT`;
* ``GrantDataDirty`` (§6) is a ``GrantData`` with ``dirty=True``.

Every message carries ``source`` (requesting agent id) and ``address``
(line-aligned).  Data-bearing messages carry the full line as ``bytes``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.tilelink.permissions import Cap, Grow, Shrink

_txn_ids = itertools.count()


def _next_txn() -> int:
    return next(_txn_ids)


class ProbeAckParam(enum.Enum):
    """Extra param space on ProbeAck used to encode RootRelease (§5.1)."""

    NORMAL = "NORMAL"
    FLUSH = "FLUSH"  # RootReleaseFlush
    CLEAN = "CLEAN"  # RootReleaseClean
    INVAL = "INVAL"  # RootReleaseInval (CBO.INVAL extension, [60])


class ReleaseAckParam(enum.Enum):
    """Extra param space on ReleaseAck used to encode RootReleaseAck."""

    NORMAL = "NORMAL"
    ROOT = "ROOT"  # RootReleaseAck


# enum members bound once at import (see tests/test_hot_paths.py)
_NORMAL = ProbeAckParam.NORMAL
_ROOT = ReleaseAckParam.ROOT


@dataclass
class _Message:
    source: int
    address: int
    txn: int = field(default_factory=_next_txn, compare=False)
    #: causal span id (e.g. ``cbo:<flush_id>``) stamped by the sender when
    #: an observability bus is attached; purely diagnostic, never compared
    cause: Optional[str] = field(default=None, compare=False)

    @property
    def has_data(self) -> bool:
        return getattr(self, "data", None) is not None


# ----------------------------------------------------------------- channel A
@dataclass
class Acquire(_Message):
    """Client requests a copy/upgrade of a line (channel A)."""

    grow: Grow = Grow.NtoB


# ----------------------------------------------------------------- channel B
@dataclass
class Probe(_Message):
    """Manager revokes/downgrades a client's permissions (channel B)."""

    cap: Cap = Cap.toN


# ----------------------------------------------------------------- channel C
@dataclass
class ProbeAck(_Message):
    """Client answers a Probe; doubles as RootRelease when param != NORMAL."""

    shrink: Shrink = Shrink.NtoN
    param: ProbeAckParam = ProbeAckParam.NORMAL
    data: Optional[bytes] = None

    @property
    def is_root_release(self) -> bool:
        return self.param is not _NORMAL


@dataclass
class Release(_Message):
    """Client voluntarily downgrades a line (channel C), e.g. on eviction."""

    shrink: Shrink = Shrink.TtoN
    data: Optional[bytes] = None


# ----------------------------------------------------------------- channel D
@dataclass
class Grant(_Message):
    """Manager grants permissions without data (channel D)."""

    grow: Grow = Grow.NtoB


@dataclass
class GrantData(_Message):
    """Manager grants permissions with line data (channel D).

    ``dirty=True`` makes this a ``GrantDataDirty`` (§6): the line is not
    persisted, so the receiving L1 must leave the skip bit unset.
    """

    grow: Grow = Grow.NtoB
    data: bytes = b""
    dirty: bool = False


@dataclass
class ReleaseAck(_Message):
    """Manager acknowledges a Release; param ROOT makes it a RootReleaseAck."""

    param: ReleaseAckParam = ReleaseAckParam.NORMAL


# ----------------------------------------------------------------- channel E
@dataclass
class GrantAck(_Message):
    """Client acknowledges a Grant (channel E), completing the Acquire."""


def root_release(
    source: int,
    address: int,
    *,
    param: ProbeAckParam,
    shrink: Shrink,
    data: Optional[bytes] = None,
) -> ProbeAck:
    """Build a RootReleaseClean/Flush/Inval message (§5.1, plus CBO.INVAL)."""
    if param is _NORMAL:
        raise ValueError("a RootRelease needs a non-NORMAL param")
    return ProbeAck(source=source, address=address, shrink=shrink, param=param, data=data)


def root_release_ack(source: int, address: int) -> ReleaseAck:
    """Build a RootReleaseAck message (§5.1)."""
    return ReleaseAck(source=source, address=address, param=_ROOT)
