"""TileLink permission lattice and transition parameters.

TileLink names the three permission levels after tree positions:

* ``NONE``  (N) - no copy of the line;
* ``BRANCH`` (B) - read-only copy, possibly shared;
* ``TRUNK`` (T) - exclusive, writable copy.

``Grow`` parameters annotate Acquire messages (what upgrade the client
wants), ``Shrink`` parameters annotate Release/ProbeAck messages (what
downgrade the client performed), and ``Cap`` parameters annotate Probe
messages (the maximum permission the client may retain).
"""

from __future__ import annotations

import enum
from typing import Tuple


class Perm(enum.IntEnum):
    """Permission held on a cache line; order matches privilege."""

    NONE = 0
    BRANCH = 1
    TRUNK = 2

    @property
    def readable(self) -> bool:
        return self is not _NONE

    @property
    def writable(self) -> bool:
        return self is _TRUNK


class Grow(enum.Enum):
    """Acquire params: requested permission growth."""

    NtoB = "NtoB"
    NtoT = "NtoT"
    BtoT = "BtoT"


class Shrink(enum.Enum):
    """Release/ProbeAck params: performed permission shrink (or report)."""

    TtoB = "TtoB"
    TtoN = "TtoN"
    BtoN = "BtoN"
    # report params: no change, used by ProbeAck when already compliant
    TtoT = "TtoT"
    BtoB = "BtoB"
    NtoN = "NtoN"


class Cap(enum.Enum):
    """Probe params: permission ceiling imposed on the client."""

    toT = "toT"
    toB = "toB"
    toN = "toN"


# The tables below are member attributes (like ``MemOp.is_cbo``): the
# caches consult them on every grant, release, probe and probe answer,
# and on Python 3.11 reading a member off its class, or hashing one into
# a dict, costs a slow Python-level call.

#: permission a successful Acquire with this param confers
Grow.NtoB.target = Perm.BRANCH
Grow.NtoT.target = Perm.TRUNK
Grow.BtoT.target = Perm.TRUNK

#: permission the client retains after a Release/ProbeAck with this param
Shrink.TtoB.result = Perm.BRANCH
Shrink.TtoN.result = Perm.NONE
Shrink.BtoN.result = Perm.NONE
Shrink.TtoT.result = Perm.TRUNK
Shrink.BtoB.result = Perm.BRANCH
Shrink.NtoN.result = Perm.NONE
for _shrink in Shrink:
    _shrink.is_report = _shrink in (Shrink.TtoT, Shrink.BtoB, Shrink.NtoN)
del _shrink

#: the highest permission a probed client may keep
Cap.toT.perm = Perm.TRUNK
Cap.toB.perm = Perm.BRANCH
Cap.toN.perm = Perm.NONE

# enum members bound once at import (see tests/test_hot_paths.py)
_NONE = Perm.NONE
_TRUNK = Perm.TRUNK

#: each Perm member, indexed by its value (``Perm(value)`` without the call)
PERM_OF: Tuple[Perm, ...] = (Perm.NONE, Perm.BRANCH, Perm.TRUNK)

#: probe_shrink's answer, indexed ``[current][target]`` by permission value
_PROBE_SHRINK = (
    (Shrink.NtoN,),
    (Shrink.BtoN, Shrink.BtoB),
    (Shrink.TtoN, Shrink.TtoB, Shrink.TtoT),
)


def grow_target(grow: Grow) -> Perm:
    """Permission a successful Acquire with param *grow* confers."""
    return grow.target


def shrink_result(shrink: Shrink) -> Perm:
    """Permission the client retains after a Release/ProbeAck with *shrink*."""
    return shrink.result


def is_report(shrink: Shrink) -> bool:
    """True for report params (XtoX): the client changed nothing.

    Reports must not update a directory: they can be stale.  A
    RootReleaseClean queued while the line was BRANCH reports ``BtoB``
    even if the issuing core re-acquired TRUNK before the L2 processes
    the message; acting on the report would orphan the ownership record.
    """
    return shrink.is_report


def probe_shrink(current: Perm, cap: Cap) -> Shrink:
    """The Shrink/report param a client answers a Probe with.

    A probe capping at or above the current permission elicits a report
    param (``XtoX``); otherwise the genuine shrink param.
    """
    return _PROBE_SHRINK[current][min(current, cap.perm)]
