"""Admission control: high/low-water hysteresis over a backlog probe.

The serving tier measures write backlog (unsealed epoch records plus the
acting thread's in-flight writebacks) before every write.  Crossing the
high-water mark engages backpressure; it stays engaged — every new write
is shed — until the backlog drains to the low-water mark.  The gap
between the two marks is the hysteresis band: without it the controller
would flap on every epoch seal, admitting one request per drain cycle
and rejecting the next.

A shed request is rejected outright and remembered: a shed request id
is **never** admitted later, even after pressure clears (the client was
told "no"; silently executing it afterwards would duplicate the op if
the client retried under a fresh id).
"""

from __future__ import annotations

from typing import Callable, Optional, Set


class AdmissionController:
    """The admission state machine (pure; no store dependencies).

    ``offer(rid, depth)`` returns ``"admit"`` or ``"shed"`` and owns all
    the counters the tier exports.  ``on_transition`` (when
    set) fires with ``"engaged"`` / ``"released"`` exactly once per
    state change — the tier wires it to the store's crash-probe points
    and the obs counters.
    """

    def __init__(
        self,
        high_water: int,
        low_water: int,
        *,
        on_transition: Optional[Callable[[str], None]] = None,
    ) -> None:
        if high_water < 1:
            raise ValueError("high_water must be >= 1")
        if not 0 <= low_water < high_water:
            raise ValueError("low_water must be in [0, high_water)")
        self.high_water = high_water
        self.low_water = low_water
        self.on_transition = on_transition
        self.engaged = False
        #: request ids that were shed; never admitted afterwards
        self.shed_ids: Set[int] = set()
        self.admitted = 0
        self.shed = 0
        self.engagements = 0
        self.releases = 0

    def _engage(self) -> None:
        self.engaged = True
        self.engagements += 1
        if self.on_transition is not None:
            self.on_transition("engaged")

    def _release(self) -> None:
        self.engaged = False
        self.releases += 1
        if self.on_transition is not None:
            self.on_transition("released")

    def update(self, depth: int) -> bool:
        """Move the hysteresis state for the observed *depth*; True = engaged."""
        if self.engaged:
            if depth <= self.low_water:
                self._release()
        elif depth >= self.high_water:
            self._engage()
        return self.engaged

    def offer(self, rid: int, depth: int) -> str:
        """Admission decision for request *rid* at the observed *depth*."""
        if rid in self.shed_ids:
            # the client was already told "no" for this request; a late
            # admit would duplicate the op against the client's retry
            self.shed += 1
            return "shed"
        if self.update(depth):
            self.shed_ids.add(rid)
            self.shed += 1
            return "shed"
        self.admitted += 1
        return "admit"
