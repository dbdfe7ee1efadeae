"""The cycle engine that drives every hardware model in lockstep.

A *component* is any object with a ``tick(cycle)`` method.  Each simulated
cycle the engine calls ``tick`` on every registered component in
registration order, mirroring how synchronous RTL evaluates once per clock
edge.  Components talk through beat-accurate TileLink channels
(:class:`repro.tilelink.channel.BeatChannel`) and their own fixed-size
structures (flush queue, FSHRs, MSHRs), whose sizes model the finite
buffering of the real design.

The engine carries a watchdog: if ``watchdog_interval`` cycles elapse
without any component reporting progress (via :meth:`Engine.note_progress`),
the run aborts with :class:`SimulationDeadlock`.  The paper devotes §5.4 to
arguing deadlock freedom of the probe/flush/writeback handshake; the
watchdog is how this reproduction falsifies that argument if the model ever
violates it.  To make a firing watchdog debuggable rather than a bare
stack trace, components may register *diagnostics providers*
(:meth:`Engine.add_diagnostics`); when the watchdog fires, their dumps —
queue occupancies, in-flight FSHR/MSHR states — plus the last events from
an attached observability bus travel on the exception as ``.report``.

Event-horizon fast-forward
--------------------------

Ticking every idle Python object once per cycle dominates the wall-clock
of long latency stretches (a DRAM round trip is ~150 cycles of no-ops).
Components may therefore implement an optional ``next_event_cycle(cycle)``
hook returning the earliest *future* cycle at which their ``tick`` could
do anything, or ``None`` when the component is purely reactive (it acts
only in response to another component's event).  The contract is that
``tick`` is a strict no-op — no state change, no stats, no emissions —
for every cycle before the reported one, *given that no other component
acts either*.  When every registered component honours the contract,
:meth:`Engine.run_until` can jump the clock straight to the earliest
reported event instead of stepping idle cycles one by one; cycle counts
and statistics are identical to the stepped run by construction.  Any
component without the hook disables fast-forward for its engine.

A nacked LSU request *parked* by its core (:mod:`repro.uarch.cpu`) is
purely reactive under this contract: its retries change no state, and
whether the next one would still nack depends only on its own L1, which
acts only in stepped cycles.  The core reports it only once the L1's
nack decision passes, and counts the retries of skipped cycles when it
next ticks.  The hook is asked at the end of every stepped cycle that
precedes a jump, which is what lets the core cache the decision for the
stretch the jump skips.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Protocol, Tuple

#: how many trailing bus events a deadlock report carries
DEADLOCK_EVENT_TAIL = 32


def format_deadlock_report(report: Dict[str, object]) -> str:
    """Render a diagnostics report for the exception message."""
    return json.dumps(report, indent=2, sort_keys=True, default=str)


class SimulationDeadlock(RuntimeError):
    """Raised when no component makes progress for the watchdog interval.

    Attributes
    ----------
    report:
        Structured diagnostics gathered at the moment the watchdog fired:
        queue occupancies, in-flight FSHR/MSHR states, and (when an
        observability bus is attached) the last events.  Empty when no
        diagnostics providers were registered.
    """

    #: banner introducing the attached diagnostics in the message
    banner = "deadlock diagnostics"

    def __init__(self, message: str, report: Optional[Dict[str, object]] = None):
        if report:
            message = f"{message}\n--- {self.banner} ---\n" + (
                format_deadlock_report(report)
            )
        super().__init__(message)
        self.report: Dict[str, object] = report or {}


class SimulationTimeout(SimulationDeadlock):
    """Raised when ``run_until``'s *max_cycles* budget elapses.

    A plain predicate timeout: the simulation was still making progress
    (or simply idle), the caller's cycle budget just ran out.  Subclasses
    :class:`SimulationDeadlock` so existing ``except SimulationDeadlock``
    call sites keep working, but the message no longer claims the
    probe/flush/writeback handshake has deadlocked.
    """

    banner = "timeout diagnostics"


class Component(Protocol):
    """Anything tickable by the engine."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol
        ...


class Engine:
    """Drives registered components one cycle at a time.

    Parameters
    ----------
    watchdog_interval:
        Number of consecutive cycles without progress after which the run
        is declared deadlocked.  ``0`` disables the watchdog.
    fast_forward:
        Default for :meth:`run_until`'s event-horizon fast-forward.  Only
        effective when every registered component implements
        ``next_event_cycle``; cycle counts and stats are unchanged either
        way (see the module docstring).
    """

    def __init__(
        self, watchdog_interval: int = 200_000, fast_forward: bool = True
    ) -> None:
        self.cycle = 0
        self.watchdog_interval = watchdog_interval
        self.fast_forward = fast_forward
        self.obs = None  # observability bus; attached via repro.obs.attach
        self._components: List[Component] = []
        self._event_hooks: List[Callable[[int], Optional[int]]] = []
        self._hooks_complete = True  # every component has next_event_cycle
        self._last_progress_cycle = 0
        self._diagnostics: List[Tuple[str, Callable[[], Dict[str, object]]]] = []
        self._cycle_hooks: List[Callable[[int], None]] = []

    def register(self, component: Component) -> None:
        """Add *component* to the tick order (registration order is tick order)."""
        self._components.append(component)
        hook = getattr(component, "next_event_cycle", None)
        if hook is None:
            self._hooks_complete = False
        else:
            self._event_hooks.append(hook)

    def add_diagnostics(
        self, name: str, provider: Callable[[], Dict[str, object]]
    ) -> None:
        """Register a provider contributing a section to deadlock reports."""
        self._diagnostics.append((name, provider))

    def add_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """Call *hook(cycle)* after every stepped cycle's ticks.

        Cycle hooks are the crash-point injector's attachment surface
        (:mod:`repro.verify`): they observe the post-tick state of every
        component once per simulated cycle.  Registering one disables the
        engine's event-horizon fast-forward for the rest of the run —
        skipped cycles would never reach the hook, and an injector's whole
        point is to see *every* boundary.
        """
        self._cycle_hooks.append(hook)
        self.fast_forward = False

    def remove_cycle_hook(self, hook: Callable[[int], None]) -> None:
        if hook in self._cycle_hooks:
            self._cycle_hooks.remove(hook)

    def note_progress(self) -> None:
        """Record that some component did useful work this cycle.

        Called by components whenever they move a message, retire an
        instruction, or change architectural state.  Feeds the watchdog.
        """
        self._last_progress_cycle = self.cycle

    def diagnostics_report(self) -> Dict[str, object]:
        """Gather every provider's dump plus the trailing bus events."""
        report: Dict[str, object] = {
            "cycle": self.cycle,
            "last_progress_cycle": self._last_progress_cycle,
        }
        for name, provider in self._diagnostics:
            try:
                report[name] = provider()
            except Exception as exc:  # diagnostics must never mask the deadlock
                report[name] = f"<diagnostics provider failed: {exc!r}>"
        if self.obs is not None:
            report["last_events"] = self.obs.last_events(DEADLOCK_EVENT_TAIL)
        return report

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by *cycles* cycles."""
        components = self._components
        hooks = self._cycle_hooks
        interval = self.watchdog_interval
        for _ in range(cycles):
            cycle = self.cycle = self.cycle + 1
            for component in components:
                component.tick(cycle)
            if hooks:
                for hook in hooks:
                    hook(cycle)
            # inline watchdog check (the method call is per-cycle hot)
            if interval and self.cycle - self._last_progress_cycle > interval:
                self._check_watchdog()

    def next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which any component may act.

        Returns ``None`` when every component is idle forever (a genuine
        deadlock: no event is pending anywhere).  Returns ``cycle + 1``
        whenever fast-forward cannot safely skip anything — a component
        lacks the hook, or reports imminent work.
        """
        floor = self.cycle + 1
        if not self._hooks_complete:
            return floor
        horizon: Optional[int] = None
        for hook in self._event_hooks:
            nxt = hook(self.cycle)
            if nxt is None:
                continue
            if nxt <= floor:
                return floor
            if horizon is None or nxt < horizon:
                horizon = nxt
        return horizon

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: Optional[int] = None,
        fast_forward: Optional[bool] = None,
    ) -> int:
        """Step until *predicate* returns True; return the cycle count consumed.

        With *fast_forward* (default: the engine's ``fast_forward`` flag),
        stretches of cycles in which no component would do anything are
        skipped by jumping the clock to the next event horizon; the jump
        is capped so watchdog and timeout checks still fire on exactly the
        same cycle as a stepped run.

        Raises
        ------
        SimulationTimeout
            If *max_cycles* elapses before the predicate is satisfied.
        SimulationDeadlock
            If the watchdog fires, or no component reports any pending
            event while the predicate is unsatisfied.
        """
        if fast_forward is None:
            fast_forward = self.fast_forward
        start = self.cycle
        while not predicate():
            if max_cycles is not None and self.cycle - start >= max_cycles:
                raise SimulationTimeout(
                    f"predicate not satisfied within {max_cycles} cycles",
                    report=self.diagnostics_report(),
                )
            if fast_forward and self.cycle > self._last_progress_cycle:
                self._jump_to_horizon(start, max_cycles)
            self.step()
        return self.cycle - start

    def _jump_to_horizon(self, start: int, max_cycles: Optional[int]) -> None:
        """Advance the clock so the next ``step`` lands on the event horizon.

        The jump never passes the cycle at which a stepped run would
        raise a timeout (``start + max_cycles``) or fire the watchdog
        (``last_progress + watchdog_interval + 1``); intervening cycles
        are no-ops by the ``next_event_cycle`` contract, so skipping them
        leaves cycle counts and stats untouched.
        """
        horizon = self.next_event_cycle()
        limit: Optional[int] = None
        if max_cycles is not None:
            limit = start + max_cycles
        if self.watchdog_interval:
            fire = self._last_progress_cycle + self.watchdog_interval + 1
            limit = fire if limit is None else min(limit, fire)
        if horizon is None:
            if limit is None:
                raise SimulationDeadlock(
                    "no component reports a pending event; the simulation "
                    "can never satisfy the predicate",
                    report=self.diagnostics_report(),
                )
            horizon = limit
        elif limit is not None:
            horizon = min(horizon, limit)
        if horizon > self.cycle + 1:
            self.cycle = horizon - 1

    def _check_watchdog(self) -> None:
        if not self.watchdog_interval:
            return
        if self.cycle - self._last_progress_cycle > self.watchdog_interval:
            raise SimulationDeadlock(
                f"no progress for {self.watchdog_interval} cycles "
                f"(cycle {self.cycle}); probe/flush/writeback handshake "
                "has deadlocked",
                report=self.diagnostics_report(),
            )
