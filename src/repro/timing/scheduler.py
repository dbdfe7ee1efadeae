"""Virtual-time thread interleaving.

Real threads on real cores interleave by wall clock; the timing model
interleaves by virtual clock: the runnable thread with the smallest local
``now`` executes its next operation (which advances its clock).  This
yields a deterministic, fair interleaving whose contention pattern tracks
relative operation costs — the property the throughput figures depend on.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence

from repro.timing.system import ThreadCtx, TimingSystem

# A workload step: perform ONE operation on the given thread context.
ThreadStep = Callable[[ThreadCtx], None]

#: consecutive steps one thread may take without its clock moving before
#: :meth:`VirtualTimeScheduler.run` gives up.  A step may cost nothing (a
#: serve-tier memtable read takes no cycles), but a thread whose clock
#: never moves would be picked again forever.
MAX_STALLED_STEPS = 100_000


class VirtualTimeScheduler:
    """Runs one step-function per thread until a virtual-time deadline."""

    def __init__(self, system: TimingSystem) -> None:
        self.system = system

    def run(
        self,
        steps: Sequence[ThreadStep],
        duration: int,
        warmup: int = 0,
    ) -> "ScheduleResult":
        """Interleave *steps* until every clock passes *duration*.

        Each entry of *steps* drives one thread.  Operations started before
        the deadline run to completion (clocks may overshoot slightly).
        ``warmup`` operations per thread are executed first without being
        counted (cold caches would otherwise understate throughput).
        Raises :class:`RuntimeError` once one thread has taken
        :data:`MAX_STALLED_STEPS` consecutive steps without advancing its
        clock.
        """
        if len(steps) > len(self.system.threads):
            raise ValueError("more step functions than threads")
        contexts = self.system.threads[: len(steps)]
        for ctx, step in zip(contexts, steps):
            for _ in range(warmup):
                step(ctx)
            ctx.now = 0
            ctx.ops = 0
        heap = [(ctx.now, ctx.tid) for ctx in contexts]
        heapq.heapify(heap)
        stalled = [0] * len(self.system.threads)  # per tid, consecutive
        while heap:
            now, tid = heapq.heappop(heap)
            ctx = self.system.threads[tid]
            if ctx.now >= duration:
                continue
            before = ctx.now
            steps[tid](ctx)
            ctx.ops += 1
            if ctx.now != before:
                stalled[tid] = 0
            else:
                stalled[tid] += 1
                if stalled[tid] >= MAX_STALLED_STEPS:
                    raise RuntimeError(
                        f"thread {tid} took {MAX_STALLED_STEPS} consecutive "
                        f"steps without advancing its clock (stuck at "
                        f"cycle {ctx.now})"
                    )
            heapq.heappush(heap, (ctx.now, tid))
        return ScheduleResult(contexts)


class ScheduleResult:
    """Aggregate outcome of one scheduled run."""

    def __init__(self, contexts: Sequence[ThreadCtx]) -> None:
        self.ops_per_thread: List[int] = [ctx.ops for ctx in contexts]
        self.elapsed = max((ctx.now for ctx in contexts), default=0)

    @property
    def total_ops(self) -> int:
        return sum(self.ops_per_thread)

    def throughput(self, clock_hz: float = 50e6) -> float:
        """Operations per second at a given core clock (paper: 50 MHz, §7.1)."""
        if self.elapsed == 0:
            return 0.0
        return self.total_ops * clock_hz / self.elapsed
