"""Unit tests for the virtual-time scheduler."""

import heapq
import time

import pytest

from repro.timing import scheduler
from repro.timing.params import TimingParams
from repro.timing.scheduler import VirtualTimeScheduler
from repro.timing.system import TimingSystem


def mk(threads=2):
    return TimingSystem(TimingParams(num_threads=threads))


class TestScheduler:
    def test_runs_until_deadline(self):
        system = mk()
        sched = VirtualTimeScheduler(system)

        def step(ctx):
            ctx.load(0x40 + (ctx.ops % 8) * 64)

        result = sched.run([step, step], duration=10_000)
        assert result.total_ops > 0
        assert all(ctx.now >= 10_000 for ctx in system.threads)

    def test_fairness_between_equal_threads(self):
        system = mk()
        sched = VirtualTimeScheduler(system)

        def step(ctx):
            ctx.load(0x1000 * (ctx.tid + 1))

        result = sched.run([step, step], duration=50_000)
        a, b = result.ops_per_thread
        assert abs(a - b) <= max(a, b) * 0.05  # near-equal progress

    def test_slow_thread_does_fewer_ops(self):
        system = mk()
        sched = VirtualTimeScheduler(system)

        def fast(ctx):
            ctx.load(0x40)

        def slow(ctx):
            ctx.load(0x40)
            ctx.fence()
            ctx.now += 100

        result = sched.run([fast, slow], duration=20_000)
        assert result.ops_per_thread[0] > result.ops_per_thread[1]

    def test_warmup_not_counted(self):
        system = mk(threads=1)
        sched = VirtualTimeScheduler(system)
        calls = []

        def step(ctx):
            calls.append(1)
            ctx.now += 1000

        result = sched.run([step], duration=5_000, warmup=3)
        assert len(calls) == result.ops_per_thread[0] + 3

    def test_throughput_computation(self):
        system = mk(threads=1)
        sched = VirtualTimeScheduler(system)

        def step(ctx):
            ctx.now += 100

        result = sched.run([step], duration=10_000)
        assert result.throughput(clock_hz=50e6) == pytest.approx(
            result.total_ops * 50e6 / result.elapsed
        )

    def test_too_many_steps_rejected(self):
        system = mk(threads=1)
        sched = VirtualTimeScheduler(system)
        with pytest.raises(ValueError):
            sched.run([lambda c: None] * 2, duration=100)

    def test_zero_duration(self):
        system = mk(threads=1)
        sched = VirtualTimeScheduler(system)
        result = sched.run([lambda ctx: None], duration=0)
        assert result.total_ops == 0


def unguarded_run(system, steps, duration):
    """The scheduler loop without the stall guard: the order it steps in."""
    contexts = system.threads[: len(steps)]
    for ctx in contexts:
        ctx.now = ctx.ops = 0
    order = []
    heap = [(ctx.now, ctx.tid) for ctx in contexts]
    heapq.heapify(heap)
    while heap:
        _, tid = heapq.heappop(heap)
        ctx = system.threads[tid]
        if ctx.now >= duration:
            continue
        steps[tid](ctx)
        ctx.ops += 1
        order.append((tid, ctx.now))
        heapq.heappush(heap, (ctx.now, tid))
    return order, [ctx.ops for ctx in contexts]


def bursty(burst):
    """A step that costs nothing *burst* - 1 times, then 13 cycles: a
    client draining a queue of free memtable reads between writes."""

    def step(ctx):
        if ctx.ops % burst == burst - 1:
            ctx.now += 13

    return step


class TestStallGuard:
    def test_step_that_never_advances_raises(self):
        system = mk()

        def busy(ctx):
            ctx.now += 10

        began = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"thread 1 .* cycle 0\)"):
            VirtualTimeScheduler(system).run(
                [busy, lambda ctx: None], duration=1_000
            )
        assert time.perf_counter() - began < 1.0

    def test_zero_cost_steps_between_advancing_ones_finish_as_before(self):
        steps = [bursty(7), bursty(500)]
        order, ops = unguarded_run(mk(), steps, duration=2_000)
        system = mk()
        recorded = []

        def recording(step):
            def run(ctx):
                step(ctx)
                recorded.append((ctx.tid, ctx.now))

            return run

        result = VirtualTimeScheduler(system).run(
            [recording(step) for step in steps], duration=2_000
        )
        assert recorded == order
        assert result.ops_per_thread == ops
        assert ops[1] == 500 * (2_000 // 13 + 1)  # every free burst ran

    def test_limit_counts_consecutive_stalls_of_one_thread(self, monkeypatch):
        monkeypatch.setattr(scheduler, "MAX_STALLED_STEPS", 20)
        # 19 free steps, then one that advances: never 20 in a row
        result = VirtualTimeScheduler(mk(1)).run([bursty(20)], duration=1_000)
        assert result.total_ops == 20 * (1_000 // 13 + 1)
        with pytest.raises(RuntimeError, match="thread 0 took 20"):
            VirtualTimeScheduler(mk(1)).run([bursty(21)], duration=1_000)
