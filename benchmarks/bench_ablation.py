"""Ablations of the design choices DESIGN.md §5 calls out.

Not a paper figure: these quantify what each microarchitectural piece of
the flush unit buys, using the cycle-level model.
"""

import pytest

from repro.sim.config import FlushUnitParams, SoCParams
from repro.workloads.sweep import redundant_writeback_latency, writeback_sweep

KIB = 1024


def params_with_flush_unit(**kwargs) -> SoCParams:
    defaults = dict(
        num_fshrs=8, flush_queue_depth=16, coalesce=True, wide_data_array=True
    )
    defaults.update(kwargs)
    return SoCParams(flush_unit=FlushUnitParams(**defaults))


@pytest.mark.figure(0)
def test_ablation_fshr_count(benchmark, assert_shape):
    """8 FSHRs (paper) vs 1: asynchrony across FSHRs hides latency."""

    def run():
        results = {}
        for fshrs in (1, 8):
            params = params_with_flush_unit(num_fshrs=fshrs)
            results[fshrs] = writeback_sweep(
                4 * KIB, repeats=1, params=params
            ).median
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(
        results[8] < results[1] / 2,
        f"8 FSHRs should overlap writebacks ({results})",
    )


@pytest.mark.figure(0)
def test_ablation_flush_queue_depth(benchmark, assert_shape):
    """A deep flush queue decouples the LSU from writeback latency."""

    def run():
        results = {}
        for depth in (1, 16):
            params = params_with_flush_unit(flush_queue_depth=depth)
            results[depth] = writeback_sweep(
                4 * KIB, repeats=1, params=params
            ).median
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(
        results[16] <= results[1],
        f"deeper queue never hurts, usually helps ({results})",
    )


@pytest.mark.figure(0)
def test_ablation_wide_data_array(benchmark, assert_shape):
    """The paper widens the data array to fill an FSHR buffer in 1 cycle."""

    def run():
        results = {}
        for wide in (False, True):
            params = params_with_flush_unit(wide_data_array=wide)
            results[wide] = writeback_sweep(
                4 * KIB, repeats=1, params=params
            ).median
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(
        results[True] <= results[False],
        f"wide array at least matches word-per-cycle fills ({results})",
    )


@pytest.mark.figure(0)
def test_ablation_coalescing(benchmark, assert_shape):
    """Queue coalescing absorbs redundant same-line CBO.X (§5.3)."""

    def run():
        results = {}
        for coalesce in (False, True):
            params = params_with_flush_unit(coalesce=coalesce).with_skip_it(False)
            results[coalesce] = redundant_writeback_latency(
                KIB, skip_it=False, repeats=1, params=params
            ).median
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(
        results[True] <= results[False],
        f"coalescing never hurts redundant streams ({results})",
    )


@pytest.mark.figure(0)
def test_ablation_l2_trivial_skip_vs_l1_skip(benchmark, assert_shape):
    """The LLC's dirty-bit filter alone (naive) vs adding the L1 skip bit:
    Skip It saves the queue/FSHR/L2 round trip on top (§7.4)."""

    def run():
        naive = redundant_writeback_latency(KIB, skip_it=False, repeats=1)
        skip = redundant_writeback_latency(KIB, skip_it=True, repeats=1)
        return naive.median, skip.median

    naive, skip = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(skip < naive, "L1 skip bit improves on the L2-only filter")


@pytest.mark.figure(0)
def test_ablation_deeper_hierarchy_grows_skip_savings(benchmark, assert_shape):
    """§7.4: 'A deeper cache hierarchy (i.e. L3 or L4) could show greater
    improvements due to the increased latencies.'  Measured on the timing
    model: the skipit-over-plain throughput gain grows when a victim L3
    lengthens every non-filtered writeback's path."""
    from repro.bench.structures import mixed_step
    from repro.sim.config import CacheGeometry
    from repro.timing.params import TimingParams

    def gain(with_l3):
        results = {}
        for optimizer in ("plain", "skipit"):
            # a fig-14 hashtable point, with/without an L3
            def run_point(duration=60_000, warmup_ops=50):
                import random
                from repro.persist.api import PMemView
                from repro.persist.flushopt import make_optimizer
                from repro.persist.heap import SimHeap
                from repro.persist.policies import make_policy
                from repro.persist.structures import STRUCTURES
                from repro.timing.scheduler import VirtualTimeScheduler
                from repro.timing.system import TimingSystem

                params = TimingParams(
                    num_threads=2,
                    skip_it=optimizer == "skipit",
                    l3=CacheGeometry(size_bytes=2 * 1024 * 1024, ways=8)
                    if with_l3
                    else None,
                )
                system = TimingSystem(params)
                heap = SimHeap()
                opt = make_optimizer(optimizer, heap)
                policy = make_policy("automatic")
                structure = STRUCTURES["hashtable"](
                    heap, field_stride=opt.field_stride, num_buckets=256
                )
                views = [PMemView(t, policy, opt) for t in system.threads]
                structure.initialize(views[0])
                prefill = PMemView(views[0].ctx, make_policy("none"), opt)
                rng = random.Random(1)
                for key in rng.sample(range(1, 1025), 512):
                    structure.insert(prefill, key)
                system.persist_all()
                opt.declare_persisted(system)
                views[0].ctx.now = 0
                views[0].ctx.outstanding.clear()
                steps = [
                    mixed_step(structure, view, 1024, 5, 7 * tid)
                    for tid, view in enumerate(views)
                ]
                result = VirtualTimeScheduler(system).run(
                    steps, duration=duration, warmup=warmup_ops
                )
                return result.throughput() / 1e6

            results[optimizer] = run_point()
        return results["skipit"] / results["plain"]

    def run():
        return gain(with_l3=False), gain(with_l3=True)

    shallow, deep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(
        deep > shallow,
        f"Skip It gain should grow with hierarchy depth "
        f"({shallow:.2f}x shallow vs {deep:.2f}x deep)",
    )
