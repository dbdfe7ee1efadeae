"""Ablations of the design choices DESIGN.md §5 calls out.

Not a paper figure: each test quantifies what one piece of the flush
unit buys on one small point of the cycle-level model (the last one on
the timing model), against the same point with the piece taken away.
"""

from functools import partial

import pytest

from repro.bench import structures
from repro.bench.structures import run_structure
from repro.sim.config import CacheGeometry, FlushUnitParams, SoCParams
from repro.timing.params import TimingParams
from repro.workloads.sweep import redundant_writeback_latency, writeback_sweep

KIB = 1024


def params_with_flush_unit(**kwargs) -> SoCParams:
    """The paper's SoC with one flush-unit choice changed."""
    return SoCParams(flush_unit=FlushUnitParams(**kwargs))


@pytest.mark.parametrize(
    "field, without, paper, better",
    [
        # asynchrony across the paper's 8 FSHRs hides latency
        pytest.param("num_fshrs", 1, 8, lambda slow, fast: fast < slow / 2, id="fshrs"),
        # a deep flush queue decouples the LSU from writeback latency
        pytest.param("flush_queue_depth", 1, 16, lambda s, f: f <= s, id="queue"),
        # the widened data array fills an FSHR buffer in one cycle
        pytest.param("wide_data_array", False, True, lambda s, f: f <= s, id="wide"),
    ],
)
def test_flush_unit_piece(field, without, paper, better):
    """A 4 KiB flush with the paper's choice against one without it."""
    slow, fast = (
        writeback_sweep(
            4 * KIB, repeats=1, params=params_with_flush_unit(**{field: value})
        ).median
        for value in (without, paper)
    )
    assert better(slow, fast), (slow, fast)


def test_coalescing():
    """Queue coalescing absorbs redundant same-line CBO.X (§5.3)."""
    results = {}
    for coalesce in (False, True):
        params = params_with_flush_unit(coalesce=coalesce).with_skip_it(False)
        results[coalesce] = redundant_writeback_latency(
            KIB, skip_it=False, repeats=1, params=params
        ).median
    assert results[True] <= results[False], results


def test_l1_skip_bit_beats_the_l2_filter_alone():
    """The LLC's dirty-bit filter alone (naive) vs adding the L1 skip bit:
    Skip It saves the queue/FSHR/L2 round trip on top (§7.4)."""
    naive = redundant_writeback_latency(KIB, skip_it=False, repeats=1).median
    skip = redundant_writeback_latency(KIB, skip_it=True, repeats=1).median
    assert skip < naive, (naive, skip)


def test_skip_it_savings_grow_with_redundancy():
    """Figure 13's gap widens with the redundant CBO.X per line."""
    gaps = {}
    for redundant in (2, 10):
        naive, skip = (
            redundant_writeback_latency(
                KIB, skip_it=skip_it, redundant=redundant, repeats=1
            ).median
            for skip_it in (False, True)
        )
        gaps[redundant] = naive - skip
    assert gaps[10] > gaps[2], gaps


def test_deeper_hierarchy_grows_skip_savings(monkeypatch):
    """§7.4: 'A deeper cache hierarchy (i.e. L3 or L4) could show greater
    improvements due to the increased latencies.'  A victim L3 lengthens
    every non-filtered writeback's path, so Skip It's gain over plain on
    a fig-14 hash-table cell grows."""

    def gain() -> float:
        skipit, plain = (
            run_structure(14, "hashtable", "automatic", opt, 5, 60_000, 1)
            for opt in ("skipit", "plain")
        )
        return skipit.throughput_mops / plain.throughput_mops

    shallow = gain()
    l3 = CacheGeometry(size_bytes=2 * 1024 * 1024, ways=8)
    monkeypatch.setattr(structures, "TimingParams", partial(TimingParams, l3=l3))
    deep = gain()
    assert deep > shallow, (shallow, deep)
