"""Tests for the microbenchmark workload generators.

These run small instances and assert the *shape* claims of §7.2-§7.4 that
the figures report, which is the real contract of the harness.
"""

import pytest

from repro.bench.structures import run_structure
from repro.workloads.sweep import (
    clean_vs_flush_reread,
    redundant_writeback_latency,
    writeback_sweep,
)

KIB = 1024


class TestWritebackSweep:
    def test_single_line_latency_near_100_cycles(self):
        """§7.2: one CBO.X to one line costs about 100 cycles."""
        result = writeback_sweep(64, threads=1, repeats=3)
        assert 70 <= result.median <= 140

    def test_latency_grows_with_size(self):
        small = writeback_sweep(64, repeats=2).median
        large = writeback_sweep(4 * KIB, repeats=2).median
        assert large > small * 3

    def test_threads_reduce_latency(self):
        """§7.2: splitting the flush across threads approaches linear."""
        one = writeback_sweep(8 * KIB, threads=1, repeats=2).median
        four = writeback_sweep(8 * KIB, threads=4, repeats=2).median
        assert four < one / 2

    def test_clean_and_flush_equal_in_isolation(self):
        """§7.2: CBO.CLEAN and CBO.FLUSH are equivalent in isolation."""
        flush = writeback_sweep(2 * KIB, clean=False, repeats=2).median
        clean = writeback_sweep(2 * KIB, clean=True, repeats=2).median
        assert clean == pytest.approx(flush, rel=0.1)

    def test_samples_counted(self):
        result = writeback_sweep(64, repeats=4)
        assert len(result.samples) == 4


class TestCleanVsFlushReread:
    def test_clean_reread_faster(self):
        """Figure 10: re-read after clean ~2x faster than after flush."""
        clean = clean_vs_flush_reread(512, clean=True, repeats=2).median
        flush = clean_vs_flush_reread(512, clean=False, repeats=2).median
        assert flush > clean * 1.5


class TestRedundantWriteback:
    def test_skip_it_beats_naive(self):
        """Figure 13: Skip It removes the redundant-writeback cost."""
        naive = redundant_writeback_latency(512, skip_it=False, repeats=2).median
        skipit = redundant_writeback_latency(512, skip_it=True, repeats=2).median
        assert skipit < naive * 0.9

    def test_gap_grows_with_redundancy(self):
        naive_0 = redundant_writeback_latency(
            256, skip_it=False, redundant=0, repeats=2
        ).median
        naive_10 = redundant_writeback_latency(
            256, skip_it=False, redundant=10, repeats=2
        ).median
        skip_10 = redundant_writeback_latency(
            256, skip_it=True, redundant=10, repeats=2
        ).median
        assert naive_10 > naive_0  # redundant CBOs cost the naive design
        assert skip_10 < naive_10


def _structure(structure, policy, optimizer, duration, key_range=256):
    """A small figure-14 cell at the fixed seed 12345."""
    return run_structure(
        14, structure, policy, optimizer, 5, duration, 12345, key_range=key_range
    )


class TestStructureCell:
    def test_applicability_matrix(self):
        """BST x link-and-persist is not run (its row has no throughput);
        other pairings run."""
        row = _structure("bst", "manual", "link-and-persist", 1000)
        assert row.throughput_mops is None and row.metrics is None
        assert _structure("bst", "manual", "skipit", 1000, 64).throughput_mops
        row = _structure("list", "manual", "link-and-persist", 1000, 64)
        assert row.throughput_mops

    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError):
            _structure("btree", "manual", "plain", 1000)

    def test_result_fields(self):
        row = _structure("hashtable", "manual", "skipit", 20_000)
        assert row.throughput_mops > 0
        assert row.flush_requests == sum(
            row.metrics["timing"]["threads"][f"t{tid}"]["flush_requests"]
            for tid in range(2)
        )

    def test_skip_it_filters_redundant_flushes(self):
        row = _structure("hashtable", "automatic", "skipit", 30_000)
        assert row.cbo_skipped > row.cbo_issued

    def test_plain_issues_every_request(self):
        row = _structure("hashtable", "automatic", "plain", 20_000)
        assert row.cbo_skipped == 0
        assert row.cbo_issued > 0
