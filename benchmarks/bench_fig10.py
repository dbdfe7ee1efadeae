"""Figure 10: write / 10x CBO.X / fence / re-read (§7.2).

Paper's claim: re-reading after CBO.CLEAN is ~2x faster than after
CBO.FLUSH because the clean leaves the line resident.
"""

import pytest

from repro.workloads.sweep import clean_vs_flush_reread


@pytest.mark.figure(10)
def test_fig10_clean_vs_flush(benchmark, assert_shape):
    def run():
        clean = clean_vs_flush_reread(1024, clean=True, repeats=1).median
        flush = clean_vs_flush_reread(1024, clean=False, repeats=1).median
        return clean, flush

    clean, flush = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = flush / clean
    assert_shape(1.5 <= ratio <= 4.0, f"flush/clean reread ratio ~2x, got {ratio:.2f}")


@pytest.mark.figure(10)
def test_fig10_shape_holds_across_threads(benchmark, assert_shape):
    def run():
        results = {}
        for threads in (1, 2):
            clean = clean_vs_flush_reread(
                1024, threads=threads, clean=True, repeats=1
            ).median
            flush = clean_vs_flush_reread(
                1024, threads=threads, clean=False, repeats=1
            ).median
            results[threads] = flush / clean
        return results

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    for threads, ratio in ratios.items():
        assert_shape(
            ratio > 1.4, f"clean advantage persists at {threads} threads"
        )
