"""Figure 13: naive vs Skip It under redundant writebacks (§7.4).

Paper's claim: with one real CBO.X plus ten redundant ones per line,
Skip It is 15-30% faster than the naive flush unit (we measure a larger
gap; see EXPERIMENTS.md), at one and eight threads.
"""

import pytest

from repro.workloads.sweep import redundant_writeback_latency

KIB = 1024


@pytest.mark.figure(13)
def test_fig13_skip_it_vs_naive_one_thread(benchmark, assert_shape):
    def run():
        naive = redundant_writeback_latency(
            2 * KIB, threads=1, skip_it=False, repeats=1
        ).median
        skipit = redundant_writeback_latency(
            2 * KIB, threads=1, skip_it=True, repeats=1
        ).median
        return naive, skipit

    naive, skipit = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(skipit < naive * 0.85, f"Skip It wins ({skipit} vs {naive})")


@pytest.mark.figure(13)
def test_fig13_multithreaded(benchmark, assert_shape):
    def run():
        naive = redundant_writeback_latency(
            4 * KIB, threads=4, skip_it=False, repeats=1
        ).median
        skipit = redundant_writeback_latency(
            4 * KIB, threads=4, skip_it=True, repeats=1
        ).median
        return naive, skipit

    naive, skipit = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(skipit < naive, "Skip It advantage holds across threads")


@pytest.mark.figure(13)
def test_fig13_advantage_scales_with_redundancy(benchmark, assert_shape):
    def run():
        gaps = {}
        for redundant in (2, 10):
            naive = redundant_writeback_latency(
                KIB, skip_it=False, redundant=redundant, repeats=1
            ).median
            skipit = redundant_writeback_latency(
                KIB, skip_it=True, redundant=redundant, repeats=1
            ).median
            gaps[redundant] = naive - skipit
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_shape(
        gaps[10] > gaps[2], "more redundancy means more Skip It savings"
    )
