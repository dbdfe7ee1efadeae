"""Figure 16: BST throughput vs FliT hash-table size (§7.4).

Paper's claim: the FliT hash table's size materially moves BST
throughput on a cache-constrained SoC, while Skip It needs no table at
all and sits at/above the best FliT configuration.
"""

import pytest

from repro.bench.structures import run_fig16


@pytest.mark.figure(16)
def test_fig16_table_size_sensitivity(benchmark, assert_shape):
    rows = benchmark.pedantic(
        lambda: run_fig16(
            quick=False,
            table_sizes=[256, 4096, 65_536],
            duration=60_000,
        ),
        rounds=1,
        iterations=1,
    )
    flit = {
        r.optimizer: r.throughput_mops
        for r in rows
        if r.optimizer.startswith("flit-hashtable")
    }
    skipit = next(r for r in rows if r.optimizer == "skipit").throughput_mops
    best = max(flit.values())
    worst = min(flit.values())
    assert_shape(
        best / worst > 1.05,
        f"table size moves throughput materially ({flit})",
    )
    assert_shape(
        skipit >= best * 0.9,
        f"Skip It ({skipit:.3f}) at/above best FliT config ({best:.3f})",
    )
