"""Figure-regeneration harness.

Each evaluation figure declares its sweep once, as an ordered list of
independent cells (``figNN_cells``, see :mod:`repro.bench.spec`);
``run_figNN`` simulates that list in this process and returns structured
rows, and the CLI (``python -m repro.bench --fig 9`` or the installed
``skipit-bench`` script) fans the same list over processes and prints
paper-style series.  The pytest benchmarks under ``benchmarks/`` call
the same runners with narrowed axes and assert the shape properties the
paper reports.
"""

from repro.bench.micro import (
    MICRO,
    fig09_cells,
    fig10_cells,
    fig11_cells,
    fig12_cells,
    fig13_cells,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
)
from repro.bench.range import RANGE, fig21_cells, run_fig21
from repro.bench.serve import SERVE, fig19_cells, run_fig19
from repro.bench.shared import SHARED, fig18_cells, run_fig18
from repro.bench.spec import Figure
from repro.bench.store import STORE, fig17_cells, run_fig17
from repro.bench.structures import (
    THROUGHPUT,
    fig14_cells,
    fig15_cells,
    fig16_cells,
    run_fig14,
    run_fig15,
    run_fig16,
)
from repro.bench.txn import TXN, fig20_cells, run_fig20

#: figure number -> cell list, row kind and title.  The kind (declared
#: beside its row dataclass) is how the CLI, the report, ``--check`` and
#: ``regress`` key, draw and compare the figure's rows.
FIGURES = {
    9: Figure(
        fig09_cells, MICRO, "CBO.X latency vs writeback size and threads (§7.2)"
    ),
    10: Figure(fig10_cells, MICRO, "write / 10x CBO.X / fence / re-read (§7.2)"),
    11: Figure(
        fig11_cells,
        MICRO,
        "single-thread writeback latency across architectures (§7.3)",
    ),
    12: Figure(
        fig12_cells,
        MICRO,
        "eight-thread writeback latency across architectures (§7.3)",
    ),
    13: Figure(fig13_cells, MICRO, "redundant writebacks: naive vs Skip It (§7.4)"),
    14: Figure(
        fig14_cells, THROUGHPUT, "persistent-set throughput, 5% updates (§7.4)"
    ),
    15: Figure(fig15_cells, THROUGHPUT, "throughput vs update percentage (§7.4)"),
    16: Figure(fig16_cells, THROUGHPUT, "BST vs FliT hash-table size (§7.4)"),
    17: Figure(
        fig17_cells,
        STORE,
        "durable store: throughput vs group-commit x optimizer (repro.store)",
    ),
    18: Figure(
        fig18_cells,
        SHARED,
        "shared-log store: fences/op and ack latency vs threads "
        "(repro.store.shared)",
    ),
    19: Figure(
        fig19_cells,
        SERVE,
        "serving tier: p99 ack latency vs offered load saturation curves "
        "(repro.serve)",
    ),
    20: Figure(
        fig20_cells,
        TXN,
        "transactions: fences per committed txn vs write-set size "
        "(repro.store.txn)",
    ),
    21: Figure(
        fig21_cells,
        RANGE,
        "CBO.RANGE: loop-of-CBOs vs one ranged flush, micro + store "
        "workloads (repro.bench.range)",
    ),
}

__all__ = [
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_fig18",
    "run_fig19",
    "run_fig20",
    "run_fig21",
    "FIGURES",
]
