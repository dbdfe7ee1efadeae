"""Figure-regeneration harness.

One ``run_figNN`` function per evaluation figure, returning structured
rows, plus a CLI (``python -m repro.bench --fig 9`` or the installed
``skipit-bench`` script) that prints paper-style series.  The pytest
benchmarks under ``benchmarks/`` call the same runners with reduced
parameters and assert the shape properties the paper reports.
"""

from repro.bench.micro import (
    MICRO,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
)
from repro.bench.range import RANGE, run_fig21
from repro.bench.serve import SERVE, run_fig19
from repro.bench.shared import SHARED, run_fig18
from repro.bench.spec import Figure
from repro.bench.store import STORE, run_fig17
from repro.bench.structures import THROUGHPUT, run_fig14, run_fig15, run_fig16
from repro.bench.txn import TXN, run_fig20

#: figure number -> runner, row kind and title.  The kind (declared
#: beside its row dataclass) is how the CLI, the report, ``--check`` and
#: ``regress`` key, draw and compare the figure's rows.
FIGURES = {
    9: Figure(run_fig09, MICRO, "CBO.X latency vs writeback size and threads (§7.2)"),
    10: Figure(run_fig10, MICRO, "write / 10x CBO.X / fence / re-read (§7.2)"),
    11: Figure(
        run_fig11,
        MICRO,
        "single-thread writeback latency across architectures (§7.3)",
    ),
    12: Figure(
        run_fig12,
        MICRO,
        "eight-thread writeback latency across architectures (§7.3)",
    ),
    13: Figure(run_fig13, MICRO, "redundant writebacks: naive vs Skip It (§7.4)"),
    14: Figure(run_fig14, THROUGHPUT, "persistent-set throughput, 5% updates (§7.4)"),
    15: Figure(run_fig15, THROUGHPUT, "throughput vs update percentage (§7.4)"),
    16: Figure(run_fig16, THROUGHPUT, "BST vs FliT hash-table size (§7.4)"),
    17: Figure(
        run_fig17,
        STORE,
        "durable store: throughput vs group-commit x optimizer (repro.store)",
    ),
    18: Figure(
        run_fig18,
        SHARED,
        "shared-log store: fences/op and ack latency vs threads "
        "(repro.store.shared)",
    ),
    19: Figure(
        run_fig19,
        SERVE,
        "serving tier: p99 ack latency vs offered load saturation curves "
        "(repro.serve)",
    ),
    20: Figure(
        run_fig20,
        TXN,
        "transactions: fences per committed txn vs write-set size "
        "(repro.store.txn)",
    ),
    21: Figure(
        run_fig21,
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
